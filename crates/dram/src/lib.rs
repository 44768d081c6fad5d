//! # dram — LPDDR3 memory-system model
//!
//! The VIP paper's motivation (its Fig 3) is that main memory is both the
//! data conduit and the bottleneck of frame-based IP flows: every IP reads
//! its input from DRAM and writes its output back, and as applications are
//! added the memory approaches its peak bandwidth, IP stalls grow, and
//! frames miss their 16 ms deadlines. This crate models that memory system:
//!
//! * the platform's **LPDDR3** organization from the paper's Table 3 —
//!   4 channels × 1 rank × 8 banks, `tCL = tRP = tRCD = 12 ns`,
//! * cache-line (64 B) interleaving across channels, row-granular banks with
//!   an open-page policy,
//! * a per-channel **FR-FCFS** controller (row hits first, then oldest),
//! * accounting: bandwidth timelines, row-buffer hit rates, busy time, and
//!   energy (activate + per-byte dynamic + background),
//! * an **ideal memory** mode (zero service time) used for the "Ideal" bars
//!   of the paper's Fig 3.
//!
//! The model is *transaction level*: requests carry a byte count, are split
//! into per-`(channel, bank, row)` line bursts, and data transfers serialize
//! on each channel's bus while activations overlap — the level of detail
//! that determines queueing delay and sustainable bandwidth, which is what
//! the VIP evaluation depends on.
//!
//! The crate is engine-agnostic: [`MemorySystem::submit`] enqueues work,
//! [`MemorySystem::next_completion_time`] tells the caller when to poll, and
//! [`MemorySystem::collect_completions`] drains finished requests. The SoC
//! simulator in `vip-core` bridges this to `desim` events.
//!
//! # Example
//!
//! ```
//! use desim::SimTime;
//! use dram::{DramConfig, MemOp, MemRequest, MemorySystem};
//!
//! let mut mem = MemorySystem::new(DramConfig::lpddr3_table3());
//! mem.submit(SimTime::ZERO, MemRequest::new(0x1000, 1024, MemOp::Read, 7));
//! let done = mem.drain(SimTime::ZERO); // or poll next_completion_time()
//! assert_eq!(done.len(), 1);
//! assert_eq!(done[0].tag, 7);
//! ```

#![deny(unsafe_code)]

pub mod channel;
pub mod config;
pub mod mapping;
#[cfg(feature = "trace")]
pub mod probe;
pub mod request;
pub mod stats;
pub mod system;

pub use config::{DramConfig, PagePolicy};
pub use mapping::{AddressMapper, Place};
#[cfg(feature = "trace")]
pub use probe::DramProbe;
pub use request::{Completion, MemOp, MemRequest};
pub use stats::MemStats;
pub use system::MemorySystem;
