//! # vip-core — Virtualizing IP Chains (VIP, ISCA 2015)
//!
//! This crate implements the paper's contribution: a framework that lets a
//! chain of SoC accelerators (*IP cores*) appear to software as a single
//! virtual device, evaluated on a full-system simulator built from the
//! workspace's substrate crates ([`desim`], [`dram`], [`soc`]).
//!
//! ## The five systems under study
//!
//! The paper compares five designs, all expressible here as a
//! [`Scheme`]:
//!
//! 1. [`Scheme::Baseline`] — today's stack: the CPU runs a driver
//!    invocation per IP per frame, every IP reads its input from DRAM and
//!    writes its output back, and every IP completion interrupts a core.
//! 2. [`Scheme::FrameBurst`] — the CPU schedules *N* frames per driver
//!    invocation (one interrupt per IP per burst), but data still detours
//!    through DRAM.
//! 3. [`Scheme::IpToIp`] — IPs are chained: one "super-request" per frame
//!    flows through the chain, sub-frames hop producer → consumer through
//!    2 KB flow buffers over the System Agent, and only the final IP
//!    interrupts the CPU.
//! 4. [`Scheme::IpToIpBurst`] — chaining plus bursts: maximal CPU savings,
//!    but a burst occupies a shared IP for its whole duration, so
//!    co-running applications suffer head-of-line blocking.
//! 5. [`Scheme::Vip`] — the paper's proposal: chaining + bursts + *virtualized*
//!    IPs. Each IP gets multi-lane buffers and per-flow contexts, and a
//!    hardware earliest-deadline-first scheduler context-switches between
//!    lanes at sub-frame granularity, eliminating head-of-line blocking
//!    while keeping the burst-mode CPU savings.
//!
//! ## Quick start
//!
//! ```
//! use vip_core::{FlowSpec, Scheme, SystemConfig, SystemSim};
//! use soc::IpKind;
//!
//! // A 1080p/30fps video player: bitstream → VD → DC (paper Table 1, A5).
//! let flow = FlowSpec::builder("video-play")
//!     .fps(30.0)
//!     .cpu_source(250_000, 300_000, 150_000) // bitstream bytes, prep ns, prep instr
//!     .stage(IpKind::Vd, 3_110_400)          // decoded NV12 frame
//!     .stage(IpKind::Dc, 0)                  // scanout (sink)
//!     .build();
//!
//! let mut cfg = SystemConfig::table3(Scheme::Vip);
//! cfg.duration = desim::SimDelta::from_ms(200);
//! let report = SystemSim::run(cfg, vec![flow]);
//! assert!(report.frames_completed > 0);
//! assert_eq!(report.frames_dropped_at_source, 0);
//! ```
//!
//! ## The session API
//!
//! [`SystemSim::run`] is the one-shot convenience. The full lifecycle
//! lives on [`SimCell`], which owns a warm engine + model pair and steps
//! through explicit phases:
//!
//! * **Configure a run** with [`SimCell::runner`], a builder
//!   ([`RunOptions`]) that collapses the historical `run_*` entry-point
//!   family: `.audited()` (audit feature), `.traced(capacity)` /
//!   `.counted()` (trace feature) and `.eager_mem_poll()` (the reference
//!   schedule for the property suite).
//!   [`RunOptions::run`] returns a [`RunOutput`] carrying the report plus
//!   any requested observer artifacts.
//! * **Step resumably** with [`SimCell::run_until`], then either keep
//!   stepping or [`SimCell::finish`] to build the report. Splitting a run
//!   at any instant is bit-identical to running straight through.
//! * **Capture and branch** with [`SimCell::snapshot`] /
//!   [`SimCell::restore`]: a [`SimSnapshot`] is owned, cloneable and
//!   `Send`, so a warmed-up state can be cached once and branched many
//!   times (the `simulate --serve` what-if service is built on this).
//! * **Post-run accessors** ([`SimCell::harvest_flow_times`],
//!   [`SimCell::flow_traces`]) return `Err(`[`RunIncomplete`]`)` until the
//!   report is built, so a partial run can't silently skew statistics.

#![deny(unsafe_code)]

pub mod audit;
pub mod chain;
pub mod config;
pub mod devices;
pub mod flow;
pub mod header;
pub mod metrics;
pub mod sim;
pub mod telem;
pub mod trace;

pub use audit::{AuditSummary, Auditor};
pub use chain::{ChainDescriptor, ChainId, Platform};
pub use config::{BackgroundLoad, CpuWork, SchedPolicy, Scheme, SystemConfig};
pub use devices::Device;
pub use flow::{BurstGate, FlowSpec, FlowSpecBuilder, SourceKind, StageSpec};
pub use header::HeaderPacket;
pub use metrics::{FlowReport, FrameRecord, SystemReport};
#[cfg(feature = "trace")]
pub use sim::EventCounts;
pub use sim::{RunIncomplete, RunOptions, RunOutput, SimCell, SimSnapshot, SystemSim};
#[cfg(feature = "trace")]
pub use telem::TraceSession;
pub use telem::Tracer;
pub use trace::FlowTrace;
