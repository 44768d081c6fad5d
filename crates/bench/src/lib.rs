//! # vip-bench — the experiment harness
//!
//! One generator per table and figure of the paper. Each experiment
//! module produces typed rows (so integration tests can assert on
//! shapes) and pretty-prints the same table/series the paper plots.
//! The `figures` binary drives them:
//!
//! ```text
//! figures --exp table1        # Table 1: applications and their IP flows
//! figures --exp fig15         # energy per frame, 5 schemes × A1..W8
//! figures --exp all           # everything, in paper order
//! figures --exp fig15 --ms 200 --seed 7
//! ```

#![deny(unsafe_code)]

pub mod campaign;
pub mod cli;
pub mod experiments;
mod pool;
pub mod runner;
pub mod serve;
pub mod table;

pub use campaign::{read_journal, run_campaign, CampaignSpec, CellSpec, Heartbeat};
pub use runner::{run_app, run_workload, Matrix, RunSettings, Unit};
pub use serve::{ServeOptions, Server};
pub use table::Table;

/// Simulated horizon (ms) of the golden determinism table: long enough
/// that every unit exercises DRAM contention, DVFS and sleep transitions,
/// short enough that the full 15 × 5 matrix stays test-suite friendly.
pub const GOLDEN_HORIZON_MS: u64 = 50;
