//! # vip-telemetry
//!
//! Structured tracing and unified metrics for the VIP simulator.
//!
//! Three pieces, layered bottom-up:
//!
//! 1. **Events and sinks** ([`event`], [`sink`]): a small `Copy` event
//!    model (spans, instants, counters on named tracks) flowing into a
//!    [`TraceSink`] — either a bounded [`RingRecorder`] or the discarding
//!    [`NullSink`]. Labels are interned so the recording hot path never
//!    allocates. The simulator only *produces* these events when its
//!    `trace` cargo feature is on; with the feature off every hook
//!    compiles to an empty inlined function and costs nothing.
//! 2. **Export** ([`perfetto`]): [`export_chrome_json`] turns a recording
//!    into Chrome-trace-event JSON loadable in `ui.perfetto.dev`, and
//!    [`validate_chrome_trace`] checks the format (used by tests and by
//!    anything that wants to sanity-check a file before shipping it).
//! 3. **Metrics** ([`registry`]): a [`MetricsRegistry`] of named
//!    counters, plain values, histogram summaries (p50/p95/p99 computed
//!    by their producer), and time-weighted gauges, frozen into an
//!    ordered [`MetricsSnapshot`] that renders as text or JSON. This is
//!    the one funnel through which per-crate stats reach reports and
//!    files.
//! 4. **Campaign observability** ([`hist`], [`campaign`]): a
//!    [`LogHistogram`] with a fixed log-bucket layout and an *exact*
//!    merge across shards, the
//!    [`CellResult`] NDJSON record one campaign cell emits, and the
//!    [`CampaignAggregator`] that folds any sharding of a cell
//!    population into byte-identical percentile JSON.
//!
//! There is deliberately no dependency on the simulator crates (only on
//! `desim` for time and hashing), so any layer — DRAM model, SoC
//! blocks, benches — can produce events without cycles. JSON support
//! ([`json`]) is hand-rolled because the build environment is offline.

#![warn(missing_docs)]

pub mod campaign;
pub mod event;
pub mod hist;
pub mod json;
pub mod perfetto;
pub mod registry;
pub mod sink;

pub use campaign::{CampaignAggregator, CellResult};
pub use event::{EventKind, NameId, TraceEvent, TrackGroup, TrackId};
pub use hist::{LogHistSummary, LogHistogram};
pub use perfetto::{export_chrome_json, validate_chrome_trace, TraceSummary};
pub use registry::{GaugeSummary, HistSummary, MetricsRegistry, MetricsSnapshot};
pub use sink::{NullSink, RingRecorder, TraceSink};
