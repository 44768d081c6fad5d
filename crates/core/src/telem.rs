//! The simulator's tracing facade: zero-cost when off, ring-buffered when
//! on.
//!
//! [`SystemSim`](crate::SystemSim) calls [`Tracer`] methods
//! unconditionally from its hot paths. With the `trace` cargo feature
//! **off** (the default), `Tracer` is a zero-sized struct whose methods
//! are empty `#[inline]` functions — the optimizer removes the calls and
//! the argument computations feeding them, so the simulation binary is
//! bit-identical in behaviour and within noise in speed (checked by
//! perfbench A/Bs). With the feature **on**, the
//! same method names record interned, fixed-size events into a shared
//! [`telemetry::RingRecorder`].
//!
//! The two definitions are kept signature-identical by construction: the
//! disabled variant is generated from the enabled one's signatures, and a
//! feature-gated test compiles call sites against both.

#![allow(clippy::too_many_arguments)]

#[cfg(not(feature = "trace"))]
use desim::SimTime;

#[cfg(feature = "trace")]
mod enabled {
    use std::sync::{Arc, Mutex, MutexGuard};

    use desim::SimTime;
    use telemetry::{
        export_chrome_json, EventKind, RingRecorder, TraceEvent, TraceSink, TrackGroup, TrackId,
    };

    /// Recording tracer: forwards every hook into a shared ring recorder.
    ///
    /// Shared via `Arc<Mutex<_>>` because the DRAM probe closure and the
    /// engine dispatch hook each need their own handle, and because
    /// `SystemSim` (and therefore a `SimSnapshot`) must stay `Send` so the
    /// serve workers can share warmed snapshots between threads.
    /// The lock is uncontended — one sim runs on one thread — so the cost
    /// stays confined to traced runs.
    #[derive(Debug, Clone, Default)]
    pub struct Tracer {
        rec: Option<Arc<Mutex<RingRecorder>>>,
    }

    impl Tracer {
        /// A tracer that records nothing (the default for plain runs).
        pub fn disabled() -> Self {
            Tracer { rec: None }
        }

        /// A tracer recording into a fresh ring of `capacity` events.
        pub fn recording(capacity: usize) -> Self {
            Tracer {
                rec: Some(Arc::new(Mutex::new(RingRecorder::new(capacity)))),
            }
        }

        /// Whether events are being recorded.
        pub fn is_on(&self) -> bool {
            self.rec.is_some()
        }

        /// A second handle to the underlying recorder (for the DRAM probe
        /// and engine hook closures).
        pub fn share(&self) -> Option<Arc<Mutex<RingRecorder>>> {
            self.rec.clone()
        }

        /// Read access to the recorder, if recording.
        pub fn recorder(&self) -> Option<MutexGuard<'_, RingRecorder>> {
            self.rec.as_ref().map(|r| r.lock().expect("recorder lock"))
        }

        fn emit(&self, t: SimTime, kind: EventKind) {
            if let Some(rec) = &self.rec {
                rec.lock().expect("recorder lock").record(TraceEvent {
                    t_ns: t.as_ns(),
                    kind,
                });
            }
        }

        fn emit_named(&self, t: SimTime, track: TrackId, name: &str, instant: bool) {
            if let Some(rec) = &self.rec {
                let mut rec = rec.lock().expect("recorder lock");
                let name = rec.intern(name);
                let kind = if instant {
                    EventKind::Instant { track, name }
                } else {
                    EventKind::SpanBegin { track, name }
                };
                rec.record(TraceEvent {
                    t_ns: t.as_ns(),
                    kind,
                });
            }
        }

        /// One compute round on an IP lane: a complete span labeled with
        /// the flow's name. Recorded as an adjacent begin/end pair (the
        /// engine serializes rounds per IP, so pairs cannot interleave on
        /// a track).
        pub fn compute_round(
            &self,
            ip: usize,
            lane: usize,
            flow_name: &str,
            start: SimTime,
            end: SimTime,
        ) {
            if self.rec.is_none() {
                return;
            }
            let track = TrackId::new(TrackGroup::IpLane, ip as u16, lane as u16);
            self.emit_named(start, track, flow_name, false);
            self.emit(end, EventKind::SpanEnd { track });
        }

        /// A lane context switch on an IP's shared engine.
        pub fn ctx_switch(&self, ip: usize, lane: usize, at: SimTime) {
            let track = TrackId::new(TrackGroup::IpLane, ip as u16, lane as u16);
            self.emit_named(at, track, "ctx-switch", true);
        }

        /// A frame finished its chain (marked `frame-late` if past
        /// deadline).
        pub fn frame_done(&self, flow: usize, at: SimTime, late: bool) {
            let track = TrackId::new(TrackGroup::Flow, flow as u16, 0);
            let label = if late { "frame-late" } else { "frame" };
            self.emit_named(at, track, label, true);
        }

        /// Frames were dropped at the source queue.
        pub fn frames_dropped(&self, flow: usize, at: SimTime, count: usize) {
            let track = TrackId::new(TrackGroup::Flow, flow as u16, 0);
            for _ in 0..count {
                self.emit_named(at, track, "drop-at-source", true);
            }
        }

        /// A dispatch (burst) of frames left the source queue.
        pub fn dispatched(&self, flow: usize, at: SimTime, frames: usize) {
            if self.rec.is_none() {
                return;
            }
            let track = TrackId::new(TrackGroup::Flow, flow as u16, 0);
            self.emit_named(at, track, "dispatch", true);
            self.counter(track, "in-flight-frames", at, frames as f64);
        }

        /// Occupancy of a lane's flow buffer, in bytes.
        pub fn buffer_level(&self, ip: usize, lane: usize, at: SimTime, used: u64) {
            let track = TrackId::new(TrackGroup::IpLane, ip as u16, lane as u16);
            self.counter(track, "buffer-bytes", at, used as f64);
        }

        /// Depth of a lane's work-item queue.
        pub fn queue_depth(&self, ip: usize, lane: usize, at: SimTime, depth: usize) {
            let track = TrackId::new(TrackGroup::IpLane, ip as u16, lane as u16);
            self.counter(track, "queue-depth", at, depth as f64);
        }

        /// A System Agent fabric transfer (occupancy span).
        pub fn sa_transfer(&self, start: SimTime, end: SimTime, bytes: u64) {
            if self.rec.is_none() {
                return;
            }
            let track = TrackId::new(TrackGroup::SystemAgent, 0, 0);
            let label = if bytes < 4096 { "xfer-small" } else { "xfer" };
            self.emit_named(start, track, label, false);
            self.emit(end, EventKind::SpanEnd { track });
        }

        /// An interrupt delivered to a CPU core.
        pub fn irq(&self, cpu: usize, at: SimTime) {
            let track = TrackId::new(TrackGroup::Cpu, cpu as u16, 0);
            self.emit_named(at, track, "irq", true);
        }

        /// Depth of a CPU core's task queue (including the running task).
        pub fn cpu_queue(&self, cpu: usize, at: SimTime, depth: usize) {
            let track = TrackId::new(TrackGroup::Cpu, cpu as u16, 0);
            self.counter(track, "task-queue", at, depth as f64);
        }

        fn counter(&self, track: TrackId, name: &str, at: SimTime, value: f64) {
            if let Some(rec) = &self.rec {
                let mut rec = rec.lock().expect("recorder lock");
                let name = rec.intern(name);
                rec.record(TraceEvent {
                    t_ns: at.as_ns(),
                    kind: EventKind::Counter { track, name, value },
                });
            }
        }
    }

    /// A finished traced run: the recorder plus the naming context needed
    /// to export tracks with human labels.
    #[derive(Debug)]
    pub struct TraceSession {
        /// The shared recorder the run filled.
        pub rec: Arc<Mutex<RingRecorder>>,
        /// Flow names, indexed by flow id (`TrackGroup::Flow`'s `a`).
        pub flow_names: Vec<String>,
    }

    impl TraceSession {
        /// Exports the recording as Chrome trace-event JSON for
        /// `ui.perfetto.dev`.
        pub fn export_chrome_json(&self) -> String {
            let flow_names = &self.flow_names;
            let namer = |t: TrackId| -> String {
                match t.group {
                    TrackGroup::Engine => "dispatch".to_string(),
                    TrackGroup::IpLane => format!(
                        "{} lane {}",
                        soc::IpKind::ALL
                            .get(t.a as usize)
                            .map(|k| k.abbrev())
                            .unwrap_or("IP?"),
                        t.b
                    ),
                    TrackGroup::DramChannel => format!("channel {}", t.a),
                    TrackGroup::SystemAgent => "fabric".to_string(),
                    TrackGroup::Cpu => format!("core {}", t.a),
                    TrackGroup::Flow => flow_names
                        .get(t.a as usize)
                        .cloned()
                        .unwrap_or_else(|| format!("flow {}", t.a)),
                }
            };
            export_chrome_json(&self.rec.lock().expect("recorder lock"), &namer)
        }

        /// Events currently held in the ring.
        pub fn len(&self) -> usize {
            self.rec.lock().expect("recorder lock").len()
        }

        /// Whether nothing was recorded.
        pub fn is_empty(&self) -> bool {
            self.rec.lock().expect("recorder lock").is_empty()
        }

        /// Total events offered to the ring (kept + overwritten).
        pub fn events_written(&self) -> u64 {
            self.rec.lock().expect("recorder lock").written()
        }

        /// Raw engine dispatches counted during the run.
        pub fn engine_dispatches(&self) -> u64 {
            self.rec.lock().expect("recorder lock").dispatches()
        }
    }
}

#[cfg(feature = "trace")]
pub use enabled::{TraceSession, Tracer};

/// No-op tracer: every method inlines to nothing, so traced call sites in
/// the simulator cost zero when the `trace` feature is off.
#[cfg(not(feature = "trace"))]
#[derive(Debug, Clone, Copy, Default)]
pub struct Tracer;

#[cfg(not(feature = "trace"))]
impl Tracer {
    /// A tracer that records nothing.
    #[inline(always)]
    pub fn disabled() -> Self {
        Tracer
    }

    /// Always `false` without the `trace` feature.
    #[inline(always)]
    pub fn is_on(&self) -> bool {
        false
    }

    /// No-op.
    #[inline(always)]
    pub fn compute_round(
        &self,
        _ip: usize,
        _lane: usize,
        _flow_name: &str,
        _start: SimTime,
        _end: SimTime,
    ) {
    }

    /// No-op.
    #[inline(always)]
    pub fn ctx_switch(&self, _ip: usize, _lane: usize, _at: SimTime) {}

    /// No-op.
    #[inline(always)]
    pub fn frame_done(&self, _flow: usize, _at: SimTime, _late: bool) {}

    /// No-op.
    #[inline(always)]
    pub fn frames_dropped(&self, _flow: usize, _at: SimTime, _count: usize) {}

    /// No-op.
    #[inline(always)]
    pub fn dispatched(&self, _flow: usize, _at: SimTime, _frames: usize) {}

    /// No-op.
    #[inline(always)]
    pub fn buffer_level(&self, _ip: usize, _lane: usize, _at: SimTime, _used: u64) {}

    /// No-op.
    #[inline(always)]
    pub fn queue_depth(&self, _ip: usize, _lane: usize, _at: SimTime, _depth: usize) {}

    /// No-op.
    #[inline(always)]
    pub fn sa_transfer(&self, _start: SimTime, _end: SimTime, _bytes: u64) {}

    /// No-op.
    #[inline(always)]
    pub fn irq(&self, _cpu: usize, _at: SimTime) {}

    /// No-op.
    #[inline(always)]
    pub fn cpu_queue(&self, _cpu: usize, _at: SimTime, _depth: usize) {}
}
