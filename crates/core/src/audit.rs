//! The simulator's runtime sanitizer: zero-cost when off, incremental
//! invariant checks when on.
//!
//! [`SystemSim`](crate::SystemSim) calls [`Auditor`] methods
//! unconditionally from its dispatch paths, guarded by `is_on()` exactly
//! like the [`Tracer`](crate::telem::Tracer) hooks. With the `audit` cargo
//! feature **off** (the default), `Auditor` is a zero-sized struct whose
//! methods are empty `#[inline]` functions and `is_on()` is a constant
//! `false`, so the optimizer removes every hook and its argument
//! computation — the default binary carries no cost (checked by perfbench
//! A/Bs). With the feature **on**, the
//! same method names check four invariants incrementally, at the moment
//! each could first be violated:
//!
//! 1. **Event-time monotonicity** — every dispatched event fires at or
//!    after the previous one. Checked in `desim::Scheduler::pop` (hardened
//!    from a `debug_assert`); the count surfaces here via
//!    [`AuditSummary::time_checks`].
//! 2. **Buffer occupancy** — a lane's flow-buffer `used + reserved` never
//!    exceeds its capacity. Checked on every System-Agent arrival.
//! 3. **EDF order** — under [`SchedPolicy::Edf`](crate::config::SchedPolicy),
//!    every context switch picks the eligible lane with the earliest
//!    deadline. Re-derived independently at each multi-candidate pick.
//! 4. **Frame conservation** — per flow, frames dispatched equal frames
//!    completed plus frames in flight (source drops never enter flight;
//!    rollbacks recompute without un-dispatching).
//!
//! The auditor only observes — it never schedules events or mutates sim
//! state — so an audited run is digest-bit-identical to an unaudited one;
//! `cargo test --features audit` replays the pinned golden matrix to prove
//! it. A violated invariant panics with the failing values, which is the
//! desired behaviour for a sanitizer: the run is already wrong.

use std::fmt;

/// Counts of invariant checks performed by one audited run.
///
/// All checks passed if the run returned at all (violations panic), so the
/// summary's job is to prove coverage: zero checks would mean the hooks
/// never fired.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct AuditSummary {
    /// Event-time monotonicity checks (one per dispatched event).
    pub time_checks: u64,
    /// Flow-buffer occupancy checks (one per SA arrival).
    pub buffer_checks: u64,
    /// EDF deadline-order checks (one per contended EDF pick).
    pub edf_checks: u64,
    /// Frame-conservation checks (one per dispatch/completion).
    pub conservation_checks: u64,
    /// Frames the sources dispatched into flight.
    pub frames_dispatched: u64,
    /// Frames dropped at source queues (never entered flight).
    pub frames_dropped: u64,
    /// Frames that completed their last stage.
    pub frames_completed: u64,
    /// Frames still in flight when the run ended.
    pub frames_in_flight: u64,
}

impl fmt::Display for AuditSummary {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "audit: all invariants held")?;
        writeln!(f, "  time monotonicity : {:>10} checks", self.time_checks)?;
        writeln!(f, "  buffer occupancy  : {:>10} checks", self.buffer_checks)?;
        writeln!(f, "  EDF order         : {:>10} checks", self.edf_checks)?;
        writeln!(
            f,
            "  frame conservation: {:>10} checks ({} dispatched = {} completed + {} in flight; {} dropped at source)",
            self.conservation_checks,
            self.frames_dispatched,
            self.frames_completed,
            self.frames_in_flight,
            self.frames_dropped
        )
    }
}

#[cfg(feature = "audit")]
mod enabled {
    use super::AuditSummary;
    use desim::SimTime;

    /// Per-flow frame ledger.
    #[derive(Debug, Clone, Copy, Default)]
    struct FlowLedger {
        dispatched: u64,
        dropped: u64,
        completed: u64,
    }

    /// Checking auditor: every hook verifies an invariant and counts it.
    #[derive(Debug, Clone, Default)]
    pub struct Auditor {
        /// `None` for a plain run (hooks are no-ops), `Some` when armed.
        flows: Option<Vec<FlowLedger>>,
        buffer_checks: u64,
        edf_checks: u64,
        conservation_checks: u64,
    }

    impl Auditor {
        /// An auditor that checks nothing (the default for plain runs).
        pub fn disabled() -> Self {
            Auditor::default()
        }

        /// An auditor tracking `num_flows` frame ledgers.
        pub fn armed(num_flows: usize) -> Self {
            Auditor {
                flows: Some(vec![FlowLedger::default(); num_flows]),
                ..Auditor::default()
            }
        }

        /// Whether invariants are being checked.
        #[inline]
        pub fn is_on(&self) -> bool {
            self.flows.is_some()
        }

        /// `n` frames of `flow` entered flight; `in_flight` is the flow's
        /// post-dispatch count.
        #[inline]
        pub fn frames_dispatched(&mut self, flow: usize, n: u64, in_flight: u32) {
            let Some(flows) = &mut self.flows else { return };
            flows[flow].dispatched += n;
            let l = flows[flow];
            self.conservation_checks += 1;
            assert!(
                l.dispatched == l.completed + u64::from(in_flight),
                "audit: frame conservation broken for flow {flow} after dispatch: \
                 {} dispatched != {} completed + {} in flight",
                l.dispatched,
                l.completed,
                in_flight
            );
        }

        /// `n` frames of `flow` were dropped at the source queue.
        #[inline]
        pub fn frames_dropped(&mut self, flow: usize, n: u64) {
            if let Some(flows) = &mut self.flows {
                flows[flow].dropped += n;
            }
        }

        /// One frame of `flow` completed its last stage; `in_flight` is
        /// the flow's post-completion count.
        #[inline]
        pub fn frame_completed(&mut self, flow: usize, in_flight: u32) {
            let Some(flows) = &mut self.flows else { return };
            flows[flow].completed += 1;
            let l = flows[flow];
            self.conservation_checks += 1;
            assert!(
                l.dispatched == l.completed + u64::from(in_flight),
                "audit: frame conservation broken for flow {flow} after completion: \
                 {} dispatched != {} completed + {} in flight",
                l.dispatched,
                l.completed,
                in_flight
            );
        }

        /// A lane buffer holds `occupancy` bytes (used + reserved) of
        /// `capacity`.
        #[inline]
        pub fn buffer_occupancy(&mut self, ip: usize, lane: usize, occupancy: u64, capacity: u64) {
            if self.flows.is_none() {
                return;
            }
            self.buffer_checks += 1;
            assert!(
                occupancy <= capacity,
                "audit: flow buffer over capacity on ip {ip} lane {lane}: \
                 {occupancy} > {capacity} bytes"
            );
        }

        /// An EDF context switch picked a lane whose frame deadline is
        /// `chosen`; `best` is the independently re-derived minimum over
        /// all eligible lanes.
        #[inline]
        pub fn edf_pick(&mut self, ip: usize, chosen: SimTime, best: SimTime) {
            if self.flows.is_none() {
                return;
            }
            self.edf_checks += 1;
            assert!(
                chosen <= best,
                "audit: EDF order violated on ip {ip}: picked deadline {chosen}, \
                 an eligible lane had earlier deadline {best}"
            );
        }

        /// Folds the ledgers into a summary. `time_checks` comes from the
        /// engine's scheduler; `in_flight_total` is the sim-side sum at
        /// end of run, re-checked against the ledgers one last time.
        pub fn finish(&self, time_checks: u64, in_flight_total: u64) -> AuditSummary {
            let flows = self.flows.as_deref().unwrap_or(&[]);
            let dispatched: u64 = flows.iter().map(|l| l.dispatched).sum();
            let completed: u64 = flows.iter().map(|l| l.completed).sum();
            let dropped: u64 = flows.iter().map(|l| l.dropped).sum();
            assert!(
                dispatched == completed + in_flight_total,
                "audit: frame conservation broken at end of run: \
                 {dispatched} dispatched != {completed} completed + {in_flight_total} in flight"
            );
            AuditSummary {
                time_checks,
                buffer_checks: self.buffer_checks,
                edf_checks: self.edf_checks,
                conservation_checks: self.conservation_checks + u64::from(self.flows.is_some()),
                frames_dispatched: dispatched,
                frames_dropped: dropped,
                frames_completed: completed,
                frames_in_flight: in_flight_total,
            }
        }
    }
}

#[cfg(feature = "audit")]
pub use enabled::Auditor;

/// No-op auditor: compiled when the `audit` feature is off. Every method
/// matches the enabled signature and does nothing, and `is_on()` is a
/// constant `false`, so call sites (and the `if audit.is_on()` argument
/// computations feeding them) fold away entirely.
#[cfg(not(feature = "audit"))]
#[derive(Debug, Clone, Copy, Default)]
pub struct Auditor;

#[cfg(not(feature = "audit"))]
#[allow(unused_variables, missing_docs, clippy::missing_docs_in_private_items)]
impl Auditor {
    #[inline(always)]
    pub fn disabled() -> Self {
        Auditor
    }

    #[inline(always)]
    pub fn is_on(&self) -> bool {
        false
    }

    #[inline(always)]
    pub fn frames_dispatched(&mut self, flow: usize, n: u64, in_flight: u32) {}

    #[inline(always)]
    pub fn frames_dropped(&mut self, flow: usize, n: u64) {}

    #[inline(always)]
    pub fn frame_completed(&mut self, flow: usize, in_flight: u32) {}

    #[inline(always)]
    pub fn buffer_occupancy(&mut self, ip: usize, lane: usize, occupancy: u64, capacity: u64) {}

    #[inline(always)]
    pub fn edf_pick(&mut self, ip: usize, chosen: desim::SimTime, best: desim::SimTime) {}

    #[inline(always)]
    pub fn finish(&self, time_checks: u64, in_flight_total: u64) -> AuditSummary {
        AuditSummary::default()
    }
}

#[cfg(all(test, feature = "audit"))]
mod tests {
    use super::*;
    use desim::SimTime;

    #[test]
    fn disabled_auditor_checks_nothing() {
        let mut a = Auditor::disabled();
        assert!(!a.is_on());
        // Violations pass straight through when not armed.
        a.buffer_occupancy(0, 0, 100, 10);
        a.edf_pick(0, SimTime::from_ns(9), SimTime::from_ns(1));
        assert_eq!(a.finish(0, 0), AuditSummary::default());
    }

    #[test]
    fn armed_auditor_counts_checks() {
        let mut a = Auditor::armed(2);
        assert!(a.is_on());
        a.frames_dispatched(0, 3, 3);
        a.frames_dropped(1, 2);
        a.frame_completed(0, 2);
        a.buffer_occupancy(1, 0, 64, 64);
        a.edf_pick(2, SimTime::from_ns(5), SimTime::from_ns(5));
        let s = a.finish(17, 2);
        assert_eq!(s.time_checks, 17);
        assert_eq!(s.buffer_checks, 1);
        assert_eq!(s.edf_checks, 1);
        assert_eq!(s.conservation_checks, 3);
        assert_eq!(s.frames_dispatched, 3);
        assert_eq!(s.frames_dropped, 2);
        assert_eq!(s.frames_completed, 1);
        assert_eq!(s.frames_in_flight, 2);
        assert!(s.to_string().contains("all invariants held"));
    }

    #[test]
    #[should_panic(expected = "flow buffer over capacity")]
    fn buffer_overflow_panics() {
        Auditor::armed(1).buffer_occupancy(3, 1, 65, 64);
    }

    #[test]
    #[should_panic(expected = "EDF order violated")]
    fn edf_misorder_panics() {
        Auditor::armed(1).edf_pick(0, SimTime::from_ns(9), SimTime::from_ns(1));
    }

    #[test]
    #[should_panic(expected = "frame conservation broken")]
    fn conservation_mismatch_panics() {
        let mut a = Auditor::armed(1);
        a.frames_dispatched(0, 2, 2);
        // A completion that claims 2 still in flight: 2 != 1 + 2.
        a.frame_completed(0, 2);
    }
}
