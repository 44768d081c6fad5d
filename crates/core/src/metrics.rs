//! Measurement results: per-frame records, per-flow summaries, and the
//! system-level report every experiment consumes.

use desim::{SimDelta, SimTime};
use soc::{EnergyBreakdown, IpKind};

use crate::config::Scheme;

/// The life of one frame through its flow.
#[derive(Debug, Clone, PartialEq)]
pub struct FrameRecord {
    /// Nominal source instant (the presentation schedule).
    pub sourced: SimTime,
    /// QoS deadline.
    pub deadline: SimTime,
    /// When the CPU dispatched the frame (None if dropped at source).
    pub dispatched: Option<SimTime>,
    /// Per-stage processing span: (first compute, completion).
    pub stage_spans: Vec<Option<(SimTime, SimTime)>>,
    /// CPU time attributed to this frame (prep/setup/IRQ shares), ns.
    pub cpu_ns: u64,
    /// Completion at the final stage.
    pub finished: Option<SimTime>,
    /// Dropped at the source because the flow's in-flight queue was full.
    pub dropped_at_source: bool,
}

impl FrameRecord {
    /// Creates an un-dispatched record.
    pub fn new(sourced: SimTime, deadline: SimTime, stages: usize) -> Self {
        FrameRecord {
            sourced,
            deadline,
            dispatched: None,
            stage_spans: vec![None; stages],
            cpu_ns: 0,
            finished: None,
            dropped_at_source: false,
        }
    }

    /// Whether the frame finished past its deadline (only meaningful once
    /// finished).
    pub fn late(&self) -> bool {
        matches!(self.finished, Some(f) if f > self.deadline)
    }

    /// Whether this frame counts as a QoS violation by instant `now`:
    /// dropped at source, finished late, or unfinished past its deadline.
    pub fn violated(&self, now: SimTime) -> bool {
        if self.dropped_at_source {
            return true;
        }
        match self.finished {
            Some(f) => f > self.deadline,
            None => now > self.deadline,
        }
    }

    /// Per-frame flow time (the paper's Fig 17 metric): the makespan from
    /// the first stage beginning work on this frame until the final stage
    /// completes it. In the baseline this includes every CPU round-trip
    /// between stages; pipelined schemes overlap stages and chained
    /// schemes drop the memory detours. `None` until the frame finishes.
    pub fn flow_time(&self) -> Option<SimDelta> {
        let finished = self.finished?;
        let begin = self
            .stage_spans
            .iter()
            .flatten()
            .map(|s| s.0)
            .min()
            .or(self.dispatched)?;
        Some(finished.since(begin))
    }
}

/// Summary of one flow.
#[derive(Debug, Clone, PartialEq)]
pub struct FlowReport {
    /// The flow's name.
    pub name: String,
    /// Frames whose nominal source time fell inside the run.
    pub frames_sourced: u64,
    /// Frames that completed the whole chain.
    pub frames_completed: u64,
    /// QoS violations (late + dropped) among frames with expired deadlines.
    pub violations: u64,
    /// Frames dropped at the source queue.
    pub drops_at_source: u64,
    /// Mean flow time over completed frames.
    pub avg_flow_time: SimDelta,
    /// 95th-percentile flow time over completed frames.
    pub p95_flow_time: SimDelta,
    /// Mean CPU time attributed per sourced frame.
    pub avg_cpu_per_frame: SimDelta,
}

impl FlowReport {
    /// Violations as a fraction of sourced frames.
    pub fn violation_rate(&self) -> f64 {
        if self.frames_sourced == 0 {
            0.0
        } else {
            self.violations as f64 / self.frames_sourced as f64
        }
    }
}

/// Per-IP activity summary.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct IpReport {
    /// Which IP.
    pub kind: IpKind,
    /// Utilization = compute ÷ active (Fig 3b).
    pub utilization: f64,
    /// Total active nanoseconds.
    pub active_ns: u64,
    /// Frames processed.
    pub frames: u64,
    /// Energy in joules.
    pub energy_j: f64,
    /// Lane context switches (VIP).
    pub context_switches: u64,
}

/// The full result of one simulated run.
#[derive(Debug, Clone)]
pub struct SystemReport {
    /// The scheme simulated.
    pub scheme: Scheme, // digest: included
    /// Simulated span.
    pub duration: SimDelta, // digest: included
    /// Energy by component.
    pub energy: EnergyBreakdown, // digest: included
    /// Frames whose nominal source time fell inside the run (all flows).
    pub frames_sourced: u64, // digest: included
    /// Frames that completed end to end.
    pub frames_completed: u64, // digest: included
    /// QoS violations (late + dropped).
    pub frames_violated: u64, // digest: included
    /// Drops at source queues.
    pub frames_dropped_at_source: u64, // digest: included
    /// Interrupts delivered to CPU cores.
    pub interrupts: u64, // digest: included
    /// Burst rollbacks performed by interactive flows (paper Fig 11).
    pub rollbacks: u64, // digest: included
    /// Sum of CPU active time across cores, ns.
    pub cpu_active_ns: u64, // digest: included
    /// Instructions retired across cores.
    pub cpu_instructions: u64, // digest: included
    /// CPU energy alone (subset of `energy`), J.
    pub cpu_energy_j: f64, // digest: included
    /// CPU energy of the background (non-media) load, reported separately
    /// and excluded from `energy` (the paper's per-frame energy is the
    /// media subsystem's).
    pub background_cpu_j: f64, // digest: included
    /// Per-flow reports, in input order.
    pub flows: Vec<FlowReport>, // digest: included
    /// Per-IP reports for IPs that saw work.
    pub ips: Vec<IpReport>, // digest: included
    /// Average consumed DRAM bandwidth, GB/s.
    pub mem_avg_gbps: f64, // digest: included
    /// Fraction of 1 ms windows with DRAM bandwidth above 80 % of peak.
    pub mem_frac_above_80pct: f64, // digest: included
    /// DRAM bandwidth timeline (GB/s per 1 ms window).
    pub mem_bw_windows_gbps: Vec<f64>, // digest: included
    /// Bytes moved through DRAM.
    pub mem_bytes: u64, // digest: included
    /// Bytes switched through the System Agent.
    pub sa_bytes: u64, // digest: included
    /// Mean flow time over completed frames (all flows).
    pub avg_flow_time: SimDelta, // digest: included
    /// Shortest flow time over completed frames (all flows).
    pub min_flow_time: SimDelta, // digest: excluded
    /// Median flow time over completed frames (all flows).
    pub p50_flow_time: SimDelta, // digest: excluded
    /// 95th-percentile flow time over completed frames (all flows).
    pub p95_flow_time: SimDelta, // digest: included
    /// 99th-percentile flow time over completed frames (all flows).
    pub p99_flow_time: SimDelta, // digest: excluded
    /// Longest flow time over completed frames (all flows).
    pub max_flow_time: SimDelta, // digest: excluded
    /// Events the simulation dispatched (diagnostics).
    pub events: u64, // digest: included
}

impl SystemReport {
    /// A stable 64-bit digest over a fixed list of the report's fields.
    ///
    /// Two reports digest equal iff the simulations behaved identically
    /// (bit-identical floats included), so this is the equality witness for
    /// golden-determinism tests: the digest must not change across repeated
    /// runs, across `Matrix::run_subset` worker counts, or across pure
    /// performance refactors of the event engine.
    ///
    /// Fields added after the golden table was frozen (`min_flow_time`,
    /// `p50_flow_time`, `p99_flow_time`, `max_flow_time`) are deliberately
    /// *not* hashed: they derive from the same per-frame samples as
    /// `p95_flow_time`, so hashing them would invalidate every recorded
    /// golden digest without adding any determinism coverage.
    pub fn digest(&self) -> u64 {
        use std::hash::Hasher;
        let mut h = desim::hash::FxHasher::default();
        let f = |h: &mut desim::hash::FxHasher, x: f64| h.write_u64(x.to_bits());
        h.write_u64(self.scheme as u64);
        h.write_u64(self.duration.as_ns());
        f(&mut h, self.energy.cpu_j);
        f(&mut h, self.energy.dram_j);
        f(&mut h, self.energy.ip_j);
        f(&mut h, self.energy.sa_j);
        f(&mut h, self.energy.buffer_j);
        for n in [
            self.frames_sourced,
            self.frames_completed,
            self.frames_violated,
            self.frames_dropped_at_source,
            self.interrupts,
            self.rollbacks,
            self.cpu_active_ns,
            self.cpu_instructions,
            self.mem_bytes,
            self.sa_bytes,
            self.avg_flow_time.as_ns(),
            self.p95_flow_time.as_ns(),
            self.events,
        ] {
            h.write_u64(n);
        }
        f(&mut h, self.cpu_energy_j);
        f(&mut h, self.background_cpu_j);
        f(&mut h, self.mem_avg_gbps);
        f(&mut h, self.mem_frac_above_80pct);
        for &w in &self.mem_bw_windows_gbps {
            f(&mut h, w);
        }
        for fr in &self.flows {
            h.write(fr.name.as_bytes());
            for n in [
                fr.frames_sourced,
                fr.frames_completed,
                fr.violations,
                fr.drops_at_source,
                fr.avg_flow_time.as_ns(),
                fr.p95_flow_time.as_ns(),
                fr.avg_cpu_per_frame.as_ns(),
            ] {
                h.write_u64(n);
            }
        }
        for ip in &self.ips {
            h.write_u64(ip.kind.index() as u64);
            f(&mut h, ip.utilization);
            h.write_u64(ip.active_ns);
            h.write_u64(ip.frames);
            f(&mut h, ip.energy_j);
            h.write_u64(ip.context_switches);
        }
        h.finish()
    }

    /// Total energy per sourced frame, in millijoules (Fig 15's metric
    /// before normalization).
    pub fn energy_per_frame_mj(&self) -> f64 {
        if self.frames_sourced == 0 {
            return 0.0;
        }
        self.energy.total_j() * 1e3 / self.frames_sourced as f64
    }

    /// QoS violations as a fraction of sourced frames (Fig 18's metric
    /// before normalization).
    pub fn violation_rate(&self) -> f64 {
        if self.frames_sourced == 0 {
            0.0
        } else {
            self.frames_violated as f64 / self.frames_sourced as f64
        }
    }

    /// Interrupt rate per 100 ms (Fig 16b's metric).
    pub fn irq_per_100ms(&self) -> f64 {
        let secs = self.duration.as_secs();
        if secs == 0.0 {
            0.0
        } else {
            self.interrupts as f64 / (secs * 10.0)
        }
    }

    /// CPU active time per sourced frame, in milliseconds (Fig 2a's
    /// metric).
    pub fn cpu_ms_per_frame(&self) -> f64 {
        if self.frames_sourced == 0 {
            0.0
        } else {
            self.cpu_active_ns as f64 / 1e6 / self.frames_sourced as f64
        }
    }

    /// The utilization of a given IP, if it saw work.
    pub fn ip_utilization(&self, kind: IpKind) -> Option<f64> {
        self.ips
            .iter()
            .find(|r| r.kind == kind)
            .map(|r| r.utilization)
    }

    /// Mean per-frame active time of a given IP, in milliseconds.
    pub fn ip_active_ms_per_frame(&self, kind: IpKind) -> Option<f64> {
        self.ips
            .iter()
            .find(|r| r.kind == kind && r.frames > 0)
            .map(|r| r.active_ns as f64 / 1e6 / r.frames as f64)
    }

    /// The report's numbers absorbed into the unified metrics registry:
    /// one snapshot holding every counter, derived rate, energy account,
    /// and the flow-time distribution summary, ready for
    /// [`telemetry::MetricsSnapshot::to_json`] or
    /// [`telemetry::MetricsSnapshot::render`].
    pub fn metrics(&self) -> telemetry::MetricsSnapshot {
        let mut reg = telemetry::MetricsRegistry::new();

        reg.add("frames.sourced", self.frames_sourced);
        reg.add("frames.completed", self.frames_completed);
        reg.add("frames.violated", self.frames_violated);
        reg.add("frames.dropped_at_source", self.frames_dropped_at_source);
        reg.add("cpu.interrupts", self.interrupts);
        reg.add("cpu.rollbacks", self.rollbacks);
        reg.add("cpu.active_ns", self.cpu_active_ns);
        reg.add("cpu.instructions", self.cpu_instructions);
        reg.add("mem.bytes", self.mem_bytes);
        reg.add("sa.bytes", self.sa_bytes);
        reg.add("engine.events", self.events);

        reg.value_set("energy.cpu_j", self.energy.cpu_j);
        reg.value_set("energy.dram_j", self.energy.dram_j);
        reg.value_set("energy.ip_j", self.energy.ip_j);
        reg.value_set("energy.sa_j", self.energy.sa_j);
        reg.value_set("energy.buffer_j", self.energy.buffer_j);
        reg.value_set("energy.total_j", self.energy.total_j());
        reg.value_set("energy.background_cpu_j", self.background_cpu_j);
        reg.value_set("energy.per_frame_mj", self.energy_per_frame_mj());
        reg.value_set("mem.avg_gbps", self.mem_avg_gbps);
        reg.value_set("mem.frac_above_80pct", self.mem_frac_above_80pct);
        reg.value_set("qos.violation_rate", self.violation_rate());
        reg.value_set("cpu.irq_per_100ms", self.irq_per_100ms());
        reg.value_set("cpu.ms_per_frame", self.cpu_ms_per_frame());

        reg.summary_set(
            "flow_time_ns",
            telemetry::HistSummary {
                count: self.frames_completed,
                mean: self.avg_flow_time.as_ns() as f64,
                min: self.min_flow_time.as_ns() as f64,
                max: self.max_flow_time.as_ns() as f64,
                p50: self.p50_flow_time.as_ns() as f64,
                p95: self.p95_flow_time.as_ns() as f64,
                p99: self.p99_flow_time.as_ns() as f64,
            },
        );

        for fr in &self.flows {
            reg.add(&format!("flow.{}.sourced", fr.name), fr.frames_sourced);
            reg.add(&format!("flow.{}.completed", fr.name), fr.frames_completed);
            reg.add(&format!("flow.{}.violations", fr.name), fr.violations);
            reg.value_set(
                &format!("flow.{}.avg_flow_time_ms", fr.name),
                fr.avg_flow_time.as_secs() * 1e3,
            );
            reg.value_set(
                &format!("flow.{}.p95_flow_time_ms", fr.name),
                fr.p95_flow_time.as_secs() * 1e3,
            );
        }
        for ip in &self.ips {
            reg.value_set(
                &format!("ip.{}.utilization", ip.kind.abbrev()),
                ip.utilization,
            );
            reg.add(&format!("ip.{}.frames", ip.kind.abbrev()), ip.frames);
            reg.add(
                &format!("ip.{}.context_switches", ip.kind.abbrev()),
                ip.context_switches,
            );
        }

        // The DRAM bandwidth timeline becomes a time-weighted gauge: one
        // sample per 1 ms window.
        for (i, &w) in self.mem_bw_windows_gbps.iter().enumerate() {
            reg.gauge_set("mem.bw_gbps", SimTime::from_ms(i as u64), w);
        }

        reg.snapshot(SimTime::ZERO + self.duration)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn record() -> FrameRecord {
        FrameRecord::new(SimTime::from_ms(0), SimTime::from_ms(16), 2)
    }

    #[test]
    fn violation_logic() {
        let mut r = record();
        assert!(!r.violated(SimTime::from_ms(10)), "deadline not passed yet");
        assert!(r.violated(SimTime::from_ms(17)), "unfinished past deadline");
        r.finished = Some(SimTime::from_ms(12));
        assert!(!r.violated(SimTime::from_ms(100)));
        assert!(!r.late());
        r.finished = Some(SimTime::from_ms(20));
        assert!(r.late());
        assert!(
            r.violated(SimTime::from_ms(15)),
            "late even before now passes deadline"
        );
    }

    #[test]
    fn dropped_frames_always_violate() {
        let mut r = record();
        r.dropped_at_source = true;
        assert!(r.violated(SimTime::ZERO));
    }

    #[test]
    fn flow_time_is_chain_makespan() {
        let mut r = record();
        assert_eq!(r.flow_time(), None);
        r.stage_spans[0] = Some((SimTime::from_ms(2), SimTime::from_ms(5)));
        r.stage_spans[1] = Some((SimTime::from_ms(4), SimTime::from_ms(11)));
        r.finished = Some(SimTime::from_ms(11));
        // Makespan from first stage begin (2ms) to finish (11ms).
        assert_eq!(r.flow_time(), Some(SimDelta::from_ms(9)));
    }

    #[test]
    fn report_rates() {
        let rep = SystemReport {
            scheme: Scheme::Baseline,
            duration: SimDelta::from_ms(500),
            energy: EnergyBreakdown {
                cpu_j: 0.05,
                dram_j: 0.05,
                ip_j: 0.0,
                sa_j: 0.0,
                buffer_j: 0.0,
            },
            frames_sourced: 100,
            frames_completed: 90,
            frames_violated: 10,
            frames_dropped_at_source: 2,
            interrupts: 250,
            rollbacks: 0,
            cpu_active_ns: 200_000_000,
            cpu_instructions: 1,
            cpu_energy_j: 0.05,
            background_cpu_j: 0.0,
            flows: vec![],
            ips: vec![],
            mem_avg_gbps: 1.0,
            mem_frac_above_80pct: 0.0,
            mem_bw_windows_gbps: vec![],
            mem_bytes: 0,
            sa_bytes: 0,
            avg_flow_time: SimDelta::from_ms(10),
            min_flow_time: SimDelta::from_ms(5),
            p50_flow_time: SimDelta::from_ms(9),
            p95_flow_time: SimDelta::from_ms(14),
            p99_flow_time: SimDelta::from_ms(15),
            max_flow_time: SimDelta::from_ms(16),
            events: 0,
        };
        assert!((rep.energy_per_frame_mj() - 1.0).abs() < 1e-12);
        assert!((rep.violation_rate() - 0.1).abs() < 1e-12);
        assert!((rep.irq_per_100ms() - 50.0).abs() < 1e-9);
        assert!((rep.cpu_ms_per_frame() - 2.0).abs() < 1e-12);
    }

    #[test]
    fn flow_report_rate() {
        let fr = FlowReport {
            name: "x".into(),
            frames_sourced: 50,
            frames_completed: 45,
            violations: 5,
            drops_at_source: 0,
            avg_flow_time: SimDelta::from_ms(8),
            p95_flow_time: SimDelta::from_ms(12),
            avg_cpu_per_frame: SimDelta::from_us(500),
        };
        assert!((fr.violation_rate() - 0.1).abs() < 1e-12);
    }
}
