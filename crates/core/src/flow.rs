//! Application flows: periodic frame streams through a chain of IPs.
//!
//! A [`FlowSpec`] mirrors one row fragment of the paper's Table 1 — e.g.
//! the video player's `CPU - VD - DC` — annotated with frame geometry
//! (bytes in/out per stage), frame rate, deadline policy, and the burst
//! gating that interactive (game) flows need (paper §4.3).

use desim::{SimDelta, SimTime};
use soc::IpKind;

/// Where a flow's frames originate.
#[derive(Debug, Clone, PartialEq)]
pub enum SourceKind {
    /// Software-produced data resident in DRAM (demuxed bitstream, game
    /// state, PCM buffers). The first IP stage reads it from memory in
    /// every scheme, and the CPU runs a preparation task per dispatch.
    /// Such flows may be dispatched ahead of their presentation schedule
    /// (the data already exists), which is what makes playback bursts
    /// possible (paper §4.3).
    Cpu {
        /// Per-frame preparation time on the CPU, ns.
        prep_ns: u64,
        /// Per-frame preparation instructions.
        prep_instructions: u64,
    },
    /// A sensor (camera, microphone): frames become available in real
    /// time, one per period; bursts must *accumulate* before dispatch.
    Sensor,
}

/// One IP stage of a flow.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StageSpec {
    /// The IP executing this stage.
    pub ip: IpKind,
    /// Bytes this stage produces per frame (0 for sinks).
    pub out_bytes: u64,
    /// Bytes this stage reads from DRAM per frame *in addition to* its
    /// chain input, in every scheme — codec reference frames for motion
    /// compensation/estimation, GPU textures. IP-to-IP chaining removes
    /// inter-stage traffic but not these accesses.
    pub side_read_bytes: u64,
}

/// Burst gating for interactive flows (paper §4.3, Figs 5–6): while the
/// user is interacting, bursting is disabled for responsiveness.
#[derive(Debug, Clone, PartialEq, Default)]
pub enum BurstGate {
    /// Never gate (video playback/encode).
    #[default]
    Open,
    /// Bursting disabled during these absolute intervals (touch/flick
    /// windows from a trace).
    Blocked(Vec<(SimTime, SimTime)>),
}

impl BurstGate {
    /// Maximum burst size allowed at instant `t` given the configured cap.
    pub fn allowed(&self, t: SimTime, cap: u32) -> u32 {
        match self {
            BurstGate::Open => cap,
            BurstGate::Blocked(windows) => {
                if windows.iter().any(|&(a, b)| t >= a && t < b) {
                    1
                } else {
                    cap
                }
            }
        }
    }

    /// The first interaction beginning strictly inside `(from, until)`, if
    /// any — the touch that would interrupt a burst speculated over that
    /// span and force a rollback (paper Fig 11).
    pub fn first_touch_within(&self, from: SimTime, until: SimTime) -> Option<SimTime> {
        match self {
            BurstGate::Open => None,
            BurstGate::Blocked(windows) => windows
                .iter()
                .map(|&(a, _)| a)
                .filter(|&a| a > from && a < until)
                .min(),
        }
    }
}

/// A periodic frame flow through a chain of IPs.
///
/// Build with [`FlowSpec::builder`]; see the [crate example](crate).
#[derive(Debug, Clone, PartialEq)]
pub struct FlowSpec {
    /// Human-readable name.
    pub name: String,
    /// Frame origin.
    pub source: SourceKind,
    /// Bytes the first stage reads from DRAM per frame (0 for sensors).
    pub src_bytes: u64,
    /// The IP chain, in order.
    pub stages: Vec<StageSpec>,
    /// Frames per second.
    pub fps: f64,
    /// Deadline, in periods after a frame's nominal source time (1.0 for
    /// display flows; larger for latency-tolerant record/upload flows).
    pub deadline_periods: f64,
    /// Burst gating (interactive flows).
    pub gate: BurstGate,
    /// Per-frame source-size multipliers, cycled over the frame index —
    /// the GOP structure of a video stream (independent frames are several
    /// times larger than predicted frames). Empty means constant size.
    pub src_size_pattern: Vec<f64>,
    /// Upper bound on this flow's burst size regardless of the platform's
    /// configured burst (paper §4.3: bursts are sized to fit a GOP).
    pub burst_cap: Option<u32>,
}

impl FlowSpec {
    /// Starts building a flow.
    pub fn builder(name: impl Into<String>) -> FlowSpecBuilder {
        FlowSpecBuilder {
            name: name.into(),
            source: SourceKind::Cpu {
                prep_ns: 200_000,
                prep_instructions: 240_000,
            },
            src_bytes: 0,
            stages: Vec::new(),
            fps: 60.0,
            deadline_periods: 1.0,
            gate: BurstGate::Open,
            src_size_pattern: Vec::new(),
            burst_cap: None,
        }
    }

    /// Source bytes for frame `k`, applying the GOP size pattern.
    pub fn src_bytes_for(&self, frame: u64) -> u64 {
        if self.src_size_pattern.is_empty() {
            return self.src_bytes;
        }
        let m = self.src_size_pattern[(frame as usize) % self.src_size_pattern.len()];
        ((self.src_bytes as f64 * m) as u64).max(1)
    }

    /// The frame period.
    pub fn period(&self) -> SimDelta {
        SimDelta::from_secs_f64(1.0 / self.fps)
    }

    /// Bytes entering stage `i` per frame.
    pub fn in_bytes(&self, i: usize) -> u64 {
        if i == 0 {
            self.src_bytes
        } else {
            self.stages[i - 1].out_bytes
        }
    }

    /// The larger of a stage's input/output footprint (compute basis).
    pub fn footprint(&self, i: usize) -> u64 {
        self.in_bytes(i).max(self.stages[i].out_bytes)
    }

    /// Number of stages.
    pub fn num_stages(&self) -> usize {
        self.stages.len()
    }

    /// How many frame records a run of `duration` is expected to create:
    /// one per period, plus `lookahead` for frames sourced ahead of the
    /// presentation schedule (speculation is bounded by the source-queue
    /// depth), at most `MAX_FRAMES_HINT`. A sizing hint — the record table
    /// still grows if exceeded.
    pub fn frames_hint(&self, duration: SimDelta, lookahead: u32) -> usize {
        let period_ns = self.period().as_ns().max(1);
        let frames = (duration.as_ns() / period_ns).saturating_add(u64::from(lookahead) + 2);
        frames.min(MAX_FRAMES_HINT) as usize
    }

    /// Validates the flow.
    ///
    /// # Errors
    ///
    /// Returns a description of the first violated constraint.
    pub fn validate(&self) -> Result<(), String> {
        if self.stages.is_empty() {
            return Err(format!("{}: flow needs at least one stage", self.name));
        }
        if !(self.fps.is_finite() && self.fps > 0.0) {
            return Err(format!("{}: bad fps {}", self.name, self.fps));
        }
        if self.deadline_periods <= 0.0 {
            return Err(format!("{}: nonpositive deadline", self.name));
        }
        match self.source {
            SourceKind::Sensor => {
                if !self.stages[0].ip.is_sensor() {
                    return Err(format!(
                        "{}: sensor-sourced flow must start at a sensor IP",
                        self.name
                    ));
                }
                if self.src_bytes != 0 {
                    return Err(format!(
                        "{}: sensor flows read nothing from DRAM",
                        self.name
                    ));
                }
            }
            SourceKind::Cpu { .. } => {
                if self.src_bytes == 0 {
                    return Err(format!(
                        "{}: CPU-sourced flow needs source bytes in DRAM",
                        self.name
                    ));
                }
            }
        }
        // Every stage must move some data.
        for (i, _s) in self.stages.iter().enumerate() {
            if self.footprint(i) == 0 {
                return Err(format!("{}: stage {} moves no data", self.name, i));
            }
        }
        // A flow visits an IP at most once (as in all of the paper's
        // Table 1 flows): a chain revisiting an IP would deadlock on its
        // own single-lane buffer under IP-to-IP communication.
        for i in 0..self.stages.len() {
            for j in i + 1..self.stages.len() {
                if self.stages[i].ip == self.stages[j].ip {
                    return Err(format!(
                        "{}: IP {} appears twice in the chain",
                        self.name, self.stages[i].ip
                    ));
                }
            }
        }
        Ok(())
    }
}

/// Builder for [`FlowSpec`] ([C-BUILDER]).
#[derive(Debug, Clone)]
pub struct FlowSpecBuilder {
    name: String,
    source: SourceKind,
    src_bytes: u64,
    stages: Vec<StageSpec>,
    fps: f64,
    deadline_periods: f64,
    gate: BurstGate,
    src_size_pattern: Vec<f64>,
    burst_cap: Option<u32>,
}

impl FlowSpecBuilder {
    /// Sets the frame rate (default 60).
    pub fn fps(mut self, fps: f64) -> Self {
        self.fps = fps;
        self
    }

    /// CPU-sourced flow: the first stage reads `src_bytes` per frame from
    /// DRAM, and the CPU spends `prep_ns`/`prep_instructions` per frame
    /// preparing it.
    pub fn cpu_source(mut self, src_bytes: u64, prep_ns: u64, prep_instructions: u64) -> Self {
        self.source = SourceKind::Cpu {
            prep_ns,
            prep_instructions,
        };
        self.src_bytes = src_bytes;
        self
    }

    /// Sensor-sourced flow (first stage must be CAM or MIC).
    pub fn sensor_source(mut self) -> Self {
        self.source = SourceKind::Sensor;
        self.src_bytes = 0;
        self
    }

    /// Appends a stage producing `out_bytes` per frame (0 for the sink).
    pub fn stage(mut self, ip: IpKind, out_bytes: u64) -> Self {
        self.stages.push(StageSpec {
            ip,
            out_bytes,
            side_read_bytes: 0,
        });
        self
    }

    /// Appends a stage that additionally reads `side_read_bytes` from DRAM
    /// per frame in every scheme (codec references, textures).
    pub fn stage_with_side_read(
        mut self,
        ip: IpKind,
        out_bytes: u64,
        side_read_bytes: u64,
    ) -> Self {
        self.stages.push(StageSpec {
            ip,
            out_bytes,
            side_read_bytes,
        });
        self
    }

    /// Sets the deadline in periods (default 1.0).
    pub fn deadline_periods(mut self, p: f64) -> Self {
        self.deadline_periods = p;
        self
    }

    /// Sets burst gating windows (interactive flows).
    pub fn gate(mut self, gate: BurstGate) -> Self {
        self.gate = gate;
        self
    }

    /// Sets the per-frame source-size multipliers (GOP structure).
    pub fn src_size_pattern(mut self, pattern: Vec<f64>) -> Self {
        self.src_size_pattern = pattern;
        self
    }

    /// Caps this flow's burst size (e.g. at its GOP length).
    pub fn burst_cap(mut self, cap: u32) -> Self {
        self.burst_cap = Some(cap.max(1));
        self
    }

    /// Finalizes the flow.
    ///
    /// # Panics
    ///
    /// Panics if the flow fails [`FlowSpec::validate`].
    pub fn build(self) -> FlowSpec {
        let flow = FlowSpec {
            name: self.name,
            source: self.source,
            src_bytes: self.src_bytes,
            stages: self.stages,
            fps: self.fps,
            deadline_periods: self.deadline_periods,
            gate: self.gate,
            src_size_pattern: self.src_size_pattern,
            burst_cap: self.burst_cap,
        };
        if let Err(e) = flow.validate() {
            panic!("invalid flow: {e}");
        }
        flow
    }
}

/// Cap on [`FlowSpec::frames_hint`], which sizes preallocations: far above
/// any benchmark horizon (at most 300 ms at 60 fps), yet small enough that
/// the largest horizon a `SimDelta` holds cannot abort on allocation.
const MAX_FRAMES_HINT: u64 = 1 << 16;

#[cfg(test)]
mod tests {
    use super::*;

    fn video() -> FlowSpec {
        FlowSpec::builder("vid")
            .fps(60.0)
            .cpu_source(500_000, 300_000, 360_000)
            .stage(IpKind::Vd, 12_441_600)
            .stage(IpKind::Dc, 0)
            .build()
    }

    #[test]
    fn byte_plumbing() {
        let f = video();
        assert_eq!(f.in_bytes(0), 500_000);
        assert_eq!(f.in_bytes(1), 12_441_600);
        assert_eq!(f.footprint(0), 12_441_600);
        assert_eq!(f.footprint(1), 12_441_600);
        assert_eq!(f.num_stages(), 2);
        assert_eq!(f.period(), SimDelta::from_secs_f64(1.0 / 60.0));
    }

    #[test]
    fn frames_hint_is_capped() {
        let horizon = SimDelta::checked_from_ms(18_446_744_073_709).expect("largest horizon");
        assert!(video().frames_hint(horizon, u32::MAX) <= MAX_FRAMES_HINT as usize);
    }

    #[test]
    fn sensor_flow_validation() {
        let cam = FlowSpec::builder("rec")
            .sensor_source()
            .stage(IpKind::Cam, 6_220_800)
            .stage(IpKind::Ve, 100_000)
            .stage(IpKind::Mmc, 0)
            .deadline_periods(8.0)
            .build();
        assert_eq!(cam.in_bytes(0), 0);
        assert_eq!(cam.footprint(0), 6_220_800);
    }

    #[test]
    #[should_panic(expected = "must start at a sensor IP")]
    fn sensor_flow_must_start_at_sensor() {
        let _ = FlowSpec::builder("bad")
            .sensor_source()
            .stage(IpKind::Vd, 100)
            .build();
    }

    #[test]
    #[should_panic(expected = "needs source bytes")]
    fn cpu_flow_needs_source_bytes() {
        let _ = FlowSpec::builder("bad")
            .cpu_source(0, 1, 1)
            .stage(IpKind::Vd, 100)
            .build();
    }

    #[test]
    #[should_panic(expected = "at least one stage")]
    fn empty_chain_rejected() {
        let _ = FlowSpec::builder("bad").cpu_source(1, 1, 1).build();
    }

    #[test]
    fn repeated_ip_rejected() {
        let flow = FlowSpec {
            name: "loop".into(),
            source: SourceKind::Cpu {
                prep_ns: 1,
                prep_instructions: 1,
            },
            src_bytes: 100,
            stages: vec![
                StageSpec {
                    ip: IpKind::Gpu,
                    out_bytes: 100,
                    side_read_bytes: 0,
                },
                StageSpec {
                    ip: IpKind::Gpu,
                    out_bytes: 100,
                    side_read_bytes: 0,
                },
            ],
            fps: 30.0,
            deadline_periods: 1.0,
            gate: BurstGate::Open,
            src_size_pattern: Vec::new(),
            burst_cap: None,
        };
        let err = flow.validate().unwrap_err();
        assert!(err.contains("appears twice"), "{err}");
    }

    #[test]
    fn side_reads_are_recorded() {
        let f = FlowSpec::builder("v")
            .cpu_source(100_000, 1, 1)
            .stage_with_side_read(IpKind::Vd, 1_000_000, 1_000_000)
            .stage(IpKind::Dc, 0)
            .build();
        assert_eq!(f.stages[0].side_read_bytes, 1_000_000);
        assert_eq!(f.stages[1].side_read_bytes, 0);
    }

    #[test]
    fn gop_pattern_cycles() {
        let f = FlowSpec::builder("v")
            .cpu_source(100_000, 1, 1)
            .stage(IpKind::Vd, 1_000_000)
            .stage(IpKind::Dc, 0)
            .src_size_pattern(vec![4.0, 0.7, 0.7])
            .burst_cap(3)
            .build();
        assert_eq!(f.src_bytes_for(0), 400_000);
        assert_eq!(f.src_bytes_for(1), 70_000);
        assert_eq!(f.src_bytes_for(3), 400_000, "pattern cycles");
        assert_eq!(f.burst_cap, Some(3));
        // Constant-size flows ignore the pattern path.
        let g = FlowSpec::builder("w")
            .cpu_source(100_000, 1, 1)
            .stage(IpKind::Vd, 1_000_000)
            .stage(IpKind::Dc, 0)
            .build();
        assert_eq!(g.src_bytes_for(17), 100_000);
    }

    #[test]
    fn gate_blocks_interactive_windows() {
        let gate = BurstGate::Blocked(vec![(SimTime::from_ms(10), SimTime::from_ms(20))]);
        assert_eq!(gate.allowed(SimTime::from_ms(5), 5), 5);
        assert_eq!(gate.allowed(SimTime::from_ms(15), 5), 1);
        assert_eq!(gate.allowed(SimTime::from_ms(20), 5), 5, "end exclusive");
        assert_eq!(BurstGate::Open.allowed(SimTime::ZERO, 7), 7);
    }

    #[test]
    fn first_touch_within_window() {
        let gate = BurstGate::Blocked(vec![
            (SimTime::from_ms(10), SimTime::from_ms(11)),
            (SimTime::from_ms(30), SimTime::from_ms(31)),
        ]);
        assert_eq!(
            gate.first_touch_within(SimTime::ZERO, SimTime::from_ms(20)),
            Some(SimTime::from_ms(10))
        );
        assert_eq!(
            gate.first_touch_within(SimTime::from_ms(15), SimTime::from_ms(40)),
            Some(SimTime::from_ms(30))
        );
        assert_eq!(
            gate.first_touch_within(SimTime::from_ms(40), SimTime::from_ms(50)),
            None
        );
        assert_eq!(
            BurstGate::Open.first_touch_within(SimTime::ZERO, SimTime::MAX),
            None
        );
    }
}
