//! The full-system simulator: flows × schemes × platform.
//!
//! One [`SystemSim`] run executes a set of [`FlowSpec`]s on the Table 3
//! platform under one [`Scheme`], producing a [`SystemReport`]. The model
//! is event-driven at *sub-frame* granularity — the granularity at which
//! the paper's virtualized IPs schedule (§5.5) — and captures:
//!
//! * per-frame CPU orchestration (prep, driver setup, interrupt service)
//!   with sleep-state energy,
//! * IP pipelines that fetch input (from DRAM or an upstream lane buffer),
//!   compute, and emit output (to DRAM or a downstream lane buffer over
//!   the System Agent) with *stall-the-sender* flow control,
//! * FR-FCFS LPDDR3 contention,
//! * head-of-line blocking of shared IPs under burst dispatch, and its
//!   elimination by VIP's per-flow lanes + hardware EDF,
//! * QoS deadlines, the source-queue drop limit, and every energy account.
//!
//! ## Execution model per stage
//!
//! A frame at a stage is processed in `n = ceil(footprint / subframe)`
//! rounds. Round `r` consumes `round_in(r)` input bytes, computes for
//! `frame_compute_time / n`, and accumulates `round_out(r)` output bytes,
//! flushed in sub-frame-sized transfers. Input fetches from DRAM are
//! double-buffered (prefetch window of two sub-frames), so an uncontended
//! memory hides behind compute — and a contended one does not, which is
//! exactly the paper's Fig 3 effect.

use std::collections::VecDeque;
#[cfg(feature = "trace")]
use std::rc::Rc;
#[cfg(feature = "trace")]
use std::sync::Arc;

use desim::{Engine, Model, Scheduler, SimDelta, SimTime};
use dram::{Completion, MemOp, MemRequest, MemorySystem};
use soc::{CpuCore, IpConfig, IpKind, IpStats, LaneBuffer, SystemAgent, Task};

use crate::audit::Auditor;
use crate::config::{SchedPolicy, Scheme, SystemConfig};
use crate::flow::{FlowSpec, SourceKind};
use crate::header::HeaderPacket;
use crate::metrics::{FlowReport, FrameRecord, IpReport, SystemReport};
use crate::telem::Tracer;

/// Correlation tag for posted writes (completions are not tracked).
const WRITE_TAG: u64 = u64::MAX;

/// Events of the system simulation (public because [`SystemSim`]
/// implements [`Model`]; construct runs via [`SystemSim::run`] instead of
/// dispatching these directly).
#[derive(Debug, Clone, Copy)]
pub enum Ev {
    /// A flow's source timer fired.
    Source { flow: usize },
    /// A CPU core finished its running task.
    CpuDone { cpu: usize },
    /// The memory system may have completions.
    MemTick,
    /// An IP engine finished one compute round.
    ComputeDone { ip: usize, lane: usize },
    /// A sub-frame transfer landed in a consumer's lane buffer.
    SaArrival { ip: usize, lane: usize, bytes: u64 },
    /// Periodic background (non-media) work arrives at a core.
    Background { cpu: usize },
    /// A touch interrupted a speculated game burst: recompute its
    /// remaining frames (paper Fig 11's `rollback(); play();`).
    Rollback { flow: usize, dispatch: usize },
}

/// CPU task payloads.
#[derive(Debug, Clone, Copy)]
enum CpuPayload {
    Prep {
        flow: usize,
        dispatch: usize,
    },
    Setup {
        flow: usize,
        dispatch: usize,
        stage: usize,
    },
    Irq {
        flow: usize,
        dispatch: usize,
        stage: usize,
    },
    Background,
    Rollback,
}

/// Dispatch counts per event kind, from a counted run
/// ([`RunOptions::counted`]). Shows where the event budget of
/// a simulation goes; the sum equals the engine's dispatch counter.
#[cfg(feature = "trace")]
#[derive(Debug, Clone, Copy, Default)]
pub struct EventCounts {
    /// `Ev::Source` dispatches.
    pub source: u64,
    /// `Ev::CpuDone` dispatches.
    pub cpu_done: u64,
    /// `Ev::MemTick` dispatches.
    pub mem_tick: u64,
    /// `Ev::ComputeDone` dispatches.
    pub compute_done: u64,
    /// `Ev::SaArrival` dispatches.
    pub sa_arrival: u64,
    /// `Ev::Background` dispatches.
    pub background: u64,
    /// `Ev::Rollback` dispatches.
    pub rollback: u64,
}

#[cfg(feature = "trace")]
impl EventCounts {
    fn count(&mut self, ev: &Ev) {
        match ev {
            Ev::Source { .. } => self.source += 1,
            Ev::CpuDone { .. } => self.cpu_done += 1,
            Ev::MemTick => self.mem_tick += 1,
            Ev::ComputeDone { .. } => self.compute_done += 1,
            Ev::SaArrival { .. } => self.sa_arrival += 1,
            Ev::Background { .. } => self.background += 1,
            Ev::Rollback { .. } => self.rollback += 1,
        }
    }

    /// Accumulates another run's counts into this one.
    pub fn add(&mut self, other: &EventCounts) {
        self.source += other.source;
        self.cpu_done += other.cpu_done;
        self.mem_tick += other.mem_tick;
        self.compute_done += other.compute_done;
        self.sa_arrival += other.sa_arrival;
        self.background += other.background;
        self.rollback += other.rollback;
    }

    /// Total dispatches across all kinds.
    pub fn total(&self) -> u64 {
        self.source
            + self.cpu_done
            + self.mem_tick
            + self.compute_done
            + self.sa_arrival
            + self.background
            + self.rollback
    }
}

/// What a tracked memory completion means.
#[derive(Debug, Clone, Copy)]
struct FetchTag {
    ip: usize,
    lane: usize,
    bytes: u64,
    side: bool,
}

/// Generational slab of in-flight fetch tags. The `u64` carried through
/// the memory system encodes `generation << 32 | slot`, so resolving a
/// completion is an array index plus a generation check instead of a hash
/// lookup — this is the hottest edge of the simulation (one alloc/take
/// pair per DRAM fetch). Freed slots bump their generation, so a stale
/// key (slot since reused) misses instead of aliasing ([`FetchSlab::take`]
/// returns `None`). [`WRITE_TAG`] (`u64::MAX`) is unreachable: it would
/// need four billion live slots.
#[derive(Debug, Default, Clone)]
struct FetchSlab {
    tags: Vec<FetchTag>,
    gens: Vec<u32>,
    free: Vec<u32>,
}

impl FetchSlab {
    /// Stores a tag, returning its `generation << 32 | slot` key.
    fn alloc(&mut self, tag: FetchTag) -> u64 {
        match self.free.pop() {
            Some(slot) => {
                self.tags[slot as usize] = tag;
                (u64::from(self.gens[slot as usize]) << 32) | u64::from(slot)
            }
            None => {
                let slot = self.tags.len() as u32;
                self.tags.push(tag);
                self.gens.push(0);
                u64::from(slot)
            }
        }
    }

    /// Rewinds to the empty state, keeping the slab's allocations (cell
    /// reuse). Clearing `tags`/`gens` — rather than refilling the free
    /// list — makes a reset slab hand out exactly the key sequence a
    /// fresh slab would, so reuse is invisible to anything that stores
    /// keys.
    fn reset(&mut self) {
        self.tags.clear();
        self.gens.clear();
        self.free.clear();
    }

    /// Removes and returns the tag under `key`; `None` if the key's
    /// generation is stale (the slot was freed and reused) or out of range.
    fn take(&mut self, key: u64) -> Option<FetchTag> {
        let slot = key as u32 as usize;
        let generation = (key >> 32) as u32;
        if slot >= self.tags.len() || self.gens[slot] != generation {
            return None;
        }
        self.gens[slot] = generation.wrapping_add(1);
        self.free.push(slot as u32);
        Some(self.tags[slot])
    }
}

/// One super-request: a set of frames of one flow moving through its chain.
///
/// Slots are recycled through `SystemSim::free_dispatches` once every
/// reference is gone, so `frames`/`stage_done` capacity is reused and the
/// steady state allocates nothing. References are counted explicitly:
/// one for the live CPU payload chain (Prep → Setup → Irq hand the same
/// ref along), one per stage enqueued at an IP (released when the stage
/// retires the item, or handed to the Irq payload it raises), and one per
/// scheduled Rollback event.
#[derive(Debug, Clone)]
struct Dispatch {
    flow: usize,
    frames: Vec<u64>,
    /// Frames completed per stage — the "doorbell" state that lets a
    /// later stage of a FrameBurst dispatch start a frame as soon as the
    /// earlier stage has written it to DRAM (no CPU involvement).
    stage_done: Vec<u32>,
    /// Creation order, monotonic across slot reuse — the FIFO scheduling
    /// key (slot indices stopped being creation-ordered with recycling).
    seq: u64,
    /// Outstanding references; the slot is freed when this reaches zero.
    refs: u32,
}

/// A queued super-request at one stage.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct WorkItem {
    dispatch: usize,
    stage: usize,
}

/// Where a stage's input comes from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum InputMode {
    /// Sensor: data is generated in place.
    None,
    /// Fetched from DRAM (source reads, and inter-stage data in
    /// non-chained schemes).
    Dram,
    /// Arrives in the lane buffer from the upstream IP.
    Upstream,
}

/// The scheduler-visible half of a lane's active item (SoA: one array per
/// IP). The eligibility scan in [`SystemSim::try_start_compute`], the
/// doorbell check, and the EDF/FIFO picks run on every pump of every IP
/// and read *only* this struct — the deadline of the current frame and
/// the dispatch's FIFO seq are cached here so the picks never chase
/// `dispatches`/`records` pointers.
#[derive(Debug, Clone, Copy)]
struct LaneSched {
    dispatch: usize,
    stage: usize,
    frame_pos: usize,
    input: InputMode,
    /// Cached `dispatches[dispatch].seq` (FIFO pick key).
    seq: u64,
    /// Cached `records[frame].deadline` of the current frame (EDF pick
    /// key); refreshed when the item activates and on frame advance.
    deadline: SimTime,
    // Per-frame geometry and progress the eligibility test needs.
    in_total: u64,
    side_total: u64,
    n_rounds: u64,
    rounds_computed: u64,
    in_ready: u64,
    side_ready: u64,
    out_pending: u64,
}

impl LaneSched {
    /// Placeholder for an inactive lane (never read while inactive).
    fn idle() -> Self {
        LaneSched {
            dispatch: 0,
            stage: 0,
            frame_pos: 0,
            input: InputMode::None,
            seq: 0,
            deadline: SimTime::ZERO,
            in_total: 0,
            side_total: 0,
            n_rounds: 0,
            rounds_computed: 0,
            in_ready: 0,
            side_ready: 0,
            out_pending: 0,
        }
    }
}

/// The transfer-bookkeeping half of a lane's active item (SoA): fetch and
/// flush progress, frame timing — fields the per-IP scheduler scan never
/// reads, kept out of its cache lines.
#[derive(Debug, Clone, Copy)]
struct LaneXfer {
    flow: usize,
    out_total: u64,
    round_compute: SimDelta,
    in_requested: u64,
    in_consumed: u64,
    side_requested: u64,
    side_consumed: u64,
    inflight_fetches: u32,
    holds_active: bool,
    frame_begin: Option<SimTime>,
}

impl LaneXfer {
    /// Placeholder for an inactive lane (never read while inactive).
    fn idle() -> Self {
        LaneXfer {
            flow: 0,
            out_total: 0,
            round_compute: SimDelta::ZERO,
            in_requested: 0,
            in_consumed: 0,
            side_requested: 0,
            side_consumed: 0,
            inflight_fetches: 0,
            holds_active: false,
            frame_begin: None,
        }
    }
}

/// One IP core at run time. Lane state is struct-of-arrays: parallel
/// vectors indexed by lane, so each walk touches only the array it needs
/// (queue heads on activation, [`LaneSched`] in the scheduler scan,
/// buffers on arrival) instead of dragging whole-lane structs through the
/// cache.
#[derive(Debug, Clone)]
struct IpRt {
    cfg: IpConfig,
    stats: IpStats,
    buffers: Vec<LaneBuffer>,
    queues: Vec<VecDeque<WorkItem>>,
    /// Whether `sched[lane]`/`xfer[lane]` hold a live item.
    active: Vec<bool>,
    sched: Vec<LaneSched>,
    xfer: Vec<LaneXfer>,
    engine_busy: bool,
    engine_lane: Option<usize>,
    /// Producers (ip, lane) blocked emitting into this IP.
    waiters: Vec<(usize, usize)>,
}

/// Per-flow frame bookkeeping with the geometry interned once.
///
/// Every frame of a flow shares the same nominal-time arithmetic —
/// `sourced(k) = phase + period·k`, `deadline(k) = sourced(k) + delta` —
/// and the same stage count, so a [`FrameRecord`] per frame would store
/// (and heap-allocate, for `stage_spans`) mostly redundant geometry. The
/// ledger interns that geometry once per flow and keeps only per-frame
/// progress as flat arrays indexed by frame number, with every frame's
/// stage spans packed into one arena at `frame·stages + stage`. Callers
/// that need a full [`FrameRecord`] view (flow traces) get one from
/// [`materialize`](FrameLedger::materialize).
#[derive(Debug, Clone)]
struct FrameLedger {
    /// Interned geometry: every frame's nominal times derive from these.
    phase: SimDelta,
    period: SimDelta,
    deadline_delta: SimDelta,
    stages: usize,
    // Per-frame progress (SoA, indexed by frame number).
    dispatched: Vec<Option<SimTime>>,
    finished: Vec<Option<SimTime>>,
    cpu_ns: Vec<u64>,
    dropped: Vec<bool>,
    /// Stage-span arena: `frame * stages + stage`.
    spans: Vec<Option<(SimTime, SimTime)>>,
}

impl FrameLedger {
    fn new(
        phase: SimDelta,
        period: SimDelta,
        deadline_delta: SimDelta,
        stages: usize,
        frames_hint: usize,
    ) -> Self {
        FrameLedger {
            phase,
            period,
            deadline_delta,
            stages,
            dispatched: Vec::with_capacity(frames_hint),
            finished: Vec::with_capacity(frames_hint),
            cpu_ns: Vec::with_capacity(frames_hint),
            dropped: Vec::with_capacity(frames_hint),
            spans: Vec::with_capacity(frames_hint * stages),
        }
    }

    /// Frames tracked so far.
    fn len(&self) -> usize {
        self.dispatched.len()
    }

    /// Nominal source instant of frame `k` — interned arithmetic, no
    /// per-frame storage.
    fn sourced(&self, k: u64) -> SimTime {
        SimTime::ZERO + self.phase + self.period * k
    }

    /// QoS deadline of frame `k`.
    fn deadline(&self, k: u64) -> SimTime {
        self.sourced(k) + self.deadline_delta
    }

    /// Appends one un-dispatched frame.
    fn push_frame(&mut self) {
        self.dispatched.push(None);
        self.finished.push(None);
        self.cpu_ns.push(0);
        self.dropped.push(false);
        self.spans.resize(self.spans.len() + self.stages, None);
    }

    fn mark_dispatched(&mut self, k: u64, at: SimTime) {
        self.dispatched[k as usize] = Some(at);
    }

    fn mark_dropped(&mut self, k: u64) {
        self.dropped[k as usize] = true;
    }

    fn mark_finished(&mut self, k: u64, at: SimTime) {
        self.finished[k as usize] = Some(at);
    }

    fn add_cpu_ns(&mut self, k: u64, ns: u64) {
        self.cpu_ns[k as usize] += ns;
    }

    fn set_span(&mut self, k: u64, stage: usize, begin: SimTime, end: SimTime) {
        self.spans[k as usize * self.stages + stage] = Some((begin, end));
    }

    fn dropped(&self, k: u64) -> bool {
        self.dropped[k as usize]
    }

    fn cpu_ns(&self, k: u64) -> u64 {
        self.cpu_ns[k as usize]
    }

    fn spans_of(&self, k: u64) -> &[Option<(SimTime, SimTime)>] {
        let base = k as usize * self.stages;
        &self.spans[base..base + self.stages]
    }

    /// [`FrameRecord::violated`] without materializing the record.
    fn violated(&self, k: u64, now: SimTime) -> bool {
        if self.dropped[k as usize] {
            return true;
        }
        match self.finished[k as usize] {
            Some(f) => f > self.deadline(k),
            None => now > self.deadline(k),
        }
    }

    /// [`FrameRecord::flow_time`] without materializing the record.
    fn flow_time(&self, k: u64) -> Option<SimDelta> {
        let finished = self.finished[k as usize]?;
        let begin = self
            .spans_of(k)
            .iter()
            .flatten()
            .map(|s| s.0)
            .min()
            .or(self.dispatched[k as usize])?;
        Some(finished.since(begin))
    }

    /// Builds the full [`FrameRecord`] view of frame `k` (flow traces).
    fn materialize(&self, k: u64) -> FrameRecord {
        FrameRecord {
            sourced: self.sourced(k),
            deadline: self.deadline(k),
            dispatched: self.dispatched[k as usize],
            stage_spans: self.spans_of(k).to_vec(),
            cpu_ns: self.cpu_ns[k as usize],
            finished: self.finished[k as usize],
            dropped_at_source: self.dropped[k as usize],
        }
    }

    /// Forgets every frame, keeping the allocations (cell reuse).
    fn reset(&mut self) {
        self.dispatched.clear();
        self.finished.clear();
        self.cpu_ns.clear();
        self.dropped.clear();
        self.spans.clear();
    }
}

/// Run-time state of one flow.
#[derive(Debug, Clone)]
struct FlowRt {
    spec: FlowSpec,
    core: usize,
    phase: SimDelta,
    next_frame: u64,
    in_flight: u32,
    backlog: Vec<u64>,
    ledger: FrameLedger,
    /// Lane index at each stage's IP.
    lane_at: Vec<usize>,
}

/// The full-system simulation (a [`desim::Model`]).
///
/// Use [`SystemSim::run`]; see the [crate example](crate).
#[derive(Debug)]
pub struct SystemSim {
    cfg: SystemConfig,
    flows: Vec<FlowRt>,
    ips: Vec<IpRt>,
    cpus: Vec<CpuCore<CpuPayload>>,
    mem: MemorySystem,
    agent: SystemAgent,
    dispatches: Vec<Dispatch>,
    /// Retired [`Dispatch`] slots awaiting reuse.
    free_dispatches: Vec<usize>,
    /// Next [`Dispatch::seq`] to assign.
    dispatch_seq: u64,
    fetch_tags: FetchSlab,
    mem_tick_at: Option<SimTime>,
    /// MemTick events fired, and how many of those were stale (superseded
    /// by an earlier re-arm). Diagnostics only — never reported.
    mem_ticks_fired: u64,
    mem_ticks_stale: u64,
    /// Compatibility switch for tests: re-poll the memory system on stale
    /// MemTicks (the pre-optimization schedule) instead of skipping them.
    eager_mem_poll: bool,
    kick_queue: Vec<usize>,
    /// Per-IP "already in `kick_queue`" flag — O(1) dedup instead of a
    /// linear scan on every kick.
    kick_queued: Vec<bool>,
    /// Scratch buffers reused across events so the hot path allocates
    /// nothing in steady state.
    scratch_eligible: Vec<usize>,
    scratch_chain: Vec<IpKind>,
    scratch_completions: Vec<Completion>,
    scratch_frames: Vec<u64>,
    interrupts: u64,
    /// Burst rollbacks performed (paper Fig 11).
    pub rollbacks: u64,
    buffer_bytes_streamed: u64,
    bg_active_ns: u64,
    bg_instructions: u64,
    end: SimTime,
    /// Telemetry facade: a zero-sized no-op unless the `trace` feature is
    /// on *and* the run was started via `runner().traced(cap)`.
    tracer: Tracer,
    /// Sanitizer facade: a zero-sized no-op unless the `audit` feature is
    /// on *and* the run was started via `runner().audited()`.
    audit: Auditor,
}

/// Manual so [`Clone::clone_from`] can reuse the destination's
/// allocations — [`SimCell::restore`] rewinds a warm cell into a
/// [`SimSnapshot`] without reallocating its vectors, mirroring the
/// in-place [`SystemSim::reset`] plumbing. The exhaustive destructure
/// makes adding a field without cloning it a compile error.
// clone_on_copy: the tracer/auditor facades are Copy only when their
// features are off; the `.clone()` calls are real under trace/audit.
#[allow(clippy::clone_on_copy)]
impl Clone for SystemSim {
    fn clone(&self) -> Self {
        SystemSim {
            cfg: self.cfg.clone(),
            flows: self.flows.clone(),
            ips: self.ips.clone(),
            cpus: self.cpus.clone(),
            mem: self.mem.clone(),
            agent: self.agent.clone(),
            dispatches: self.dispatches.clone(),
            free_dispatches: self.free_dispatches.clone(),
            dispatch_seq: self.dispatch_seq,
            fetch_tags: self.fetch_tags.clone(),
            mem_tick_at: self.mem_tick_at,
            mem_ticks_fired: self.mem_ticks_fired,
            mem_ticks_stale: self.mem_ticks_stale,
            eager_mem_poll: self.eager_mem_poll,
            kick_queue: self.kick_queue.clone(),
            kick_queued: self.kick_queued.clone(),
            scratch_eligible: self.scratch_eligible.clone(),
            scratch_chain: self.scratch_chain.clone(),
            scratch_completions: self.scratch_completions.clone(),
            scratch_frames: self.scratch_frames.clone(),
            interrupts: self.interrupts,
            rollbacks: self.rollbacks,
            buffer_bytes_streamed: self.buffer_bytes_streamed,
            bg_active_ns: self.bg_active_ns,
            bg_instructions: self.bg_instructions,
            end: self.end,
            tracer: self.tracer.clone(),
            audit: self.audit.clone(),
        }
    }

    fn clone_from(&mut self, src: &Self) {
        let SystemSim {
            cfg,
            flows,
            ips,
            cpus,
            mem,
            agent,
            dispatches,
            free_dispatches,
            dispatch_seq,
            fetch_tags,
            mem_tick_at,
            mem_ticks_fired,
            mem_ticks_stale,
            eager_mem_poll,
            kick_queue,
            kick_queued,
            scratch_eligible,
            scratch_chain,
            scratch_completions,
            scratch_frames,
            interrupts,
            rollbacks,
            buffer_bytes_streamed,
            bg_active_ns,
            bg_instructions,
            end,
            tracer,
            audit,
        } = src;
        self.cfg.clone_from(cfg);
        self.flows.clone_from(flows);
        self.ips.clone_from(ips);
        self.cpus.clone_from(cpus);
        self.mem.clone_from(mem);
        self.agent.clone_from(agent);
        self.dispatches.clone_from(dispatches);
        self.free_dispatches.clone_from(free_dispatches);
        self.dispatch_seq = *dispatch_seq;
        self.fetch_tags.clone_from(fetch_tags);
        self.mem_tick_at = *mem_tick_at;
        self.mem_ticks_fired = *mem_ticks_fired;
        self.mem_ticks_stale = *mem_ticks_stale;
        self.eager_mem_poll = *eager_mem_poll;
        self.kick_queue.clone_from(kick_queue);
        self.kick_queued.clone_from(kick_queued);
        self.scratch_eligible.clone_from(scratch_eligible);
        self.scratch_chain.clone_from(scratch_chain);
        self.scratch_completions.clone_from(scratch_completions);
        self.scratch_frames.clone_from(scratch_frames);
        self.interrupts = *interrupts;
        self.rollbacks = *rollbacks;
        self.buffer_bytes_streamed = *buffer_bytes_streamed;
        self.bg_active_ns = *bg_active_ns;
        self.bg_instructions = *bg_instructions;
        self.end = *end;
        self.tracer = tracer.clone();
        self.audit = audit.clone();
    }
}

impl SystemSim {
    /// Builds a simulation.
    ///
    /// # Panics
    ///
    /// Panics if the configuration or any flow is invalid, or `flows` is
    /// empty.
    pub fn new(cfg: SystemConfig, flows: Vec<FlowSpec>) -> Self {
        cfg.validate().expect("invalid system config");
        assert!(!flows.is_empty(), "need at least one flow");
        for f in &flows {
            f.validate().expect("invalid flow");
        }

        let lanes_per_ip = cfg.lanes_per_ip();
        let mut ips: Vec<IpRt> = IpKind::ALL
            .iter()
            .map(|&k| IpRt {
                cfg: cfg.ip(k).clone(),
                stats: IpStats::new(),
                buffers: (0..lanes_per_ip)
                    .map(|_| LaneBuffer::new(cfg.buffer_bytes_per_lane))
                    .collect(),
                queues: (0..lanes_per_ip).map(|_| VecDeque::new()).collect(),
                active: vec![false; lanes_per_ip],
                sched: vec![LaneSched::idle(); lanes_per_ip],
                xfer: vec![LaneXfer::idle(); lanes_per_ip],
                engine_busy: false,
                engine_lane: None,
                waiters: Vec::new(),
            })
            .collect();

        // Lane assignment: under VIP each flow gets its own lane at every
        // IP it traverses (wrapping if flows exceed lanes); otherwise all
        // flows share lane 0.
        let mut users_per_ip = vec![0usize; IpKind::ALL.len()];
        let flows_rt: Vec<FlowRt> = flows
            .into_iter()
            .enumerate()
            .map(|(i, spec)| Self::flow_rt(i, spec, &cfg, &mut users_per_ip))
            .collect();
        // Touch ips to silence "never mutated through this binding" pattern
        // in some toolchains; lanes were built above.
        ips.iter_mut().for_each(|_| {});

        // One dispatch per frame is the worst case (burst size 1).
        let dispatches_hint: usize = flows_rt
            .iter()
            .map(|f| f.spec.frames_hint(cfg.duration, cfg.source_queue_limit))
            .sum();
        let end = SimTime::ZERO + cfg.duration;
        SystemSim {
            cpus: (0..cfg.num_cpus)
                .map(|_| CpuCore::new(cfg.cpu.clone()))
                .collect(),
            mem: MemorySystem::new(cfg.dram.clone()),
            agent: SystemAgent::new(cfg.agent.clone()),
            dispatches: Vec::with_capacity(dispatches_hint),
            free_dispatches: Vec::new(),
            dispatch_seq: 0,
            fetch_tags: FetchSlab::default(),
            mem_tick_at: None,
            mem_ticks_fired: 0,
            mem_ticks_stale: 0,
            eager_mem_poll: false,
            kick_queue: Vec::new(),
            kick_queued: vec![false; IpKind::ALL.len()],
            scratch_eligible: Vec::new(),
            scratch_chain: Vec::new(),
            scratch_completions: Vec::new(),
            scratch_frames: Vec::new(),
            interrupts: 0,
            rollbacks: 0,
            buffer_bytes_streamed: 0,
            bg_active_ns: 0,
            bg_instructions: 0,
            end,
            tracer: Tracer::disabled(),
            audit: Auditor::disabled(),
            flows: flows_rt,
            ips,
            cfg,
        }
    }

    /// Seeds the initial source and background events into a fresh engine.
    fn seed(engine: &mut Engine<SystemSim>) {
        // Concurrent events scale with flows (source + rollback timers),
        // lanes (compute/irq chains), and CPU cores (background load);
        // one MemTick is pending at a time. A small per-entity bound
        // pre-sizes the heap past its growth phase.
        let pending_hint = {
            let m = engine.model();
            m.flows.len() * 4
                + m.ips.iter().map(|ip| ip.active.len()).sum::<usize>()
                + m.cpus.len() * 2
                + 8
        };
        engine.scheduler().reserve(pending_hint);
        for i in 0..engine.model().flows.len() {
            let phase = engine.model().flows[i].phase;
            engine
                .scheduler()
                .at(SimTime::ZERO + phase, Ev::Source { flow: i });
        }
        if let Some(bg) = engine.model().cfg.background {
            let ncpus = engine.model().cpus.len();
            for c in 0..ncpus {
                // Stagger cores so background work is spread out.
                let phase = SimDelta::from_ns(bg.period.as_ns() * c as u64 / ncpus as u64);
                engine
                    .scheduler()
                    .at(SimTime::ZERO + phase, Ev::Background { cpu: c });
            }
        }
    }

    /// Builds one flow's run-time slot. The start-of-run state is
    /// established by [`SystemSim::reset_flow_rt`] so construction and
    /// reset cannot drift apart.
    fn flow_rt(i: usize, spec: FlowSpec, cfg: &SystemConfig, users_per_ip: &mut [usize]) -> FlowRt {
        let frames_hint = spec.frames_hint(cfg.duration, cfg.source_queue_limit);
        let stages = spec.num_stages();
        let mut f = FlowRt {
            core: 0,
            phase: SimDelta::ZERO,
            next_frame: 0,
            in_flight: 0,
            backlog: Vec::with_capacity(cfg.source_queue_limit as usize + 1),
            ledger: FrameLedger::new(
                SimDelta::ZERO,
                spec.period(),
                SimDelta::ZERO,
                stages,
                frames_hint,
            ),
            lane_at: Vec::with_capacity(stages),
            spec,
        };
        Self::reset_flow_rt(&mut f, i, None, cfg, users_per_ip);
        f
    }

    /// Rewinds one flow slot to the start-of-run state for (`i`, `spec`),
    /// reusing its allocations. `spec == None` keeps the slot's current
    /// spec (fresh construction). `users_per_ip` carries the running
    /// lane-assignment counters and must visit flows in index order.
    fn reset_flow_rt(
        f: &mut FlowRt,
        i: usize,
        spec: Option<&FlowSpec>,
        cfg: &SystemConfig,
        users_per_ip: &mut [usize],
    ) {
        if let Some(spec) = spec {
            f.spec.clone_from(spec);
        }
        // Lane assignment: under VIP each flow gets its own lane at every
        // IP it traverses (wrapping if flows exceed lanes); otherwise all
        // flows share lane 0.
        let lanes_per_ip = cfg.lanes_per_ip();
        f.lane_at.clear();
        for s in &f.spec.stages {
            let lane = if cfg.scheme.virtualized() {
                let ipx = s.ip.index();
                let lane = users_per_ip[ipx] % lanes_per_ip;
                users_per_ip[ipx] += 1;
                lane
            } else {
                0
            };
            f.lane_at.push(lane);
        }
        let period = f.spec.period();
        let phase = SimDelta::from_ns((i as u64 * 1_700_000) % period.as_ns().max(1));
        f.core = i % cfg.num_cpus;
        f.phase = phase;
        f.next_frame = 0;
        f.in_flight = 0;
        f.backlog.clear();
        f.ledger.phase = phase;
        f.ledger.period = period;
        f.ledger.deadline_delta = SimDelta::from_secs_f64(f.spec.deadline_periods / f.spec.fps);
        f.ledger.stages = f.spec.num_stages();
        f.ledger.reset();
    }

    /// Rewinds this simulation to the state [`SystemSim::new`] would
    /// produce for (`cfg`, `flows`), reusing the previous run's
    /// allocations — the dispatch slab, frame ledgers, fetch slab, lane
    /// SoA arrays, and kick/scratch buffers — instead of reallocating.
    /// A reset cell is bit-for-bit indistinguishable from a fresh one
    /// (refereed on report digests by a unit test and a `forall`
    /// property), which is what lets the matrix runner keep one warm
    /// [`SimCell`] per worker thread.
    ///
    /// # Panics
    ///
    /// Panics if the configuration or any flow is invalid, or `flows` is
    /// empty (the [`SystemSim::new`] contract).
    pub fn reset(&mut self, cfg: &SystemConfig, flows: &[FlowSpec]) {
        cfg.validate().expect("invalid system config");
        assert!(!flows.is_empty(), "need at least one flow");
        for f in flows {
            f.validate().expect("invalid flow");
        }
        self.cfg.clone_from(cfg);

        let lanes_per_ip = self.cfg.lanes_per_ip();
        for (k, ip) in IpKind::ALL.iter().zip(self.ips.iter_mut()) {
            ip.cfg.clone_from(self.cfg.ip(*k));
            ip.stats = IpStats::new();
            ip.buffers.clear();
            for _ in 0..lanes_per_ip {
                ip.buffers
                    .push(LaneBuffer::new(self.cfg.buffer_bytes_per_lane));
            }
            for q in ip.queues.iter_mut() {
                q.clear();
            }
            ip.queues.resize_with(lanes_per_ip, VecDeque::new);
            ip.active.clear();
            ip.active.resize(lanes_per_ip, false);
            ip.sched.clear();
            ip.sched.resize(lanes_per_ip, LaneSched::idle());
            ip.xfer.clear();
            ip.xfer.resize(lanes_per_ip, LaneXfer::idle());
            ip.engine_busy = false;
            ip.engine_lane = None;
            ip.waiters.clear();
        }

        // CPU cores, memory, and System Agent are small relative to the
        // slabs above; fresh construction keeps them trivially identical
        // to a new cell's.
        self.cpus.clear();
        for _ in 0..self.cfg.num_cpus {
            self.cpus.push(CpuCore::new(self.cfg.cpu.clone()));
        }
        self.mem = MemorySystem::new(self.cfg.dram.clone());
        self.agent = SystemAgent::new(self.cfg.agent.clone());

        let mut users_per_ip = [0usize; IpKind::ALL.len()];
        self.flows.truncate(flows.len());
        for (i, spec) in flows.iter().enumerate() {
            if i < self.flows.len() {
                Self::reset_flow_rt(
                    &mut self.flows[i],
                    i,
                    Some(spec),
                    &self.cfg,
                    &mut users_per_ip,
                );
            } else {
                let f = Self::flow_rt(i, spec.clone(), &self.cfg, &mut users_per_ip);
                self.flows.push(f);
            }
        }

        // Keep the dispatch slab: rebuilding the free list in reverse
        // hands out slot ids 0, 1, 2, … exactly as a fresh slab would,
        // with each slot's frames/stage_done capacity reused (the
        // recycle path clears them on reuse).
        self.free_dispatches.clear();
        for slot in (0..self.dispatches.len()).rev() {
            self.free_dispatches.push(slot);
        }
        self.dispatch_seq = 0;
        self.fetch_tags.reset();
        self.mem_tick_at = None;
        self.mem_ticks_fired = 0;
        self.mem_ticks_stale = 0;
        self.eager_mem_poll = false;
        self.kick_queue.clear();
        for queued in self.kick_queued.iter_mut() {
            *queued = false;
        }
        self.scratch_eligible.clear();
        self.scratch_chain.clear();
        self.scratch_completions.clear();
        self.scratch_frames.clear();
        self.interrupts = 0;
        self.rollbacks = 0;
        self.buffer_bytes_streamed = 0;
        self.bg_active_ns = 0;
        self.bg_instructions = 0;
        self.end = SimTime::ZERO + self.cfg.duration;
        self.tracer = Tracer::disabled();
        self.audit = Auditor::disabled();
    }

    /// Runs `flows` under `cfg`, returning the report *and* per-frame
    /// traces for every flow (timeline debugging, percentile analysis).
    pub fn run_detailed(
        cfg: SystemConfig,
        flows: Vec<FlowSpec>,
    ) -> (SystemReport, Vec<crate::trace::FlowTrace>) {
        let mut cell = SimCell::new(cfg, flows);
        let report = cell.runner().run().report;
        let traces = cell.flow_traces().expect("run finished");
        (report, traces)
    }

    /// Runs `flows` under `cfg` and returns the report.
    ///
    /// Convenience for the common case; equivalent to
    /// `SimCell::new(cfg, flows).runner().run().report`. Variant behaviour
    /// (audited, traced, counted, per-event dispatch, eager memory polls)
    /// lives on the [`RunOptions`] builder — see
    /// [`SimCell::runner`].
    pub fn run(cfg: SystemConfig, flows: Vec<FlowSpec>) -> SystemReport {
        SimCell::new(cfg, flows).runner().run().report
    }
}

/// A reusable simulation cell: one engine plus one [`SystemSim`] whose
/// allocations survive across runs.
///
/// [`SystemSim::run`] constructs a fresh model and engine per call, so a
/// matrix sweep running thousands of cells pays the construction cost —
/// scheduler heap, dispatch slab, per-lane SoA growth — over and over.
/// A `SimCell` pays it once: [`reset`](SimCell::reset) rewinds the model
/// in place and the scheduler keeps its heap, and the next
/// [`run`](SimCell::run) produces a report bit-identical to a freshly
/// constructed cell's (unit- and property-tested on digests). The matrix
/// runner keeps one warm cell per worker thread.
///
/// # Example
///
/// ```
/// use vip_core::{FlowSpec, Scheme, SimCell, SystemConfig};
/// use soc::IpKind;
///
/// let flow = FlowSpec::builder("video-play")
///     .fps(30.0)
///     .cpu_source(250_000, 300_000, 150_000)
///     .stage(IpKind::Vd, 3_110_400)
///     .stage(IpKind::Dc, 0)
///     .build();
/// let mut cfg = SystemConfig::table3(Scheme::Vip);
/// cfg.duration = desim::SimDelta::from_ms(50);
/// let flows = vec![flow];
///
/// let mut cell = SimCell::new(cfg.clone(), flows.clone());
/// let first = cell.run();
/// cell.reset(&cfg, &flows);
/// let again = cell.run();
/// assert_eq!(first.digest(), again.digest());
/// ```
pub struct SimCell {
    engine: Engine<SystemSim>,
    phase: CellPhase,
}

/// Lifecycle phase of a [`SimCell`] under the resumable session API.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum CellPhase {
    /// Constructed or reset; the event calendar is not yet seeded.
    Fresh,
    /// Seeded and (possibly partially) stepped; no report built yet.
    Running,
    /// The report was built; post-run accessors are valid.
    Finished,
}

/// Error from a post-run accessor called before the run completed: the
/// ledgers hold only a partial run's frames and harvesting them would
/// silently skew statistics. Finish the run ([`SimCell::finish`] or
/// [`SimCell::run`]) first.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RunIncomplete;

impl std::fmt::Display for RunIncomplete {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(
            "simulation report not built yet: finish the run before harvesting post-run state",
        )
    }
}

impl std::error::Error for RunIncomplete {}

/// A cheap, self-contained capture of a [`SimCell`] mid-run: the
/// scheduler calendar (heap, cancellations, sequence counter) plus the
/// full model state (lane SoA state, dispatch slots, `FetchSlab` tags,
/// frame ledgers, DRAM channel state, CPU cores, fabric, counters).
///
/// Snapshots are plain owned data — `Clone` + `Send` — so they can sit in
/// a shared cache and be restored into any warm cell on any thread.
/// Restoring and continuing is bit-identical to running straight through
/// (golden- and property-tested).
///
/// Trace-feature note: the snapshot deliberately *excludes* observers
/// (the [`Tracer`] ring and the DRAM probe closure). Observers are
/// digest-neutral by contract, and sharing a recording ring between the
/// source cell and every restored branch would interleave their traces.
/// A restored cell comes up with tracing disabled.
#[derive(Debug, Clone)]
pub struct SimSnapshot {
    sched: desim::SchedulerSnapshot<Ev>,
    model: SystemSim,
    phase: CellPhase,
}

impl SimSnapshot {
    /// Simulated instant the snapshot was taken at.
    pub fn now(&self) -> SimTime {
        self.sched.now()
    }

    /// Events still pending on the captured calendar.
    pub fn pending_events(&self) -> usize {
        self.sched.pending()
    }

    /// The captured run horizon.
    pub fn end(&self) -> SimTime {
        self.model.end
    }
}

impl SimCell {
    /// Builds a warm cell for (`cfg`, `flows`).
    ///
    /// # Panics
    ///
    /// Panics on the [`SystemSim::new`] contract violations.
    pub fn new(cfg: SystemConfig, flows: Vec<FlowSpec>) -> Self {
        SimCell {
            engine: Engine::new(SystemSim::new(cfg, flows)),
            phase: CellPhase::Fresh,
        }
    }

    /// Rewinds the cell for its next run without reallocating: the model
    /// resets in place ([`SystemSim::reset`]) and the scheduler calendar
    /// rewinds keeping its heap. Call between every pair of runs — a
    /// finished run leaves drained state behind.
    pub fn reset(&mut self, cfg: &SystemConfig, flows: &[FlowSpec]) {
        self.engine.scheduler().reset();
        self.engine.model_mut().reset(cfg, flows);
        self.phase = CellPhase::Fresh;
    }

    /// Starts configuring a run of this cell; finish with
    /// [`RunOptions::run`]. The one execution surface behind every
    /// run-to-completion convenience:
    ///
    /// ```ignore
    /// let out = cell.runner().audited().run();      // audit feature
    /// let out = cell.runner().traced(1 << 16).run(); // trace feature
    /// ```
    pub fn runner(&mut self) -> RunOptions<'_> {
        RunOptions::new(self)
    }

    /// Seeds the calendar, runs to the horizon, and builds the report.
    ///
    /// Equivalent to `self.runner().run().report`.
    pub fn run(&mut self) -> SystemReport {
        self.runner().run().report
    }

    /// Steps the simulation up to `t` (clamped to the configured horizon)
    /// and returns, leaving the cell resumable. Seeds the calendar on the
    /// first call after construction or [`reset`](Self::reset). Events
    /// scheduled exactly at `t` dispatch before returning, so a
    /// `run_until(t)` + `run_until(end)` split is bit-identical to one
    /// straight `run_until(end)`.
    ///
    /// # Panics
    ///
    /// Panics if called after the report was built ([`finish`](Self::finish)
    /// or [`run`](Self::run)); [`reset`](Self::reset) or
    /// [`restore`](Self::restore) first.
    pub fn run_until(&mut self, t: SimTime) -> desim::RunOutcome {
        assert!(
            self.phase != CellPhase::Finished,
            "SimCell::run_until after the report was built; reset or restore first"
        );
        if self.phase == CellPhase::Fresh {
            SystemSim::seed(&mut self.engine);
            self.phase = CellPhase::Running;
        }
        let horizon = t.min(self.engine.model().end);
        self.engine.run_until(horizon)
    }

    /// Runs any remaining events to the horizon and builds the report.
    /// Together with [`run_until`](Self::run_until) this is the stepped
    /// equivalent of [`run`](Self::run).
    ///
    /// # Panics
    ///
    /// Panics if the report was already built.
    pub fn finish(&mut self) -> SystemReport {
        let end = self.engine.model().end;
        self.run_until(end);
        let events = self.engine.scheduler().events_dispatched();
        self.phase = CellPhase::Finished;
        self.engine.model_mut().build_report(events)
    }

    /// Simulated time the cell has advanced to.
    pub fn now(&self) -> SimTime {
        self.engine.now()
    }

    /// Captures the cell's complete state — calendar and model — into an
    /// owned, cloneable [`SimSnapshot`]. Non-destructive: the cell
    /// continues unperturbed. Valid in any phase (a finished cell's
    /// snapshot restores to a finished cell).
    pub fn snapshot(&self) -> SimSnapshot {
        let model = self.engine.model().clone();
        #[cfg(feature = "trace")]
        let model = {
            let mut m = model;
            // Observers stay with the source cell; see SimSnapshot docs.
            m.tracer = Tracer::disabled();
            m
        };
        SimSnapshot {
            sched: self.engine.scheduler_ref().snapshot(),
            model,
            phase: self.phase,
        }
    }

    /// Rewinds the cell to `snap`, reusing the cell's existing
    /// allocations where shapes allow ([`Clone::clone_from`] on the model,
    /// heap reuse on the calendar). The cell may hold any prior state —
    /// including a differently-shaped workload — and continues from the
    /// snapshot bit-identically to the cell the snapshot was taken from.
    pub fn restore(&mut self, snap: &SimSnapshot) {
        self.engine.scheduler().restore(&snap.sched);
        self.engine.model_mut().clone_from(&snap.model);
        self.phase = snap.phase;
    }

    /// See [`SystemSim::harvest_flow_times`]. Valid only once the run
    /// completed ([`finish`](Self::finish) or [`run`](Self::run)) and
    /// before the next [`reset`](Self::reset).
    pub fn harvest_flow_times(
        &self,
        hist: &mut telemetry::LogHistogram,
    ) -> Result<(), RunIncomplete> {
        if self.phase != CellPhase::Finished {
            return Err(RunIncomplete);
        }
        self.engine.model().harvest_flow_times(hist);
        Ok(())
    }

    /// Materializes per-frame traces for every flow. Valid only once the
    /// run completed, for the same reason as
    /// [`harvest_flow_times`](Self::harvest_flow_times).
    pub fn flow_traces(&self) -> Result<Vec<crate::trace::FlowTrace>, RunIncomplete> {
        if self.phase != CellPhase::Finished {
            return Err(RunIncomplete);
        }
        let sim = self.engine.model();
        Ok(sim
            .flows
            .iter()
            .map(|f| crate::trace::FlowTrace {
                name: f.spec.name.clone(),
                stage_names: f.spec.stages.iter().map(|s| s.ip.abbrev()).collect(),
                records: (0..f.ledger.len() as u64)
                    .map(|k| f.ledger.materialize(k))
                    .collect(),
            })
            .collect())
    }
}

/// Builder-style run configuration for a [`SimCell`]; obtained from
/// [`SimCell::runner`], consumed by [`run`](RunOptions::run).
///
/// Collapses the historical `run_*` entry-point family into one surface:
/// flags compose (`.audited().eager_mem_poll()`), feature-gated observers
/// are compile-checked, and every variant shares the same seed → step →
/// report skeleton so schedule identity is structural, not copy-pasted.
#[must_use = "RunOptions does nothing until .run() is called"]
pub struct RunOptions<'a> {
    cell: &'a mut SimCell,
    eager_mem_poll: bool,
    #[cfg(feature = "audit")]
    audited: bool,
    #[cfg(feature = "trace")]
    trace_capacity: Option<usize>,
    #[cfg(feature = "trace")]
    counted: bool,
}

/// Everything a configured [`RunOptions::run`] produced. The report is
/// always present; observer artifacts are `Some` iff the matching flag
/// was set.
#[derive(Debug)]
pub struct RunOutput {
    /// The run's report; digest-identical across observer flags (observers
    /// never perturb the schedule).
    pub report: SystemReport,
    /// Audit summary, iff [`RunOptions::audited`].
    #[cfg(feature = "audit")]
    pub audit: Option<crate::audit::AuditSummary>,
    /// Finished trace session, iff [`RunOptions::traced`].
    #[cfg(feature = "trace")]
    pub trace: Option<crate::TraceSession>,
    /// Per-kind dispatch counts, iff [`RunOptions::counted`].
    #[cfg(feature = "trace")]
    pub counts: Option<EventCounts>,
}

impl<'a> RunOptions<'a> {
    fn new(cell: &'a mut SimCell) -> Self {
        RunOptions {
            cell,
            eager_mem_poll: false,
            #[cfg(feature = "audit")]
            audited: false,
            #[cfg(feature = "trace")]
            trace_capacity: None,
            #[cfg(feature = "trace")]
            counted: false,
        }
    }

    /// Re-poll the memory system on stale (superseded) MemTicks — the
    /// per-event schedule that coalescing optimizes away. The calendar is
    /// identical either way (tests prove the skip is behavior-preserving).
    pub fn eager_mem_poll(mut self) -> Self {
        self.eager_mem_poll = true;
        self
    }

    /// Arm the runtime sanitizer; [`RunOutput::audit`] carries the
    /// summary. The auditor only observes — the report digest matches an
    /// unaudited run bit-for-bit. A violated invariant panics with the
    /// failing values.
    #[cfg(feature = "audit")]
    pub fn audited(mut self) -> Self {
        self.audited = true;
        self
    }

    /// Record a structured trace into a ring of `capacity` events;
    /// [`RunOutput::trace`] carries the finished session. The tracer only
    /// observes — the report digest matches an untraced run bit-for-bit.
    /// Mutually exclusive with [`counted`](Self::counted) (both need the
    /// engine's single dispatch hook).
    #[cfg(feature = "trace")]
    pub fn traced(mut self, capacity: usize) -> Self {
        self.trace_capacity = Some(capacity);
        self
    }

    /// Count dispatches per event kind via the engine's trace-only
    /// dispatch hook; [`RunOutput::counts`] carries the totals. Mutually
    /// exclusive with [`traced`](Self::traced).
    #[cfg(feature = "trace")]
    pub fn counted(mut self) -> Self {
        self.counted = true;
        self
    }

    /// Seeds the calendar, runs to the horizon with the configured
    /// observers, and builds the report plus any requested artifacts.
    ///
    /// # Panics
    ///
    /// Panics if the cell is not fresh (construct or
    /// [`reset`](SimCell::reset) first), or if both `traced` and
    /// `counted` were requested.
    pub fn run(self) -> RunOutput {
        let cell = self.cell;
        assert!(
            cell.phase == CellPhase::Fresh,
            "RunOptions::run requires a fresh or reset cell"
        );
        cell.engine.model_mut().eager_mem_poll = self.eager_mem_poll;

        #[cfg(feature = "audit")]
        if self.audited {
            let n = cell.engine.model().flows.len();
            cell.engine.model_mut().audit = Auditor::armed(n);
        }

        #[cfg(feature = "trace")]
        assert!(
            !(self.counted && self.trace_capacity.is_some()),
            "traced and counted both need the engine's single dispatch hook"
        );

        #[cfg(feature = "trace")]
        let counts = if self.counted {
            let counts = Rc::new(std::cell::RefCell::new(EventCounts::default()));
            let sink = Rc::clone(&counts);
            cell.engine.set_dispatch_hook(Box::new(move |_at, ev: &Ev| {
                sink.borrow_mut().count(ev);
            }));
            Some(counts)
        } else {
            None
        };

        #[cfg(feature = "trace")]
        let tracing = if let Some(capacity) = self.trace_capacity {
            let model = cell.engine.model_mut();
            model.tracer = Tracer::recording(capacity);
            let rec = model.tracer.share().expect("tracer is recording");
            let flow_names: Vec<String> = model.flows.iter().map(|f| f.spec.name.clone()).collect();
            install_trace_probes(cell, &rec);
            Some((rec, flow_names))
        } else {
            None
        };

        let end = cell.engine.model().end;
        SystemSim::seed(&mut cell.engine);
        cell.phase = CellPhase::Running;
        cell.engine.run_until(end);
        let events = cell.engine.scheduler().events_dispatched();
        #[cfg(feature = "audit")]
        let time_checks = cell.engine.scheduler().audit_time_checks();
        cell.phase = CellPhase::Finished;
        let report = cell.engine.model_mut().build_report(events);

        #[cfg(feature = "audit")]
        let audit = if self.audited {
            let model = cell.engine.model_mut();
            let in_flight: u64 = model.flows.iter().map(|f| u64::from(f.in_flight)).sum();
            Some(model.audit.finish(time_checks, in_flight))
        } else {
            None
        };

        RunOutput {
            report,
            #[cfg(feature = "audit")]
            audit,
            #[cfg(feature = "trace")]
            trace: tracing.map(|(rec, flow_names)| crate::TraceSession { rec, flow_names }),
            #[cfg(feature = "trace")]
            counts: counts.map(|c| *c.borrow()),
        }
    }
}

/// Installs the trace-session observers: the DRAM probe (channel
/// issue/complete spans + queue depth counters) and the raw-dispatch
/// counter hook (57M+ dispatches per long run: counted, not
/// ring-buffered).
#[cfg(feature = "trace")]
fn install_trace_probes(cell: &mut SimCell, rec: &Arc<std::sync::Mutex<telemetry::RingRecorder>>) {
    use telemetry::{EventKind, TraceEvent, TraceSink, TrackGroup, TrackId};

    let dram_rec = Arc::clone(rec);
    cell.engine
        .model_mut()
        .mem
        .set_probe(Box::new(move |p: dram::DramProbe| {
            let mut r = dram_rec.lock().expect("recorder lock");
            match p {
                dram::DramProbe::Issue {
                    channel,
                    op,
                    start,
                    done,
                    ..
                } => {
                    let track = TrackId::new(TrackGroup::DramChannel, channel as u16, 0);
                    let name = r.intern(match op {
                        dram::MemOp::Read => "read",
                        dram::MemOp::Write => "write",
                    });
                    r.record(TraceEvent {
                        t_ns: start.as_ns(),
                        kind: EventKind::SpanBegin { track, name },
                    });
                    r.record(TraceEvent {
                        t_ns: done.as_ns(),
                        kind: EventKind::SpanEnd { track },
                    });
                }
                dram::DramProbe::QueueDepth { channel, at, depth } => {
                    let track = TrackId::new(TrackGroup::DramChannel, channel as u16, 0);
                    let name = r.intern("queue-depth");
                    r.record(TraceEvent {
                        t_ns: at.as_ns(),
                        kind: EventKind::Counter {
                            track,
                            name,
                            value: depth as f64,
                        },
                    });
                }
                dram::DramProbe::Complete { .. } => {}
            }
        }));

    let hook_rec = Arc::clone(rec);
    cell.engine.set_dispatch_hook(Box::new(move |_at, _ev| {
        hook_rec.lock().expect("recorder lock").note_dispatch();
    }));
}

impl SystemSim {
    // ------------------------------------------------------------------
    // Helpers
    // ------------------------------------------------------------------

    /// The `r`-th share of `total` split into `n` monotone parts that sum
    /// exactly to `total`.
    fn round_part(total: u64, n: u64, r: u64) -> u64 {
        (total * (r + 1)) / n - (total * r) / n
    }

    fn alloc_tag(&mut self, tag: FetchTag) -> u64 {
        self.fetch_tags.alloc(tag)
    }

    /// Adds `n` references to a dispatch slot (see [`Dispatch`]).
    fn retain_dispatch(&mut self, dispatch: usize, n: u32) {
        self.dispatches[dispatch].refs += n;
    }

    /// Drops one reference; a slot at zero is recycled through the free
    /// list (its `frames`/`stage_done` capacity is reused on reallocation).
    fn release_dispatch(&mut self, dispatch: usize) {
        let d = &mut self.dispatches[dispatch];
        debug_assert!(d.refs > 0, "dispatch over-released");
        d.refs -= 1;
        if d.refs == 0 {
            self.free_dispatches.push(dispatch);
        }
    }

    fn ensure_mem_tick(&mut self, sched: &mut Scheduler<Ev>) {
        if let Some(t) = self.mem.next_completion_time() {
            let t = t.max(sched.now());
            if self.mem_tick_at.is_none_or(|cur| t < cur) {
                sched.at(t, Ev::MemTick);
                self.mem_tick_at = Some(t);
            }
        }
    }

    fn kick(&mut self, ip: usize) {
        if !self.kick_queued[ip] {
            self.kick_queued[ip] = true;
            self.kick_queue.push(ip);
        }
    }

    fn drain_kicks(&mut self, sched: &mut Scheduler<Ev>) {
        let mut guard = 0u32;
        while let Some(ip) = self.kick_queue.pop() {
            // Clear before pumping: a kick raised *during* the pump must
            // re-enqueue the IP, exactly as the old linear-scan dedup did.
            self.kick_queued[ip] = false;
            self.pump_ip(ip, sched);
            guard += 1;
            assert!(guard < 100_000, "kick storm: pipeline livelock");
        }
    }

    /// Synthetic, stream-friendly physical addresses: a 64 MB region per
    /// (flow, stage, traffic kind), rotating over 4 frame-sized
    /// sub-regions. `kind`: 0 = chain input read, 1 = output write,
    /// 2 = side (reference/texture) read.
    fn stream_addr(&self, flow: usize, stage: usize, frame: u64, offset: u64, kind: u64) -> u64 {
        let region = (flow * 16 + stage) as u64 * 4 + kind;
        (region << 26) | (((frame % 4) << 24) + offset)
    }

    fn submit_cpu_task(
        &mut self,
        sched: &mut Scheduler<Ev>,
        core: usize,
        ns: u64,
        instructions: u64,
        payload: CpuPayload,
    ) {
        // Attribute the CPU time evenly over the dispatch's frames.
        let dispatch = match payload {
            CpuPayload::Prep { dispatch, .. }
            | CpuPayload::Setup { dispatch, .. }
            | CpuPayload::Irq { dispatch, .. } => Some(dispatch),
            CpuPayload::Background => None,
            CpuPayload::Rollback => None,
        };
        if let Some(dispatch) = dispatch {
            let n = self.dispatches[dispatch].frames.len();
            let share = ns / n.max(1) as u64;
            let flow = self.dispatches[dispatch].flow;
            for i in 0..n {
                let f = self.dispatches[dispatch].frames[i];
                self.flows[flow].ledger.add_cpu_ns(f, share);
            }
        }
        let task = Task {
            duration: SimDelta::from_ns(ns),
            instructions,
            kind: payload,
        };
        if let Some(done) = self.cpus[core].submit(sched.now(), task) {
            sched.at(done, Ev::CpuDone { cpu: core });
        }
        if self.tracer.is_on() {
            let depth = self.cpus[core].queued() + usize::from(self.cpus[core].is_busy());
            self.tracer.cpu_queue(core, sched.now(), depth);
        }
    }

    fn raise_irq(&mut self, sched: &mut Scheduler<Ev>, flow: usize, dispatch: usize, stage: usize) {
        self.interrupts += 1;
        let core = self.flows[flow].core;
        self.tracer.irq(core, sched.now());
        let work = self.cfg.irq_service;
        self.submit_cpu_task(
            sched,
            core,
            work.ns,
            work.instructions,
            CpuPayload::Irq {
                flow,
                dispatch,
                stage,
            },
        );
    }

    // ------------------------------------------------------------------
    // Source / dispatch
    // ------------------------------------------------------------------

    fn on_source(&mut self, flow_idx: usize, sched: &mut Scheduler<Ev>) {
        let now = sched.now();
        if now >= self.end {
            return;
        }
        let mut burst_cap = self.cfg.effective_burst();
        if let Some(cap) = self.flows[flow_idx].spec.burst_cap {
            burst_cap = burst_cap.min(cap);
        }
        // The driver queue bounds how many frames can ever be in flight
        // (the Nexus 7 depth-7 limit, §2.2): bursts larger than the queue
        // could never be submitted.
        burst_cap = burst_cap.min(self.cfg.source_queue_limit.max(1));
        let f = &self.flows[flow_idx];
        let period = f.spec.period();
        let phase = f.phase;
        let is_sensor = matches!(f.spec.source, SourceKind::Sensor);

        // Frames of the dispatch being formed, in a buffer reused across
        // source events (this handler runs per frame or per burst window).
        self.scratch_frames.clear();
        let next_source_frame;

        if burst_cap == 1 {
            self.scratch_frames.push(f.next_frame);
            next_source_frame = f.next_frame + 1;
        } else if is_sensor {
            // Live source: accumulate until a burst window is full.
            let f = &mut self.flows[flow_idx];
            f.backlog.push(f.next_frame);
            next_source_frame = f.next_frame + 1;
            if f.backlog.len() as u32 >= burst_cap {
                self.scratch_frames.append(&mut f.backlog);
            }
        } else {
            // Software source: data already exists, burst ahead of the
            // presentation schedule (gated for interactive flows).
            let allowed = f.spec.gate.allowed(now, burst_cap).max(1);
            for k in 0..allowed as u64 {
                self.scratch_frames.push(f.next_frame + k);
            }
            next_source_frame = f.next_frame + allowed as u64;
        }

        // Create ledger rows for every newly sourced frame (including
        // ahead-of-schedule ones, whose nominal times lie in the future —
        // the ledger derives those from its interned geometry).
        {
            let f = &mut self.flows[flow_idx];
            let max_new = self
                .scratch_frames
                .iter()
                .copied()
                .max()
                .unwrap_or(f.next_frame)
                .max(next_source_frame.saturating_sub(1));
            while (f.ledger.len() as u64) <= max_new {
                f.ledger.push_frame();
            }
            f.next_frame = next_source_frame;
        }

        // Schedule the next source event.
        let next_at = SimTime::ZERO + phase + period * next_source_frame;
        if next_at < self.end + period {
            sched.at(next_at, Ev::Source { flow: flow_idx });
        }

        if self.scratch_frames.is_empty() {
            return;
        }

        // Source-queue limit (the Nexus 7 depth-7 observation, §2.2).
        let f = &mut self.flows[flow_idx];
        if f.in_flight + self.scratch_frames.len() as u32 > self.cfg.source_queue_limit {
            let dropped = self.scratch_frames.len();
            for &k in &self.scratch_frames {
                f.ledger.mark_dropped(k);
            }
            self.tracer.frames_dropped(flow_idx, now, dropped);
            self.audit.frames_dropped(flow_idx, dropped as u64);
            return;
        }
        f.in_flight += self.scratch_frames.len() as u32;
        for &k in &self.scratch_frames {
            f.ledger.mark_dispatched(k, now);
        }
        if self.tracer.is_on() {
            let in_flight = self.flows[flow_idx].in_flight as usize;
            self.tracer.dispatched(flow_idx, now, in_flight);
        }
        if self.audit.is_on() {
            let in_flight = self.flows[flow_idx].in_flight;
            self.audit
                .frames_dispatched(flow_idx, self.scratch_frames.len() as u64, in_flight);
        }

        let nframes = self.scratch_frames.len() as u64;
        let num_stages = self.flows[flow_idx].spec.num_stages();
        let seq = self.dispatch_seq;
        self.dispatch_seq += 1;
        // The initial reference is the CPU payload chain (Prep below).
        let dispatch = match self.free_dispatches.pop() {
            Some(i) => {
                let d = &mut self.dispatches[i];
                d.flow = flow_idx;
                d.frames.clear();
                d.frames.extend_from_slice(&self.scratch_frames);
                d.stage_done.clear();
                d.stage_done.resize(num_stages, 0);
                d.seq = seq;
                d.refs = 1;
                i
            }
            None => {
                self.dispatches.push(Dispatch {
                    flow: flow_idx,
                    frames: self.scratch_frames.clone(),
                    stage_done: vec![0; num_stages],
                    seq,
                    refs: 1,
                });
                self.dispatches.len() - 1
            }
        };

        // Speculated (ahead-of-schedule) bursts of interactive flows must
        // roll back if the user touches before the burst presents.
        if self.cfg.rollback && nframes > 1 && !is_sensor {
            let span = period * nframes;
            if let Some(touch) = self.flows[flow_idx]
                .spec
                .gate
                .first_touch_within(now, now + span)
            {
                sched.at(
                    touch,
                    Ev::Rollback {
                        flow: flow_idx,
                        dispatch,
                    },
                );
                // The pending event keeps the slot alive until it fires.
                self.retain_dispatch(dispatch, 1);
            }
        }

        // CPU preparation, then driver setup.
        let core = self.flows[flow_idx].core;
        let (prep_ns, prep_instr) = match self.flows[flow_idx].spec.source {
            SourceKind::Cpu {
                prep_ns,
                prep_instructions,
            } => (prep_ns * nframes, prep_instructions * nframes),
            SourceKind::Sensor => (50_000, 60_000),
        };
        self.submit_cpu_task(
            sched,
            core,
            prep_ns,
            prep_instr,
            CpuPayload::Prep {
                flow: flow_idx,
                dispatch,
            },
        );
    }

    // ------------------------------------------------------------------
    // CPU payload handling
    // ------------------------------------------------------------------

    fn on_cpu_done(&mut self, cpu: usize, sched: &mut Scheduler<Ev>) {
        let (payload, next) = self.cpus[cpu].task_done(sched.now());
        if let Some(done) = next {
            sched.at(done, Ev::CpuDone { cpu });
        }
        match payload {
            CpuPayload::Prep { flow, dispatch } => {
                let core = self.flows[flow].core;
                let setup = self.cfg.driver_setup;
                // Chained schemes: one setup configures the whole chain.
                // FrameBurst: the CPU programs every IP of the flow up
                // front (one driver call per IP, paid together), then the
                // hardware doorbells frames through. Baseline: one setup
                // per stage, re-entered after each stage's interrupt.
                let mult = if self.cfg.scheme == Scheme::FrameBurst {
                    self.flows[flow].spec.num_stages() as u64
                } else {
                    1
                };
                self.submit_cpu_task(
                    sched,
                    core,
                    setup.ns * mult,
                    setup.instructions * mult,
                    CpuPayload::Setup {
                        flow,
                        dispatch,
                        stage: 0,
                    },
                );
            }
            CpuPayload::Setup {
                flow,
                dispatch,
                stage,
            } => {
                // The payload-chain ref converts into one ref per stage
                // enqueued (Baseline enqueues one stage and the Irq →
                // Setup chain carries the rest, so it nets to a transfer).
                if self.cfg.scheme.chained() {
                    let stages = self.flows[flow].spec.num_stages() as u32;
                    self.retain_dispatch(dispatch, stages);
                    self.enqueue_chained(flow, dispatch, sched);
                } else if self.cfg.scheme == Scheme::FrameBurst {
                    let stages = self.flows[flow].spec.num_stages();
                    self.retain_dispatch(dispatch, stages as u32);
                    for s in 0..stages {
                        self.enqueue_stage(flow, dispatch, s);
                    }
                } else {
                    self.retain_dispatch(dispatch, 1);
                    self.enqueue_stage(flow, dispatch, stage);
                }
                self.release_dispatch(dispatch);
                self.drain_kicks(sched);
            }
            CpuPayload::Irq {
                flow,
                dispatch,
                stage,
            } => {
                if self.cfg.scheme == Scheme::Baseline {
                    let stages = self.flows[flow].spec.num_stages();
                    if stage + 1 < stages {
                        let core = self.flows[flow].core;
                        let setup = self.cfg.driver_setup;
                        // Hands the payload-chain ref to the next Setup.
                        self.submit_cpu_task(
                            sched,
                            core,
                            setup.ns,
                            setup.instructions,
                            CpuPayload::Setup {
                                flow,
                                dispatch,
                                stage: stage + 1,
                            },
                        );
                        return;
                    }
                }
                // Chained: the dispatch-final interrupt needs no follow-up.
                self.release_dispatch(dispatch);
            }
            CpuPayload::Background => {
                // Book background residency at completion so partially-run
                // tasks at the horizon never distort the media accounting.
                let bg = self.cfg.background.expect("bg task implies config");
                self.bg_active_ns += bg.duration.as_ns();
                self.bg_instructions +=
                    (bg.duration.as_secs() * self.cfg.cpu.instructions_per_sec) as u64;
            }
            CpuPayload::Rollback => {}
        }
    }

    /// A touch arrived while a speculated burst was in flight: the CPU
    /// recomputes the not-yet-presented frames. The recomputed content
    /// replaces the in-flight data in place (same geometry), so only the
    /// CPU cost and its scheduling interference are modeled.
    fn on_rollback(&mut self, flow: usize, dispatch: usize, sched: &mut Scheduler<Ev>) {
        let now = sched.now();
        // The pending-event ref is consumed on every path out of here.
        // Frames whose presentation instant is still ahead hold stale
        // speculated content and must be recomputed.
        let remaining = self.dispatches[dispatch]
            .frames
            .iter()
            .filter(|&&k| self.flows[flow].ledger.sourced(k) > now)
            .count() as u64;
        self.release_dispatch(dispatch);
        if remaining == 0 {
            return;
        }
        self.rollbacks += 1;
        let (prep_ns, prep_instr) = match self.flows[flow].spec.source {
            SourceKind::Cpu {
                prep_ns,
                prep_instructions,
            } => (prep_ns, prep_instructions),
            SourceKind::Sensor => return, // live flows never speculate
        };
        let core = self.flows[flow].core;
        let task = Task {
            duration: SimDelta::from_ns(prep_ns * remaining),
            instructions: prep_instr * remaining,
            kind: CpuPayload::Rollback,
        };
        if let Some(done) = self.cpus[core].submit(now, task) {
            sched.at(done, Ev::CpuDone { cpu: core });
        }
    }

    fn on_background(&mut self, cpu: usize, sched: &mut Scheduler<Ev>) {
        let Some(bg) = self.cfg.background else {
            return;
        };
        if sched.now() >= self.end {
            return;
        }
        let instructions = (bg.duration.as_secs() * self.cfg.cpu.instructions_per_sec) as u64;
        let task = Task {
            duration: bg.duration,
            instructions,
            kind: CpuPayload::Background,
        };
        if let Some(done) = self.cpus[cpu].submit(sched.now(), task) {
            sched.at(done, Ev::CpuDone { cpu });
        }
        sched.after(bg.period, Ev::Background { cpu });
    }

    /// Enqueues a dispatch's work item at one stage (non-chained schemes).
    fn enqueue_stage(&mut self, flow: usize, dispatch: usize, stage: usize) {
        let spec = &self.flows[flow].spec;
        let ip = spec.stages[stage].ip.index();
        let lane = self.flows[flow].lane_at[stage];
        self.ips[ip].queues[lane].push_back(WorkItem { dispatch, stage });
        self.kick(ip);
    }

    /// Enqueues a dispatch at every stage and accounts the header packet
    /// (chained schemes).
    fn enqueue_chained(&mut self, flow: usize, dispatch: usize, sched: &mut Scheduler<Ev>) {
        let stages = self.flows[flow].spec.num_stages();
        let mut chain = std::mem::take(&mut self.scratch_chain);
        chain.clear();
        chain.extend(self.flows[flow].spec.stages.iter().map(|s| s.ip));
        let frame_bytes = self.flows[flow].spec.footprint(0);
        let burst = self.dispatches[dispatch].frames.len() as u32;
        let header = HeaderPacket::new(
            &chain,
            frame_bytes,
            self.flows[flow].spec.fps as u32,
            burst,
            self.cfg.header_context_bytes,
        );
        let header_bytes = header.size_bytes();
        let xfer = self.agent.transfer(sched.now(), header_bytes);
        self.tracer.sa_transfer(xfer.start, xfer.end, header_bytes);
        for (s, kind) in chain.iter().enumerate().take(stages) {
            let ip = kind.index();
            let lane = self.flows[flow].lane_at[s];
            self.ips[ip].queues[lane].push_back(WorkItem { dispatch, stage: s });
            self.kick(ip);
        }
        self.scratch_chain = chain;
    }

    // ------------------------------------------------------------------
    // IP pipeline
    // ------------------------------------------------------------------

    fn input_mode(&self, flow: usize, stage: usize) -> InputMode {
        let spec = &self.flows[flow].spec;
        if stage == 0 {
            match spec.source {
                SourceKind::Sensor => InputMode::None,
                SourceKind::Cpu { .. } => InputMode::Dram,
            }
        } else if self.cfg.scheme.chained() {
            InputMode::Upstream
        } else {
            InputMode::Dram
        }
    }

    /// Activates queue heads, issues prefetches, retries blocked emits,
    /// and starts compute. The single re-evaluation point for an IP.
    fn pump_ip(&mut self, ip: usize, sched: &mut Scheduler<Ev>) {
        let now = sched.now();
        let nlanes = self.ips[ip].active.len();

        for lane in 0..nlanes {
            // Activate the head item if the lane is free.
            if !self.ips[ip].active[lane] {
                if let Some(item) = self.ips[ip].queues[lane].pop_front() {
                    let flow = self.dispatches[item.dispatch].flow;
                    let stage = item.stage;
                    let frame0 = self.dispatches[item.dispatch].frames[0];
                    let seq = self.dispatches[item.dispatch].seq;
                    let spec = &self.flows[flow].spec;
                    let in_total = if stage == 0 {
                        spec.src_bytes_for(frame0)
                    } else {
                        spec.in_bytes(stage)
                    };
                    let out_total = spec.stages[stage].out_bytes;
                    let side_total = spec.stages[stage].side_read_bytes;
                    let footprint = spec.footprint(stage);
                    let n_rounds = footprint.div_ceil(self.cfg.subframe_bytes).max(1);
                    let compute = self.ips[ip].cfg.frame_compute_time(footprint);
                    let input = self.input_mode(flow, stage);
                    let deadline = self.flows[flow].ledger.deadline(frame0);
                    self.ips[ip].active[lane] = true;
                    self.ips[ip].sched[lane] = LaneSched {
                        dispatch: item.dispatch,
                        stage,
                        frame_pos: 0,
                        input,
                        seq,
                        deadline,
                        in_total,
                        side_total,
                        n_rounds,
                        rounds_computed: 0,
                        in_ready: 0,
                        side_ready: 0,
                        out_pending: 0,
                    };
                    self.ips[ip].xfer[lane] = LaneXfer {
                        flow,
                        out_total,
                        round_compute: compute / n_rounds,
                        in_requested: 0,
                        in_consumed: 0,
                        side_requested: 0,
                        side_consumed: 0,
                        inflight_fetches: 0,
                        holds_active: false,
                        frame_begin: None,
                    };
                    // A new head: producers blocked on this lane may proceed.
                    self.wake_waiters(ip);
                    if self.tracer.is_on() {
                        let depth = self.ips[ip].queues[lane].len();
                        self.tracer.queue_depth(ip, lane, now, depth);
                    }
                }
            }

            // Prefetch DRAM input (double-buffered).
            self.pump_fetch(ip, lane, sched);

            // Retry a blocked flush (and complete a drained frame).
            self.flush_output(ip, lane, sched);
        }

        self.try_start_compute(ip, sched, now);
    }

    /// Whether the current frame of an item may begin at its stage. Under
    /// FrameBurst (bursts without chaining) a later stage's frame waits
    /// for the earlier stage to have written it to DRAM — a hardware
    /// doorbell, not a CPU interrupt.
    fn doorbell_open(&self, s: &LaneSched) -> bool {
        if s.stage == 0 || self.cfg.scheme != Scheme::FrameBurst {
            return true;
        }
        let d = &self.dispatches[s.dispatch];
        d.stage_done[s.stage - 1] as usize > s.frame_pos
    }

    /// Issues DRAM prefetches (chain input and side reads) for a lane's
    /// active item, double-buffered at sub-frame granularity.
    fn pump_fetch(&mut self, ip: usize, lane: usize, sched: &mut Scheduler<Ev>) {
        let now = sched.now();
        let sub = self.cfg.subframe_bytes;
        loop {
            if !self.ips[ip].active[lane] {
                return;
            }
            let s = self.ips[ip].sched[lane];
            let x = self.ips[ip].xfer[lane];
            if !self.doorbell_open(&s) || x.inflight_fetches >= 2 {
                return;
            }
            // Chain input first, then side reads; both double-buffered.
            let want_input = s.input == InputMode::Dram
                && x.in_requested < s.in_total
                && x.in_requested - x.in_consumed < 2 * sub;
            // Side reads may need more than a sub-frame per round (e.g. a
            // reference frame larger than the output); the prefetch window
            // must always cover the next round's need or the round could
            // never become eligible.
            let side_need = Self::round_part(s.side_total, s.n_rounds, s.rounds_computed);
            let side_window = (2 * sub).max(side_need + sub);
            let want_side =
                x.side_requested < s.side_total && x.side_requested - x.side_consumed < side_window;
            let side = if want_input {
                false
            } else if want_side {
                true
            } else {
                return;
            };
            let (chunk, offset, kind) = if side {
                (
                    sub.min(s.side_total - x.side_requested),
                    x.side_requested,
                    2,
                )
            } else {
                (sub.min(s.in_total - x.in_requested), x.in_requested, 0)
            };
            let frame = self.dispatches[s.dispatch].frames[s.frame_pos];
            let first_activity = !x.holds_active;

            let addr = self.stream_addr(x.flow, s.stage, frame, offset, kind);
            let tag = self.alloc_tag(FetchTag {
                ip,
                lane,
                bytes: chunk,
                side,
            });
            self.mem
                .submit(now, MemRequest::new(addr, chunk, MemOp::Read, tag));
            self.agent.account_passthrough(chunk);
            self.ensure_mem_tick(sched);

            let x = &mut self.ips[ip].xfer[lane];
            if side {
                x.side_requested += chunk;
            } else {
                x.in_requested += chunk;
            }
            x.inflight_fetches += 1;
            if first_activity {
                self.ips[ip].xfer[lane].holds_active = true;
                self.ips[ip].stats.set_active(now, true);
            }
        }
    }

    /// Flushes a lane's accumulated output toward the next hop in
    /// sub-frame-capped chunks ("stall the sender" flow control, §5.5).
    /// Chunks never exceed one sub-frame, which — with lane buffers at
    /// least two sub-frames deep — guarantees the pipeline cannot deadlock
    /// on mismatched producer/consumer granularities. Completes the frame
    /// when its last byte drains.
    fn flush_output(&mut self, ip: usize, lane: usize, sched: &mut Scheduler<Ev>) {
        let sub = self.cfg.subframe_bytes;
        loop {
            if !self.ips[ip].active[lane] {
                return;
            }
            let s = &self.ips[ip].sched[lane];
            let frame_computed = s.rounds_computed == s.n_rounds;
            let chunk = if s.out_pending >= sub {
                sub
            } else if frame_computed && s.out_pending > 0 {
                s.out_pending
            } else {
                if frame_computed {
                    self.complete_frame(ip, lane, sched);
                }
                return;
            };
            if !self.emit(ip, lane, chunk, sched) {
                return;
            }
            self.ips[ip].sched[lane].out_pending -= chunk;
        }
    }

    /// Emits `bytes` of a lane's current frame toward the next hop.
    /// Returns `false` if the downstream lane cannot accept them yet.
    fn emit(&mut self, ip: usize, lane: usize, bytes: u64, sched: &mut Scheduler<Ev>) -> bool {
        let now = sched.now();
        let (flow, stage, dispatch, frame) = {
            let s = &self.ips[ip].sched[lane];
            (
                self.ips[ip].xfer[lane].flow,
                s.stage,
                s.dispatch,
                self.dispatches[s.dispatch].frames[s.frame_pos],
            )
        };
        let last_stage = stage + 1 == self.flows[flow].spec.num_stages();
        if last_stage {
            return true; // output leaves the SoC (panel / radio / flash)
        }
        if !self.cfg.scheme.chained() {
            // Posted write to DRAM; no flow control.
            let out_total = self.ips[ip].xfer[lane].out_total;
            let offset = out_total.saturating_sub(self.ips[ip].sched[lane].out_pending);
            let addr = self.stream_addr(flow, stage, frame, offset, 1);
            self.mem
                .submit(now, MemRequest::new(addr, bytes, MemOp::Write, WRITE_TAG));
            self.agent.account_passthrough(bytes);
            self.ensure_mem_tick(sched);
            return true;
        }

        // Chained: reserve space in the downstream lane, but only while the
        // consumer is serving (or about to serve) this very dispatch —
        // lanes hold one flow's data at a time.
        let cons_ip = self.flows[flow].spec.stages[stage + 1].ip.index();
        let cons_lane = self.flows[flow].lane_at[stage + 1];
        let head_matches = if self.ips[cons_ip].active[cons_lane] {
            let cs = &self.ips[cons_ip].sched[cons_lane];
            cs.dispatch == dispatch && cs.stage == stage + 1
        } else if let Some(head) = self.ips[cons_ip].queues[cons_lane].front() {
            head.dispatch == dispatch && head.stage == stage + 1
        } else {
            false
        };
        if !head_matches || !self.ips[cons_ip].buffers[cons_lane].try_reserve(bytes) {
            if !self.ips[cons_ip].waiters.contains(&(ip, lane)) {
                self.ips[cons_ip].waiters.push((ip, lane));
            }
            return false;
        }
        let xfer = self.agent.transfer(now, bytes);
        self.tracer.sa_transfer(xfer.start, xfer.end, bytes);
        sched.at(
            xfer.arrival,
            Ev::SaArrival {
                ip: cons_ip,
                lane: cons_lane,
                bytes,
            },
        );
        true
    }

    /// Wakes producers blocked emitting into `ip`.
    fn wake_waiters(&mut self, ip: usize) {
        let mut waiters = std::mem::take(&mut self.ips[ip].waiters);
        for &(pip, _plane) in &waiters {
            self.kick(pip);
        }
        // Hand the buffer back so its capacity is reused. `kick` never
        // registers waiters, so nothing was added behind our back.
        debug_assert!(self.ips[ip].waiters.is_empty());
        waiters.clear();
        self.ips[ip].waiters = waiters;
    }

    /// Picks and starts the next compute round on an idle IP engine.
    fn try_start_compute(&mut self, ip: usize, sched: &mut Scheduler<Ev>, now: SimTime) {
        if self.ips[ip].engine_busy {
            return;
        }
        let nlanes = self.ips[ip].active.len();
        let mut eligible = std::mem::take(&mut self.scratch_eligible);
        eligible.clear();
        // The scan walks only the `active` flags and the `sched` array —
        // the SoA split keeps transfer bookkeeping off these cache lines.
        for lane in 0..nlanes {
            if !self.ips[ip].active[lane] {
                continue;
            }
            let s = &self.ips[ip].sched[lane];
            if s.out_pending >= self.cfg.subframe_bytes
                || s.rounds_computed >= s.n_rounds
                || !self.doorbell_open(s)
            {
                continue;
            }
            let need = Self::round_part(s.in_total, s.n_rounds, s.rounds_computed);
            let need_side = Self::round_part(s.side_total, s.n_rounds, s.rounds_computed);
            let available = match s.input {
                InputMode::None => u64::MAX,
                InputMode::Dram => s.in_ready,
                InputMode::Upstream => self.ips[ip].buffers[lane].used(),
            };
            if available >= need && s.side_ready >= need_side {
                eligible.push(lane);
            }
        }
        if eligible.is_empty() {
            self.scratch_eligible = eligible;
            return;
        }

        let lane = match self.cfg.sched_policy {
            _ if eligible.len() == 1 => eligible[0],
            SchedPolicy::Edf => *eligible
                .iter()
                .min_by_key(|&&l| self.ips[ip].sched[l].deadline)
                .expect("nonempty"),
            SchedPolicy::Fifo => *eligible
                .iter()
                .min_by_key(|&&l| self.ips[ip].sched[l].seq)
                .expect("nonempty"),
            SchedPolicy::RoundRobin => {
                let start = self.ips[ip].engine_lane.map_or(0, |l| l + 1);
                *(0..nlanes)
                    .map(|o| (start + o) % nlanes)
                    .find(|l| eligible.contains(l))
                    .map(|l| eligible.iter().find(|&&e| e == l).expect("present"))
                    .expect("nonempty")
            }
        };
        if self.audit.is_on()
            && eligible.len() > 1
            && matches!(self.cfg.sched_policy, SchedPolicy::Edf)
        {
            // Re-derive the earliest eligible deadline independently of the
            // pick above (chasing records, not the cached copy) and check
            // the chosen lane matches it.
            let deadline_of = |l: usize| {
                let s = &self.ips[ip].sched[l];
                let frame = self.dispatches[s.dispatch].frames[s.frame_pos];
                self.flows[self.ips[ip].xfer[l].flow].ledger.deadline(frame)
            };
            let chosen = deadline_of(lane);
            let best = eligible
                .iter()
                .map(|&l| deadline_of(l))
                .min()
                .expect("nonempty");
            self.audit.edf_pick(ip, chosen, best);
        }
        self.scratch_eligible = eligible;

        // Consume the round's input.
        let need = {
            let s = &self.ips[ip].sched[lane];
            Self::round_part(s.in_total, s.n_rounds, s.rounds_computed)
        };
        match self.ips[ip].sched[lane].input {
            InputMode::None => {}
            InputMode::Dram => {
                self.ips[ip].sched[lane].in_ready -= need;
                self.ips[ip].xfer[lane].in_consumed += need;
            }
            InputMode::Upstream => {
                self.ips[ip].buffers[lane].consume(need);
                if self.tracer.is_on() {
                    let used = self.ips[ip].buffers[lane].used();
                    self.tracer.buffer_level(ip, lane, now, used);
                }
                self.ips[ip].xfer[lane].in_consumed += need;
                // Freed credit: the upstream producer may emit again.
                self.wake_waiters(ip);
            }
        }
        {
            let s = &mut self.ips[ip].sched[lane];
            let need_side = Self::round_part(s.side_total, s.n_rounds, s.rounds_computed);
            s.side_ready -= need_side;
            self.ips[ip].xfer[lane].side_consumed += need_side;
        }

        // Context switch accounting.
        let switching = self.ips[ip].engine_lane.is_some_and(|l| l != lane);
        let ctx = if switching {
            self.ips[ip].stats.context_switches += 1;
            self.cfg.ctx_switch
        } else {
            SimDelta::ZERO
        };

        let first_round = {
            let x = &mut self.ips[ip].xfer[lane];
            let first = !x.holds_active;
            x.holds_active = true;
            if x.frame_begin.is_none() {
                x.frame_begin = Some(now);
            }
            first
        };
        if first_round {
            self.ips[ip].stats.set_active(now, true);
        }
        let round_compute = self.ips[ip].xfer[lane].round_compute;
        let dur = round_compute + ctx;
        self.ips[ip].stats.add_compute(round_compute);
        self.ips[ip].engine_busy = true;
        self.ips[ip].engine_lane = Some(lane);
        sched.at(now + dur, Ev::ComputeDone { ip, lane });
        if self.tracer.is_on() {
            if switching {
                self.tracer.ctx_switch(ip, lane, now);
            }
            let flow = self.ips[ip].xfer[lane].flow;
            self.tracer
                .compute_round(ip, lane, &self.flows[flow].spec.name, now, now + dur);
        }
    }

    fn on_compute_done(&mut self, ip: usize, lane: usize, sched: &mut Scheduler<Ev>) {
        self.ips[ip].engine_busy = false;
        {
            let out_total = self.ips[ip].xfer[lane].out_total;
            let s = &mut self.ips[ip].sched[lane];
            let r = s.rounds_computed;
            s.rounds_computed += 1;
            s.out_pending += Self::round_part(out_total, s.n_rounds, r);
        }
        self.flush_output(ip, lane, sched);
        self.kick(ip);
        self.drain_kicks(sched);
    }

    /// Books completion of the current frame at this stage and advances
    /// the item (next frame, or retire the item).
    fn complete_frame(&mut self, ip: usize, lane: usize, sched: &mut Scheduler<Ev>) {
        let now = sched.now();
        let (flow, stage, dispatch, frame, begin, footprint, item_done) = {
            let s = self.ips[ip].sched[lane];
            let begin = self.ips[ip].xfer[lane].frame_begin.take().unwrap_or(now);
            let out_total = self.ips[ip].xfer[lane].out_total;
            let flow = self.ips[ip].xfer[lane].flow;
            let frame = self.dispatches[s.dispatch].frames[s.frame_pos];
            let fp = s.in_total.max(out_total);
            self.ips[ip].sched[lane].frame_pos += 1;
            let done = s.frame_pos + 1 == self.dispatches[s.dispatch].frames.len();
            (flow, s.stage, s.dispatch, frame, begin, fp, done)
        };

        self.ips[ip].stats.frames += 1;
        self.ips[ip].stats.add_bytes(footprint);
        self.flows[flow].ledger.set_span(frame, stage, begin, now);
        self.dispatches[dispatch].stage_done[stage] += 1;
        // FrameBurst doorbell: the next stage may now start this frame.
        if self.cfg.scheme == Scheme::FrameBurst && stage + 1 < self.flows[flow].spec.num_stages() {
            let next_ip = self.flows[flow].spec.stages[stage + 1].ip.index();
            self.kick(next_ip);
        }

        let last_stage = stage + 1 == self.flows[flow].spec.num_stages();
        if last_stage {
            self.flows[flow].ledger.mark_finished(frame, now);
            self.flows[flow].in_flight = self.flows[flow].in_flight.saturating_sub(1);
            if self.tracer.is_on() {
                let late = now > self.flows[flow].ledger.deadline(frame);
                self.tracer.frame_done(flow, now, late);
            }
            if self.audit.is_on() {
                let in_flight = self.flows[flow].in_flight;
                self.audit.frame_completed(flow, in_flight);
            }
        }

        if item_done {
            let holds = self.ips[ip].xfer[lane].holds_active;
            if holds {
                self.ips[ip].stats.set_active(now, false);
            }
            self.ips[ip].active[lane] = false;
            self.wake_waiters(ip);
            // Interrupt the CPU: per stage completion in non-chained
            // schemes; once per dispatch (at the final stage) when chained.
            // An interrupt inherits this stage's dispatch ref (released
            // when its payload is handled); otherwise release it here.
            if !self.cfg.scheme.chained() || last_stage {
                self.raise_irq(sched, flow, dispatch, stage);
            } else {
                self.release_dispatch(dispatch);
            }
            self.kick(ip);
        } else {
            // Next frame of the burst: reset per-frame progress and
            // refresh the cached deadline (record deadlines are immutable
            // once created, so the cache stays valid until the next
            // frame advance).
            let next_frame = self.dispatches[dispatch].frames[self.ips[ip].sched[lane].frame_pos];
            let next_in = if stage == 0 {
                self.flows[flow].spec.src_bytes_for(next_frame)
            } else {
                self.flows[flow].spec.in_bytes(stage)
            };
            let next_deadline = self.flows[flow].ledger.deadline(next_frame);
            let s = &mut self.ips[ip].sched[lane];
            s.in_total = next_in;
            s.rounds_computed = 0;
            s.in_ready = 0;
            s.side_ready = 0;
            s.deadline = next_deadline;
            debug_assert_eq!(s.out_pending, 0);
            let x = &mut self.ips[ip].xfer[lane];
            x.in_requested = 0;
            x.in_consumed = 0;
            x.side_requested = 0;
            x.side_consumed = 0;
            x.inflight_fetches = 0;
            self.kick(ip);
        }
    }

    fn on_mem_tick(&mut self, sched: &mut Scheduler<Ev>) {
        let now = sched.now();
        self.mem_ticks_fired += 1;
        if self.mem_tick_at == Some(now) {
            self.mem_tick_at = None;
        } else {
            // Stale tick: `ensure_mem_tick` re-armed to an earlier instant
            // after this one was placed. Every site that can lower the next
            // completion time re-arms the tracker, so `mem_tick_at` never
            // trails the earliest pending completion — a mismatched tick
            // therefore has nothing due and the poll can be skipped. The
            // event still dispatched (and was counted), so the schedule and
            // the report digest are untouched.
            self.mem_ticks_stale += 1;
            if !self.eager_mem_poll {
                return;
            }
        }
        let mut completions = std::mem::take(&mut self.scratch_completions);
        completions.clear();
        self.mem.collect_completions_into(now, &mut completions);
        for c in completions.drain(..) {
            if c.tag == WRITE_TAG {
                continue;
            }
            if let Some(tag) = self.fetch_tags.take(c.tag) {
                if self.ips[tag.ip].active[tag.lane] {
                    let s = &mut self.ips[tag.ip].sched[tag.lane];
                    if tag.side {
                        s.side_ready += tag.bytes;
                    } else {
                        s.in_ready += tag.bytes;
                    }
                    let x = &mut self.ips[tag.ip].xfer[tag.lane];
                    x.inflight_fetches = x.inflight_fetches.saturating_sub(1);
                }
                self.kick(tag.ip);
            }
        }
        self.scratch_completions = completions;
        self.ensure_mem_tick(sched);
        self.drain_kicks(sched);
    }

    fn on_sa_arrival(&mut self, ip: usize, lane: usize, bytes: u64, sched: &mut Scheduler<Ev>) {
        self.ips[ip].buffers[lane].commit(bytes);
        self.buffer_bytes_streamed += bytes;
        if self.tracer.is_on() {
            let used = self.ips[ip].buffers[lane].used();
            self.tracer.buffer_level(ip, lane, sched.now(), used);
        }
        if self.audit.is_on() {
            let b = &self.ips[ip].buffers[lane];
            let (occupancy, capacity) = (b.used() + b.reserved(), b.capacity());
            self.audit.buffer_occupancy(ip, lane, occupancy, capacity);
        }
        self.kick(ip);
        self.drain_kicks(sched);
    }

    // ------------------------------------------------------------------
    // Reporting
    // ------------------------------------------------------------------

    fn build_report(&mut self, events: u64) -> SystemReport {
        let end = self.end;
        for cpu in &mut self.cpus {
            cpu.finalize(end);
        }

        let mut frames_sourced = 0;
        let mut frames_completed = 0;
        let mut frames_violated = 0;
        let mut frames_dropped = 0;
        let mut flow_time_sum_ns = 0u128;
        let mut flow_time_count = 0u64;
        let mut flow_reports = Vec::new();
        let mut all_ft_samples: Vec<u64> = Vec::new();

        for f in &self.flows {
            let mut fr = FlowReport {
                name: f.spec.name.clone(),
                frames_sourced: 0,
                frames_completed: 0,
                violations: 0,
                drops_at_source: 0,
                avg_flow_time: SimDelta::ZERO,
                p95_flow_time: SimDelta::ZERO,
                avg_cpu_per_frame: SimDelta::ZERO,
            };
            let mut ft_sum = 0u128;
            let mut cpu_sum = 0u128;
            let mut ft_samples: Vec<u64> = Vec::new();
            for k in 0..f.ledger.len() as u64 {
                if f.ledger.sourced(k) >= end {
                    continue; // sourced ahead of schedule, beyond the run
                }
                fr.frames_sourced += 1;
                cpu_sum += f.ledger.cpu_ns(k) as u128;
                if f.ledger.dropped(k) {
                    fr.drops_at_source += 1;
                }
                if f.ledger.violated(k, end) {
                    fr.violations += 1;
                }
                if let Some(ft) = f.ledger.flow_time(k) {
                    fr.frames_completed += 1;
                    ft_sum += ft.as_ns() as u128;
                    ft_samples.push(ft.as_ns());
                }
            }
            fr.p95_flow_time = SimDelta::from_ns(crate::trace::percentile_ns(
                ft_samples.iter().copied(),
                0.95,
            ));
            all_ft_samples.extend(ft_samples);
            if fr.frames_completed > 0 {
                fr.avg_flow_time = SimDelta::from_ns((ft_sum / fr.frames_completed as u128) as u64);
            }
            if fr.frames_sourced > 0 {
                fr.avg_cpu_per_frame =
                    SimDelta::from_ns((cpu_sum / fr.frames_sourced as u128) as u64);
            }
            frames_sourced += fr.frames_sourced;
            frames_completed += fr.frames_completed;
            frames_violated += fr.violations;
            frames_dropped += fr.drops_at_source;
            flow_time_sum_ns += ft_sum;
            flow_time_count += fr.frames_completed;
            flow_reports.push(fr);
        }

        let mut ip_reports = Vec::new();
        let mut ip_energy = 0.0;
        for ipr in &self.ips {
            let e = ipr.stats.energy_j(&ipr.cfg, end);
            ip_energy += e;
            if ipr.stats.frames > 0 || ipr.stats.active_ns_through(end) > 0 {
                ip_reports.push(IpReport {
                    kind: ipr.cfg.kind,
                    utilization: ipr.stats.utilization(end),
                    active_ns: ipr.stats.active_ns_through(end),
                    frames: ipr.stats.frames,
                    energy_j: e,
                    context_switches: ipr.stats.context_switches,
                });
            }
        }

        // Separate the media subsystem's CPU energy from the synthetic
        // background load's active energy.
        let cpu_energy_total: f64 = self.cpus.iter().map(|c| c.energy_j()).sum();
        let background_cpu_j = self.bg_active_ns as f64 / 1e9 * self.cfg.cpu.active_mw * 1e-3;
        let cpu_energy = (cpu_energy_total - background_cpu_j).max(0.0);
        let buffer_spec = cacti_lite::SramSpec::new(self.cfg.buffer_bytes_per_lane.max(64), 64);
        let buffer_j = buffer_spec.stream_energy_nj(self.buffer_bytes_streamed) * 1e-9;

        let peak = self.cfg.dram.peak_bandwidth_gbps();
        let mem_stats = self.mem.stats();
        let min_ft = all_ft_samples.iter().copied().min().unwrap_or(0);
        let max_ft = all_ft_samples.iter().copied().max().unwrap_or(0);
        SystemReport {
            scheme: self.cfg.scheme,
            duration: self.cfg.duration,
            energy: soc::EnergyBreakdown {
                cpu_j: cpu_energy,
                dram_j: mem_stats.energy_j(&self.cfg.dram, end),
                ip_j: ip_energy,
                sa_j: self.agent.energy_j(),
                buffer_j,
            },
            frames_sourced,
            frames_completed,
            frames_violated,
            frames_dropped_at_source: frames_dropped,
            interrupts: self.interrupts,
            rollbacks: self.rollbacks,
            cpu_active_ns: self
                .cpus
                .iter()
                .map(|c| c.active_ns)
                .sum::<u64>()
                .saturating_sub(self.bg_active_ns),
            cpu_instructions: self
                .cpus
                .iter()
                .map(|c| c.instructions)
                .sum::<u64>()
                .saturating_sub(self.bg_instructions),
            cpu_energy_j: cpu_energy,
            background_cpu_j,
            flows: flow_reports,
            ips: ip_reports,
            mem_avg_gbps: mem_stats.avg_bandwidth_gbps(end),
            mem_frac_above_80pct: mem_stats.fraction_of_time_above(end, peak, 0.8),
            mem_bw_windows_gbps: mem_stats.bandwidth_windows_gbps(end),
            mem_bytes: mem_stats.total_bytes(),
            sa_bytes: self.agent.bytes.get(),
            avg_flow_time: if flow_time_count > 0 {
                SimDelta::from_ns((flow_time_sum_ns / flow_time_count as u128) as u64)
            } else {
                SimDelta::ZERO
            },
            min_flow_time: SimDelta::from_ns(min_ft),
            p50_flow_time: SimDelta::from_ns(crate::trace::percentile_ns(
                all_ft_samples.iter().copied(),
                0.50,
            )),
            p95_flow_time: SimDelta::from_ns(crate::trace::percentile_ns(
                all_ft_samples.iter().copied(),
                0.95,
            )),
            p99_flow_time: SimDelta::from_ns(crate::trace::percentile_ns(
                all_ft_samples.into_iter(),
                0.99,
            )),
            max_flow_time: SimDelta::from_ns(max_ft),
            events,
        }
    }

    /// Streams per-frame flow times into `hist` without allocating.
    ///
    /// Campaign cells call this once per completed run, after
    /// [`SimCell::run`] and before the next [`SimCell::reset`] — reset
    /// rewinds the frame ledgers, discarding the samples. It walks the
    /// same ledger rows as `build_report`: frames sourced at or beyond
    /// the horizon are skipped, and only completed frames carry a flow
    /// time, so the recorded count equals the report's
    /// `frames_completed`. Observation-only: it takes `&self` and leaves
    /// the model untouched, so a harvested run stays digest-identical to
    /// an unharvested one.
    pub fn harvest_flow_times(&self, hist: &mut telemetry::LogHistogram) {
        let end = self.end;
        for f in &self.flows {
            for k in 0..f.ledger.len() as u64 {
                if f.ledger.sourced(k) >= end {
                    continue; // sourced ahead of schedule, beyond the run
                }
                if let Some(ft) = f.ledger.flow_time(k) {
                    hist.record(ft.as_ns());
                }
            }
        }
    }
}

impl Model for SystemSim {
    type Event = Ev;

    fn handle(&mut self, ev: Ev, sched: &mut Scheduler<Ev>) {
        // Arms in measured dispatch-frequency order (the per-kind counts
        // pinned in crates/bench/tests/counts.rs: MemTick and ComputeDone
        // dominate, Background and Rollback are rare), so the hottest
        // kinds take the earliest exits.
        match ev {
            Ev::MemTick => self.on_mem_tick(sched),
            Ev::ComputeDone { ip, lane } => self.on_compute_done(ip, lane, sched),
            Ev::SaArrival { ip, lane, bytes } => self.on_sa_arrival(ip, lane, bytes, sched),
            Ev::CpuDone { cpu } => self.on_cpu_done(cpu, sched),
            Ev::Source { flow } => {
                self.on_source(flow, sched);
                self.drain_kicks(sched);
            }
            Ev::Background { cpu } => self.on_background(cpu, sched),
            Ev::Rollback { flow, dispatch } => self.on_rollback(flow, dispatch, sched),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::Scheme;
    use crate::flow::FlowSpec;

    fn small_video(name: &str) -> FlowSpec {
        // 720p-ish: decoded 1.3 MB frames at 30 fps keep tests fast.
        FlowSpec::builder(name)
            .fps(30.0)
            .cpu_source(100_000, 200_000, 240_000)
            .stage(IpKind::Vd, 1_382_400)
            .stage(IpKind::Dc, 0)
            .build()
    }

    fn quick_cfg(scheme: Scheme) -> SystemConfig {
        let mut cfg = SystemConfig::table3(scheme);
        cfg.duration = SimDelta::from_ms(200);
        cfg
    }

    fn run(scheme: Scheme, flows: Vec<FlowSpec>) -> SystemReport {
        SystemSim::run(quick_cfg(scheme), flows)
    }

    /// The largest horizon builds a cell: its preallocation is capped
    /// (`FlowSpec::frames_hint`), not sized for the whole run.
    #[test]
    fn largest_horizon_cell_builds() {
        let mut cfg = quick_cfg(Scheme::Vip);
        cfg.duration = SimDelta::checked_from_ms(18_446_744_073_709).expect("largest horizon");
        let cell = SimCell::new(cfg, vec![small_video("v"), small_video("w")]);
        assert_eq!(cell.now(), SimTime::ZERO);
    }

    /// A reset cell must be bit-for-bit indistinguishable from a fresh
    /// one — across scheme changes and flow-count changes, since the
    /// matrix runner reuses one cell for every shape it is handed.
    #[test]
    fn reset_cell_matches_fresh_cell_bit_for_bit() {
        for &scheme in &Scheme::ALL {
            let cfg = quick_cfg(scheme);
            let flows = vec![small_video("v"), small_video("w")];
            let fresh = SystemSim::run(cfg.clone(), flows.clone());
            // Dirty the cell with a different shape first, so the test
            // also covers reshaping (flow count, lanes, scheme).
            let mut cell = SimCell::new(quick_cfg(Scheme::Baseline), vec![small_video("warm")]);
            let _ = cell.run();
            cell.reset(&cfg, &flows);
            assert_eq!(
                cell.run().digest(),
                fresh.digest(),
                "reset cell drifted from fresh under {scheme:?}"
            );
        }
    }

    /// Stepping to an arbitrary split instant and finishing must be
    /// bit-identical to running straight through.
    #[test]
    fn split_run_matches_straight_run_bit_for_bit() {
        for &scheme in &Scheme::ALL {
            let cfg = quick_cfg(scheme);
            let flows = vec![small_video("v"), small_video("w")];
            let straight = SystemSim::run(cfg.clone(), flows.clone());

            let mut cell = SimCell::new(cfg.clone(), flows.clone());
            cell.run_until(SimTime::from_ms(67));
            assert!(cell.now() <= SimTime::from_ms(67));
            cell.run_until(SimTime::from_ms(133));
            let split = cell.finish();
            assert_eq!(
                split.digest(),
                straight.digest(),
                "split run drifted under {scheme:?}"
            );
            assert_eq!(split.events, straight.events, "event calendar differs");
        }
    }

    /// Snapshot is non-destructive; restore — including a double restore
    /// from the same snapshot, and a restore into a differently-shaped
    /// warm cell — continues bit-identically to the source cell.
    #[test]
    fn snapshot_restore_branches_bit_identically() {
        let cfg = quick_cfg(Scheme::Vip);
        let flows = vec![small_video("a"), small_video("b")];
        let straight = SystemSim::run(cfg.clone(), flows.clone());

        let mut cell = SimCell::new(cfg.clone(), flows.clone());
        cell.run_until(SimTime::from_ms(100));
        let snap = cell.snapshot();
        assert_eq!(snap.now(), cell.now());
        assert!(snap.pending_events() > 0, "mid-run calendar is empty");
        assert_eq!(snap.end(), SimTime::ZERO + cfg.duration);

        // Snapshotting must not perturb the source cell.
        let source = cell.finish();
        assert_eq!(source.digest(), straight.digest(), "snapshot perturbed");

        // Restore into a warm cell of a *different* shape (other scheme,
        // one flow): the branch must still match the straight run.
        let mut branch = SimCell::new(quick_cfg(Scheme::Baseline), vec![small_video("warm")]);
        branch.run_until(SimTime::from_ms(40));
        branch.restore(&snap);
        assert_eq!(branch.now(), snap.now());
        assert_eq!(
            branch.finish().digest(),
            straight.digest(),
            "restored branch drifted"
        );

        // Double restore: the snapshot is reusable, and a finished cell
        // can be rewound through it.
        branch.restore(&snap);
        assert_eq!(
            branch.finish().digest(),
            straight.digest(),
            "second restore drifted"
        );
    }

    /// A finished cell snapshots too: the restored cell is immediately
    /// harvestable, with ledgers identical to the source's.
    #[test]
    fn snapshot_of_finished_cell_restores_finished() {
        let cfg = quick_cfg(Scheme::Vip);
        let flows = vec![small_video("a")];
        let mut cell = SimCell::new(cfg.clone(), flows.clone());
        let report = cell.finish();
        let snap = cell.snapshot();

        let mut other = SimCell::new(quick_cfg(Scheme::Baseline), vec![small_video("x")]);
        other.restore(&snap);
        let mut from_src = telemetry::LogHistogram::new();
        let mut from_restored = telemetry::LogHistogram::new();
        cell.harvest_flow_times(&mut from_src).expect("finished");
        other
            .harvest_flow_times(&mut from_restored)
            .expect("restored cell is finished");
        assert_eq!(from_src.count(), report.frames_completed);
        assert_eq!(from_src.count(), from_restored.count());
        assert_eq!(from_src.sum(), from_restored.sum());
    }

    /// Post-run accessors refuse partial runs in every pre-report phase.
    #[test]
    fn post_run_accessors_guard_incomplete_runs() {
        let cfg = quick_cfg(Scheme::Vip);
        let flows = vec![small_video("a")];
        let mut cell = SimCell::new(cfg, flows);
        let mut hist = telemetry::LogHistogram::new();
        assert_eq!(
            cell.harvest_flow_times(&mut hist),
            Err(RunIncomplete),
            "fresh cell harvested"
        );
        cell.run_until(SimTime::from_ms(50));
        assert_eq!(
            cell.harvest_flow_times(&mut hist),
            Err(RunIncomplete),
            "mid-run cell harvested"
        );
        assert_eq!(cell.flow_traces().err(), Some(RunIncomplete));
        let report = cell.finish();
        cell.harvest_flow_times(&mut hist).expect("finished");
        let traces = cell.flow_traces().expect("finished");
        assert_eq!(traces.len(), 1);
        assert_eq!(hist.count(), report.frames_completed);
    }

    /// The harvest hook observes; it must never perturb the simulation,
    /// and its sample count must agree with the report it rides along.
    #[test]
    fn harvest_flow_times_is_digest_neutral_and_counts_completions() {
        let cfg = quick_cfg(Scheme::Vip);
        let flows = vec![small_video("a"), small_video("b")];
        let plain = SystemSim::run(cfg.clone(), flows.clone());

        let mut cell = SimCell::new(cfg.clone(), flows.clone());
        let report = cell.run();
        let mut hist = telemetry::LogHistogram::new();
        cell.harvest_flow_times(&mut hist)
            .expect("finished run harvests");
        assert_eq!(
            report.digest(),
            plain.digest(),
            "harvesting perturbed the run"
        );
        assert_eq!(
            hist.count(),
            report.frames_completed,
            "harvest walked a different frame set than the report"
        );
        assert!(hist.count() > 0, "nothing completed in the fixture run");
        // Mean flow time from the exact-sum histogram must agree with the
        // report's average to within integer truncation.
        let report_avg = report.avg_flow_time.as_ns();
        let hist_avg = (hist.sum() / hist.count() as u128) as u64;
        assert_eq!(hist_avg, report_avg, "flow-time sums disagree");

        // Harvesting twice into the same histogram just doubles it —
        // the hook is read-only on the model.
        cell.harvest_flow_times(&mut hist)
            .expect("finished run harvests");
        assert_eq!(hist.count(), 2 * report.frames_completed);

        // After a reset the run is no longer complete: the lifecycle
        // guard refuses to harvest a partial (here: empty) ledger.
        cell.reset(&cfg, &flows);
        let mut empty = telemetry::LogHistogram::new();
        assert_eq!(cell.harvest_flow_times(&mut empty), Err(RunIncomplete));
        assert_eq!(empty.count(), 0, "failed harvest touched the histogram");
    }

    /// A freed slot's key must go stale: once the slot is reused, the old
    /// generation's key misses instead of aliasing the new tag (ABA).
    #[test]
    fn fetch_slab_generation_prevents_aba() {
        let mut slab = FetchSlab::default();
        let tag = |ip| FetchTag {
            ip,
            lane: 0,
            bytes: 64,
            side: false,
        };
        let k0 = slab.alloc(tag(1));
        assert_eq!(slab.take(k0).expect("live key").ip, 1);
        let k1 = slab.alloc(tag(2));
        assert_eq!(k1 as u32, k0 as u32, "freed slot must be reused");
        assert_ne!(k1, k0, "reuse must bump the generation");
        assert!(slab.take(k0).is_none(), "stale key aliased a reused slot");
        assert_eq!(slab.take(k1).expect("live key").ip, 2);
        assert!(
            slab.take(k1).is_none(),
            "a taken key must not resolve twice"
        );
        assert!(slab.take(u64::from(u32::MAX)).is_none(), "out of range");
    }

    /// The tracer observes; it must never perturb the simulation.
    #[cfg(feature = "trace")]
    #[test]
    fn traced_run_is_bit_identical_and_exports_valid_json() {
        let flows = || vec![small_video("a"), small_video("b")];
        let plain = SystemSim::run(quick_cfg(Scheme::Vip), flows());
        let mut cell = SimCell::new(quick_cfg(Scheme::Vip), flows());
        let out = cell.runner().traced(1 << 16).run();
        let (traced, session) = (out.report, out.trace.expect("traced run"));
        assert_eq!(plain.digest(), traced.digest(), "tracing perturbed the run");

        assert!(!session.is_empty(), "nothing recorded");
        assert!(session.engine_dispatches() > 0, "dispatch hook never fired");
        let json = session.export_chrome_json();
        let summary = telemetry::validate_chrome_trace(&json).expect("valid chrome trace");
        assert!(summary.spans > 0, "no compute/transfer spans");
        assert!(summary.counters > 0, "no counter samples");
        assert!(summary.instants > 0, "no instants (irq/frame marks)");

        // The counting hook observes too, and sees every dispatch.
        let out = SimCell::new(quick_cfg(Scheme::Vip), flows())
            .runner()
            .counted()
            .run();
        let counts = out.counts.expect("counted run");
        assert_eq!(
            plain.digest(),
            out.report.digest(),
            "counting perturbed the run"
        );
        assert_eq!(counts.total(), out.report.events);
    }

    /// The auditor observes; it must never perturb the simulation.
    #[cfg(feature = "audit")]
    #[test]
    fn audited_run_is_bit_identical_and_every_invariant_is_checked() {
        let flows = || vec![small_video("a"), small_video("b")];
        let plain = SystemSim::run(quick_cfg(Scheme::Vip), flows());
        let mut cell = SimCell::new(quick_cfg(Scheme::Vip), flows());
        let out = cell.runner().audited().run();
        let (audited, summary) = (out.report, out.audit.expect("audited run"));
        assert_eq!(
            plain.digest(),
            audited.digest(),
            "auditing perturbed the run"
        );

        assert_eq!(
            summary.time_checks, audited.events,
            "every dispatched event must pass the monotonicity check"
        );
        assert!(summary.buffer_checks > 0, "buffer hook never fired");
        assert!(summary.conservation_checks > 0, "ledger hook never fired");
        // The ledger counts every completion; the report additionally
        // excludes frames speculated beyond the run horizon, so it can
        // only be smaller.
        assert!(summary.frames_completed >= audited.frames_completed);
        assert_eq!(
            summary.frames_dispatched,
            summary.frames_completed + summary.frames_in_flight,
            "conservation must balance at end of run"
        );
        // Two flows share Vd/Dc under VIP's hardware EDF: contended picks
        // must have exercised the deadline-order check.
        assert!(summary.edf_checks > 0, "EDF hook never fired");
    }

    /// 0 < min ≤ p50 ≤ p95 ≤ p99 ≤ max, and the fields added after the
    /// golden table was frozen do not feed the digest.
    #[test]
    fn flow_time_percentiles_are_ordered() {
        let rep = run(Scheme::Baseline, vec![small_video("v")]);
        assert!(rep.min_flow_time.as_ns() > 0);
        assert!(rep.min_flow_time <= rep.p50_flow_time);
        assert!(rep.p50_flow_time <= rep.p95_flow_time);
        assert!(rep.p95_flow_time <= rep.p99_flow_time);
        assert!(rep.p99_flow_time <= rep.max_flow_time);

        let mut tweaked = rep.clone();
        tweaked.min_flow_time = SimDelta::ZERO;
        tweaked.p50_flow_time = SimDelta::ZERO;
        tweaked.p99_flow_time = SimDelta::ZERO;
        tweaked.max_flow_time = SimDelta::ZERO;
        assert_eq!(
            rep.digest(),
            tweaked.digest(),
            "min/p50/p99/max must not be part of the frozen golden digest"
        );
    }

    #[test]
    fn baseline_single_video_completes_frames() {
        let rep = run(Scheme::Baseline, vec![small_video("v")]);
        // 200 ms at 30 fps ≈ 6 frames.
        assert!(rep.frames_sourced >= 5, "sourced {}", rep.frames_sourced);
        assert!(
            rep.frames_completed >= rep.frames_sourced - 2,
            "completed {} of {}",
            rep.frames_completed,
            rep.frames_sourced
        );
        assert_eq!(rep.frames_dropped_at_source, 0);
        assert!(rep.energy.total_j() > 0.0);
        assert!(rep.interrupts > 0);
    }

    #[test]
    fn every_scheme_completes_the_simple_workload() {
        for &scheme in &Scheme::ALL {
            let rep = run(scheme, vec![small_video("v")]);
            assert!(
                rep.frames_completed > 0,
                "{scheme}: no frames completed ({} sourced)",
                rep.frames_sourced
            );
        }
    }

    #[test]
    fn chained_schemes_move_less_dram_data() {
        let base = run(Scheme::Baseline, vec![small_video("v")]);
        let chained = run(Scheme::IpToIp, vec![small_video("v")]);
        // Baseline: VD writes + DC reads the decoded frame through DRAM;
        // chained: only the bitstream read remains.
        assert!(
            chained.mem_bytes * 3 < base.mem_bytes,
            "chained {} vs baseline {}",
            chained.mem_bytes,
            base.mem_bytes
        );
    }

    #[test]
    fn bursts_reduce_interrupts() {
        let base = run(Scheme::Baseline, vec![small_video("v")]);
        let burst = run(Scheme::FrameBurst, vec![small_video("v")]);
        assert!(
            (burst.interrupts as f64) < base.interrupts as f64 / 2.5,
            "burst {} vs base {}",
            burst.interrupts,
            base.interrupts
        );
    }

    #[test]
    fn chaining_reduces_interrupts_per_frame() {
        let base = run(Scheme::Baseline, vec![small_video("v")]);
        let chained = run(Scheme::IpToIp, vec![small_video("v")]);
        // Two interrupts per frame (one per stage) vs one per frame.
        let base_rate = base.interrupts as f64 / base.frames_completed.max(1) as f64;
        let chained_rate = chained.interrupts as f64 / chained.frames_completed.max(1) as f64;
        assert!(chained_rate < base_rate, "{chained_rate} !< {base_rate}");
    }

    #[test]
    fn bursts_reduce_cpu_activity() {
        let base = run(Scheme::Baseline, vec![small_video("v")]);
        let burst = run(Scheme::FrameBurst, vec![small_video("v")]);
        assert!(
            burst.cpu_active_ns < base.cpu_active_ns,
            "burst {} vs base {}",
            burst.cpu_active_ns,
            base.cpu_active_ns
        );
        assert!(burst.cpu_instructions < base.cpu_instructions);
    }

    #[test]
    fn vip_uses_multiple_lanes_under_contention() {
        let flows = vec![small_video("a"), small_video("b")];
        let rep = run(Scheme::Vip, flows);
        assert!(rep.frames_completed > 0);
        // Both flows share VD and DC; EDF must interleave them.
        let vd = rep
            .ips
            .iter()
            .find(|r| r.kind == IpKind::Vd)
            .expect("VD used");
        assert!(vd.frames > 0);
    }

    #[test]
    fn ideal_memory_raises_utilization() {
        let mut real = quick_cfg(Scheme::Baseline);
        let mut ideal = quick_cfg(Scheme::Baseline);
        ideal.dram.ideal = true;
        // Four copies stress the memory system.
        let flows = |n: usize| (0..n).map(|i| small_video(&format!("v{i}"))).collect();
        real.duration = SimDelta::from_ms(200);
        ideal.duration = SimDelta::from_ms(200);
        let r = SystemSim::run(real, flows(4));
        let i = SystemSim::run(ideal, flows(4));
        let ur = r.ip_utilization(IpKind::Vd).expect("vd");
        let ui = i.ip_utilization(IpKind::Vd).expect("vd");
        assert!(ui > ur, "ideal {ui} !> real {ur}");
        assert!(ui > 0.9, "ideal memory utilization {ui}");
    }

    #[test]
    fn frames_arrive_in_order_per_flow() {
        for &scheme in &Scheme::ALL {
            let rep = run(scheme, vec![small_video("v"), small_video("w")]);
            let _ = rep;
        }
        // Order is checked structurally: records are indexed by frame
        // number and stages record spans monotonically. Verify on one run:
        let sim_cfg = quick_cfg(Scheme::Vip);
        let rep = SystemSim::run(sim_cfg, vec![small_video("v")]);
        let f = &rep.flows[0];
        assert!(f.frames_completed > 0);
    }

    #[test]
    fn sensor_flow_records_and_completes() {
        let cam = FlowSpec::builder("record")
            .fps(30.0)
            .sensor_source()
            .stage(IpKind::Cam, 1_000_000)
            .stage(IpKind::Ve, 60_000)
            .stage(IpKind::Mmc, 0)
            .deadline_periods(8.0)
            .build();
        for &scheme in &Scheme::ALL {
            let rep = run(scheme, vec![cam.clone()]);
            assert!(rep.frames_completed > 0, "{scheme}: camera flow stalled");
        }
    }

    #[test]
    fn hol_blocking_hurts_burst_qos_and_vip_recovers() {
        // Two flows sharing VD and DC at 30 fps with tight deadlines.
        let flows = || vec![small_video("a"), small_video("b")];
        let burst = run(Scheme::IpToIpBurst, flows());
        let vip = run(Scheme::Vip, flows());
        assert!(
            vip.frames_violated <= burst.frames_violated,
            "vip {} violations vs burst {}",
            vip.frames_violated,
            burst.frames_violated
        );
    }

    #[test]
    fn deterministic_across_runs() {
        let a = run(Scheme::Vip, vec![small_video("v"), small_video("w")]);
        let b = run(Scheme::Vip, vec![small_video("v"), small_video("w")]);
        assert_eq!(a.frames_completed, b.frames_completed);
        assert_eq!(a.interrupts, b.interrupts);
        assert_eq!(a.events, b.events);
        assert!((a.energy.total_j() - b.energy.total_j()).abs() < 1e-12);
    }

    #[test]
    fn touches_roll_back_speculated_bursts() {
        use crate::flow::BurstGate;
        let gated = FlowSpec::builder("game")
            .fps(60.0)
            .cpu_source(500_000, 400_000, 480_000)
            .stage(IpKind::Gpu, 2_000_000)
            .stage(IpKind::Dc, 0)
            .gate(BurstGate::Blocked(vec![
                (SimTime::from_ms(40), SimTime::from_ms(60)),
                (SimTime::from_ms(120), SimTime::from_ms(140)),
            ]))
            .build();
        let mut cfg = quick_cfg(Scheme::Vip);
        cfg.duration = SimDelta::from_ms(200);
        let with = SystemSim::run(cfg.clone(), vec![gated.clone()]);
        assert!(with.rollbacks > 0, "touches inside bursts must roll back");
        cfg.rollback = false;
        let without = SystemSim::run(cfg, vec![gated]);
        assert_eq!(without.rollbacks, 0);
        assert!(
            with.cpu_instructions > without.cpu_instructions,
            "rollback recomputation costs instructions"
        );
    }

    #[test]
    fn run_detailed_returns_consistent_traces() {
        let (rep, traces) = SystemSim::run_detailed(
            quick_cfg(Scheme::Vip),
            vec![small_video("v"), small_video("w")],
        );
        assert_eq!(traces.len(), 2);
        let finished: u64 = traces
            .iter()
            .flat_map(|t| &t.records)
            .filter(|r| r.finished.is_some())
            .count() as u64;
        assert!(
            finished >= rep.frames_completed,
            "{finished} vs {}",
            rep.frames_completed
        );
        // Stage spans are causally ordered within each record.
        for t in &traces {
            for r in &t.records {
                let mut last_end = None;
                for span in r.stage_spans.iter().flatten() {
                    assert!(span.0 <= span.1, "span begins after it ends");
                    if let Some(prev) = last_end {
                        assert!(span.1 >= prev, "stage completions out of order");
                    }
                    last_end = Some(span.1);
                }
                if let (Some(f), Some(last)) = (r.finished, last_end) {
                    assert_eq!(f, last, "finish is the last stage's end");
                }
            }
        }
        // p95 is at least the mean-ish for a spread distribution.
        assert!(rep.p95_flow_time >= rep.avg_flow_time / 2);
    }

    /// A superseded MemTick (re-armed to an earlier instant) must skip the
    /// completion poll without changing the event calendar: same number of
    /// MemTick dispatches, same report digest as the eager re-poll.
    #[test]
    fn stale_mem_ticks_skip_the_poll_without_changing_the_run() {
        // FrameBurst on two channels: doorbell-driven fetches land while
        // refresh/power-down skew the channels, so some re-arms supersede a
        // pending tick. (Line interleaving keeps channels symmetric, which
        // makes stale ticks rare — this geometry reliably produces them.)
        let flows = || (0..4).map(|i| small_video(&format!("v{i}"))).collect();
        let cfg = || {
            let mut c = quick_cfg(Scheme::FrameBurst);
            c.dram.channels = 2;
            c
        };
        let run_mode = |eager: bool| {
            let mut sim = SystemSim::new(cfg(), flows());
            sim.eager_mem_poll = eager;
            let end = sim.end;
            let mut engine = Engine::new(sim);
            SystemSim::seed(&mut engine);
            engine.run_until(end);
            let events = engine.scheduler().events_dispatched();
            let mut sim = engine.into_model();
            let report = sim.build_report(events);
            (report, sim.mem_ticks_fired, sim.mem_ticks_stale)
        };
        let (lazy_rep, lazy_fired, lazy_stale) = run_mode(false);
        let (eager_rep, eager_fired, eager_stale) = run_mode(true);
        assert!(
            lazy_stale > 0,
            "two-channel contention must supersede some ticks"
        );
        assert_eq!(
            lazy_fired, eager_fired,
            "skipping the poll must not change MemTick dispatches"
        );
        assert_eq!(lazy_stale, eager_stale);
        assert_eq!(lazy_rep.events, eager_rep.events);
        assert_eq!(
            lazy_rep.digest(),
            eager_rep.digest(),
            "stale-tick skip perturbed the simulation"
        );
    }

    #[test]
    fn source_queue_limit_drops_when_overloaded() {
        // A flow whose chain cannot keep up: enormous frames at 60 fps
        // (DC scanout alone takes ~50 ms per 200 MB frame).
        let heavy = FlowSpec::builder("heavy")
            .fps(60.0)
            .cpu_source(500_000, 200_000, 240_000)
            .stage(IpKind::Vd, 200_000_000)
            .stage(IpKind::Dc, 0)
            .build();
        let mut cfg = quick_cfg(Scheme::Baseline);
        cfg.duration = SimDelta::from_ms(400);
        let rep = SystemSim::run(cfg, vec![heavy]);
        assert!(
            rep.frames_dropped_at_source > 0,
            "expected source drops under overload"
        );
        assert!(rep.frames_violated > 0);
    }
}
