//! The full memory system: address mapping + per-channel controllers +
//! request reassembly + statistics.

use desim::SimTime;

use crate::channel::{Burst, Channel, Pending, RowOutcome};
use crate::config::DramConfig;
use crate::mapping::AddressMapper;
#[cfg(feature = "trace")]
use crate::probe::{DramProbe, ProbeSlot};
use crate::request::{Completion, MemOp, MemRequest};
use crate::stats::MemStats;

#[derive(Debug, Clone)]
struct Parent {
    tag: u64,
    op: MemOp,
    submitted: SimTime,
    remaining: usize,
}

/// The memory system of the platform: splits requests into per-channel line
/// bursts, services them FR-FCFS per channel, and reassembles completions.
///
/// Engine-agnostic driving contract:
///
/// 1. [`submit`](MemorySystem::submit) requests at the current time;
/// 2. poll [`next_completion_time`](MemorySystem::next_completion_time) and
///    arrange to call back then;
/// 3. [`collect_completions`](MemorySystem::collect_completions) at (or
///    after) that time to retrieve finished requests — this also lets
///    queued work begin, so re-check `next_completion_time` afterwards.
///
/// See the [crate-level example](crate).
#[derive(Debug)]
pub struct MemorySystem {
    cfg: DramConfig,
    mapper: AddressMapper,
    channels: Vec<Channel>,
    parents: Vec<Parent>,
    free_parents: Vec<usize>,
    /// Earliest in-flight completion across channels: lowered as bursts
    /// issue, recomputed once per collection that retires any.
    earliest: Option<SimTime>,
    /// Issue counter; a burst's number breaks ties between channels'
    /// completions at one instant.
    seq: u64,
    /// One collection's retired bursts with their channels, reused. Each
    /// channel's in-flight FIFO completes in order, so sorting the at most
    /// two per channel by `(done, seq)` gives the global completion order.
    due: Vec<(Pending, usize)>,
    ready: Vec<Completion>,
    stats: MemStats,
    #[cfg(feature = "trace")]
    probe: ProbeSlot,
}

/// Deep-copies every piece of timing state. The trace-only probe closure
/// is an observer, not simulation state, so a fresh clone starts with an
/// empty probe slot and `clone_from` leaves the destination's installed
/// probe untouched — observers are digest-neutral by contract either way.
impl Clone for MemorySystem {
    fn clone(&self) -> Self {
        MemorySystem {
            cfg: self.cfg.clone(),
            mapper: self.mapper.clone(),
            channels: self.channels.clone(),
            parents: self.parents.clone(),
            free_parents: self.free_parents.clone(),
            earliest: self.earliest,
            seq: self.seq,
            due: Vec::with_capacity(self.due.capacity()),
            ready: self.ready.clone(),
            stats: self.stats.clone(),
            #[cfg(feature = "trace")]
            probe: ProbeSlot::default(),
        }
    }

    fn clone_from(&mut self, src: &Self) {
        self.cfg.clone_from(&src.cfg);
        self.mapper.clone_from(&src.mapper);
        self.channels.clone_from(&src.channels);
        self.parents.clone_from(&src.parents);
        self.free_parents.clone_from(&src.free_parents);
        self.earliest = src.earliest;
        self.seq = src.seq;
        self.ready.clone_from(&src.ready);
        self.stats.clone_from(&src.stats);
    }
}

impl MemorySystem {
    /// Creates a memory system.
    ///
    /// # Panics
    ///
    /// Panics if the configuration is invalid.
    pub fn new(cfg: DramConfig) -> Self {
        cfg.validate().expect("invalid DRAM config");
        let mapper = AddressMapper::new(&cfg);
        let channels: Vec<Channel> = (0..cfg.channels)
            .map(|_| Channel::new(cfg.clone()))
            .collect();
        MemorySystem {
            due: Vec::with_capacity(2 * cfg.channels),
            cfg,
            mapper,
            channels,
            parents: Vec::new(),
            free_parents: Vec::new(),
            earliest: None,
            seq: 0,
            ready: Vec::new(),
            stats: MemStats::new(),
            #[cfg(feature = "trace")]
            probe: ProbeSlot::default(),
        }
    }

    /// Installs a probe callback invoked at every
    /// [`DramProbe`](crate::probe::DramProbe) observation point. One probe
    /// at a time; installing again replaces the previous one.
    #[cfg(feature = "trace")]
    pub fn set_probe(&mut self, probe: Box<dyn FnMut(DramProbe) + Send + Sync>) {
        self.probe.0 = Some(probe);
    }

    /// The configuration this system was built with.
    pub fn config(&self) -> &DramConfig {
        &self.cfg
    }

    /// Accumulated statistics.
    ///
    /// Takes `&mut self`: the refresh/power counters live on the channels
    /// during the run and are folded into the stats block lazily here,
    /// keeping them off the per-pump hot path.
    pub fn stats(&mut self) -> &MemStats {
        self.sync_channel_stats();
        &self.stats
    }

    /// Folds the per-channel refresh and power-state counters into the
    /// stats block. Counters are monotonic, so booking the delta at read
    /// time yields the same totals as the old per-pump sync.
    fn sync_channel_stats(&mut self) {
        let mut refreshes = 0u64;
        let mut standby_ns = 0u64;
        let mut powerdown_ns = 0u64;
        let mut powerdown_exits = 0u64;
        for c in &self.channels {
            refreshes += c.refreshes;
            standby_ns += c.standby_ns;
            powerdown_ns += c.powerdown_ns;
            powerdown_exits += c.powerdown_exits;
        }
        let sync = |total: u64, counter: &mut desim::stats::Counter| {
            let booked = counter.get();
            if total > booked {
                counter.add(total - booked);
            }
        };
        sync(refreshes, &mut self.stats.refreshes);
        sync(standby_ns, &mut self.stats.standby_ns);
        sync(powerdown_ns, &mut self.stats.powerdown_ns);
        sync(powerdown_exits, &mut self.stats.powerdown_exits);
    }

    /// Total bursts currently queued across channels (diagnostics).
    pub fn queued_bursts(&self) -> usize {
        self.channels.iter().map(|c| c.queued()).sum()
    }

    /// Submits a request. Completion is reported through
    /// [`collect_completions`](MemorySystem::collect_completions).
    pub fn submit(&mut self, now: SimTime, req: MemRequest) {
        self.stats.traffic.record(now, req.bytes as f64);
        match req.op {
            MemOp::Read => self.stats.bytes_read.add(req.bytes),
            MemOp::Write => self.stats.bytes_written.add(req.bytes),
        }

        if self.cfg.ideal {
            // Zero service time; account and complete immediately.
            self.stats.requests.incr();
            self.ready.push(Completion {
                tag: req.tag,
                op: req.op,
                at: now,
                submitted: now,
            });
            return;
        }

        let parent = match self.free_parents.pop() {
            Some(i) => {
                self.parents[i] = Parent {
                    tag: req.tag,
                    op: req.op,
                    submitted: now,
                    remaining: 0,
                };
                i
            }
            None => {
                self.parents.push(Parent {
                    tag: req.tag,
                    op: req.op,
                    submitted: now,
                    remaining: 0,
                });
                self.parents.len() - 1
            }
        };
        // Bursts go straight from the split into their channels' queues.
        let mut touched = 0u64;
        let mut bursts = 0;
        let channels = &mut self.channels;
        self.mapper
            .visit_bursts(req.addr, req.bytes, self.cfg.line_bytes, |place, lines| {
                touched |= 1 << place.channel;
                bursts += 1;
                channels[place.channel].enqueue(Burst {
                    bank: place.bank,
                    row: place.row,
                    lines,
                    op: req.op,
                    parent,
                });
            });
        self.parents[parent].remaining = bursts;
        self.pump(now, touched);
    }

    /// Lets idle channels pick up queued work; called internally on submit
    /// and collection with the bitmask of channels touched since the last
    /// pump. Targeting is exact, not heuristic: `try_issue` refuses only on
    /// a full pipeline or an empty queue, and both change solely through
    /// that channel's own `enqueue`/`pop_done` — after a pump every
    /// channel is issue-exhausted, so an untouched channel still has
    /// nothing to issue. Bits are drained in ascending channel order so
    /// `seq` assignment (the completion-merge tie-break) is identical to a
    /// full scan.
    fn pump(&mut self, now: SimTime, mut touched: u64) {
        while touched != 0 {
            let ci = touched.trailing_zeros() as usize;
            touched &= touched - 1;
            let ch = &mut self.channels[ci];
            while let Some(issued) = ch.try_issue(now, self.seq) {
                self.seq += 1;
                match issued.outcome {
                    RowOutcome::Hit => self.stats.row_hits.incr(),
                    RowOutcome::Empty => self.stats.row_empties.incr(),
                    RowOutcome::Conflict => self.stats.row_conflicts.incr(),
                }
                if issued.activated {
                    self.stats.activates.incr();
                }
                self.stats.busy_ns += (self.cfg.t_line * issued.burst.lines).as_ns();
                #[cfg(feature = "trace")]
                if let Some(p) = self.probe.0.as_mut() {
                    let xfer = (self.cfg.t_line * issued.burst.lines).as_ns();
                    p(DramProbe::Issue {
                        channel: ci,
                        op: issued.burst.op,
                        lines: issued.burst.lines,
                        start: SimTime::from_ns(issued.done.as_ns().saturating_sub(xfer)),
                        done: issued.done,
                    });
                    p(DramProbe::QueueDepth {
                        channel: ci,
                        at: now,
                        depth: ch.queued(),
                    });
                }
                if self.earliest.is_none_or(|t| issued.done < t) {
                    self.earliest = Some(issued.done);
                }
            }
        }
    }

    /// The earliest instant at which a completion will be available, if any
    /// work is pending. O(1): reads the incrementally maintained cache.
    pub fn next_completion_time(&self) -> Option<SimTime> {
        let inflight = self.earliest;
        let ready = self.ready.first().map(|c| c.at);
        match (inflight, ready) {
            (Some(a), Some(b)) => Some(a.min(b)),
            (a, b) => a.or(b),
        }
    }

    /// Collects every request that has finished by `now`. Also admits
    /// queued bursts into freed channels, so callers should re-check
    /// [`next_completion_time`](MemorySystem::next_completion_time) after
    /// calling this.
    pub fn collect_completions(&mut self, now: SimTime) -> Vec<Completion> {
        let mut out = Vec::new();
        self.collect_completions_into(now, &mut out);
        out
    }

    /// Like [`collect_completions`](MemorySystem::collect_completions),
    /// but appends into a caller-owned buffer so a driving loop can reuse
    /// one allocation across ticks.
    pub fn collect_completions_into(&mut self, now: SimTime, out: &mut Vec<Completion>) {
        out.append(&mut self.ready);
        if self.earliest.is_none_or(|t| t > now) {
            return;
        }
        let freed = self.gather_due(now);
        self.due.sort_unstable_by_key(|&(p, _)| (p.done, p.seq));
        for &(burst, _ci) in &self.due {
            #[cfg(feature = "trace")]
            if let Some(p) = self.probe.0.as_mut() {
                p(DramProbe::Complete {
                    channel: _ci,
                    at: burst.done,
                });
            }
            let p = &mut self.parents[burst.parent];
            p.remaining -= 1;
            if p.remaining == 0 {
                self.stats.requests.incr();
                out.push(Completion {
                    tag: p.tag,
                    op: p.op,
                    at: burst.done,
                    submitted: p.submitted,
                });
                self.free_parents.push(burst.parent);
            }
        }
        self.due.clear();
        self.pump(now, freed);
    }

    /// Moves every burst finished by `now` from every channel's in-flight
    /// FIFO into `due`, and recomputes `earliest` from the bursts still in
    /// flight. Returns the bitmask of channels that freed a slot.
    fn gather_due(&mut self, now: SimTime) -> u64 {
        let mut freed = 0u64;
        self.earliest = None;
        for (ci, ch) in self.channels.iter_mut().enumerate() {
            while let Some(burst) = ch.pop_done(now) {
                self.due.push((burst, ci));
                freed |= 1 << ci;
            }
            if let Some(t) = ch.next_done() {
                if self.earliest.is_none_or(|e| t < e) {
                    self.earliest = Some(t);
                }
            }
        }
        freed
    }

    /// Runs the memory system until every submitted request has completed,
    /// returning all completions. Useful for tests and standalone studies.
    pub fn drain(&mut self, mut now: SimTime) -> Vec<Completion> {
        let mut out = Vec::new();
        while let Some(t) = self.next_completion_time() {
            now = now.max(t);
            out.extend(self.collect_completions(now));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn system() -> MemorySystem {
        MemorySystem::new(DramConfig::lpddr3_table3())
    }

    #[test]
    fn single_request_completes_once() {
        let mut mem = system();
        mem.submit(SimTime::ZERO, MemRequest::new(0, 1024, MemOp::Read, 9));
        let done = mem.drain(SimTime::ZERO);
        assert_eq!(done.len(), 1);
        assert_eq!(done[0].tag, 9);
        assert!(done[0].at > SimTime::ZERO);
        assert_eq!(mem.stats().requests.get(), 1);
        assert_eq!(mem.stats().bytes_read.get(), 1024);
    }

    #[test]
    fn all_requests_eventually_complete() {
        let mut mem = system();
        for i in 0..100u64 {
            mem.submit(
                SimTime::ZERO,
                MemRequest::new(i * 4096, 1024, MemOp::Write, i),
            );
        }
        let done = mem.drain(SimTime::ZERO);
        assert_eq!(done.len(), 100);
        let mut tags: Vec<u64> = done.iter().map(|c| c.tag).collect();
        tags.sort_unstable();
        assert_eq!(tags, (0..100).collect::<Vec<_>>());
        assert_eq!(mem.stats().bytes_written.get(), 100 * 1024);
        assert_eq!(mem.queued_bursts(), 0);
    }

    #[test]
    fn ideal_memory_completes_instantly() {
        let mut mem = MemorySystem::new(DramConfig::ideal());
        let t = SimTime::from_us(5);
        mem.submit(t, MemRequest::new(0, 4096, MemOp::Read, 1));
        assert_eq!(mem.next_completion_time(), Some(t));
        let done = mem.collect_completions(t);
        assert_eq!(done.len(), 1);
        assert_eq!(done[0].at, t);
        assert_eq!(done[0].latency_ns(), 0);
        // Traffic still accounted.
        assert_eq!(mem.stats().bytes_read.get(), 4096);
    }

    #[test]
    fn contention_inflates_latency() {
        // One lone request vs the same request behind a burst of traffic.
        let mut lone = system();
        lone.submit(SimTime::ZERO, MemRequest::new(0, 1024, MemOp::Read, 0));
        let lone_lat = lone.drain(SimTime::ZERO)[0].latency_ns();

        let mut busy = system();
        for i in 0..50u64 {
            busy.submit(
                SimTime::ZERO,
                MemRequest::new(i * 65536, 4096, MemOp::Write, 100 + i),
            );
        }
        busy.submit(SimTime::ZERO, MemRequest::new(0, 1024, MemOp::Read, 0));
        let done = busy.drain(SimTime::ZERO);
        let busy_lat = done.iter().find(|c| c.tag == 0).unwrap().latency_ns();
        assert!(
            busy_lat > 2 * lone_lat,
            "contended latency {busy_lat}ns vs lone {lone_lat}ns"
        );
    }

    #[test]
    fn sustained_bandwidth_is_near_peak_but_below_it() {
        let mut mem = system();
        // Stream 32 MB sequentially.
        let total: u64 = 32 * 1024 * 1024;
        let chunk = 4096u64;
        for i in 0..total / chunk {
            mem.submit(
                SimTime::ZERO,
                MemRequest::new(i * chunk, chunk, MemOp::Read, i),
            );
        }
        let done = mem.drain(SimTime::ZERO);
        let finish = done.iter().map(|c| c.at).max().unwrap();
        let gbps = total as f64 / finish.as_secs() / 1e9;
        let peak = mem.config().peak_bandwidth_gbps();
        assert!(gbps < peak, "cannot exceed peak");
        assert!(
            gbps > peak * 0.7,
            "sequential stream only {gbps:.1} GB/s of {peak} peak"
        );
    }

    #[test]
    fn parent_slots_are_recycled() {
        let mut mem = system();
        for round in 0..10u64 {
            mem.submit(SimTime::ZERO, MemRequest::new(0, 64, MemOp::Read, round));
            mem.drain(SimTime::ZERO);
        }
        assert!(
            mem.parents.len() <= 2,
            "parent table grew: {}",
            mem.parents.len()
        );
    }

    #[cfg(feature = "trace")]
    #[test]
    fn probe_sees_issue_and_complete_pairs() {
        use std::sync::{Arc, Mutex};
        let seen: Arc<Mutex<Vec<DramProbe>>> = Arc::new(Mutex::new(Vec::new()));
        let sink = Arc::clone(&seen);
        let mut mem = system();
        mem.set_probe(Box::new(move |p| sink.lock().unwrap().push(p)));
        mem.submit(SimTime::ZERO, MemRequest::new(0, 4096, MemOp::Read, 1));
        mem.drain(SimTime::ZERO);
        let probes = seen.lock().unwrap();
        let issues = probes
            .iter()
            .filter(|p| matches!(p, DramProbe::Issue { .. }))
            .count();
        let completes = probes
            .iter()
            .filter(|p| matches!(p, DramProbe::Complete { .. }))
            .count();
        assert!(issues > 0, "no issue probes");
        assert_eq!(issues, completes, "every issue must complete");
        for p in probes.iter() {
            if let DramProbe::Issue {
                start, done, lines, ..
            } = p
            {
                assert!(done > start);
                assert!(*lines > 0);
            }
        }
    }

    #[test]
    fn bandwidth_timeline_is_recorded() {
        let mut mem = system();
        mem.submit(
            SimTime::from_us(100),
            MemRequest::new(0, 1 << 20, MemOp::Read, 0),
        );
        mem.drain(SimTime::from_us(100));
        let w = mem.stats().bandwidth_windows_gbps(SimTime::from_ms(1));
        assert_eq!(w.len(), 1);
        assert!(w[0] > 0.0);
    }
}
