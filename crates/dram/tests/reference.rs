//! An executable reference model of the DRAM path, held to
//! [`MemorySystem`] exactly on random request streams over random
//! geometries.
//!
//! The model is deliberately naive, so that each of `MemorySystem`'s
//! shortcuts has a plain counterpart to answer to:
//!
//! * it splits a request line by line, coalescing lines that share
//!   `(channel, bank, row)` by a linear search (`AddressMapper::split_into`
//!   computes the bursts arithmetically);
//! * it refreshes window by window (`Channel::catch_up_refresh` applies
//!   every elapsed window at once);
//! * each channel's queue is a `Vec` scanned front to back for FR-FCFS;
//! * it pumps every channel after every submit and collection (the
//!   memory system pumps only the channels it touched);
//! * it finds the next completion, and each burst to retire, by scanning
//!   every in-flight burst of every channel (the memory system keeps
//!   per-channel FIFOs and a cached earliest completion);
//! * the driver ticks at every burst completion instant.
//!
//! The timing rules themselves (row outcomes, the power-down gap, the
//! command pipeline, `(done, seq)` completion order) are the model's
//! semantics and are restated here, not simplified.

use desim::check::forall;
use desim::rng::SplitMix64;
use desim::{SimDelta, SimTime};
use dram::{Completion, DramConfig, MemOp, MemRequest, MemStats, MemorySystem, PagePolicy};

/// Bursts a channel may have committed at once.
const PIPELINE_DEPTH: usize = 2;

/// Bandwidth-timeline window, as `MemStats` records it.
const WINDOW_NS: u64 = 1_000_000;

#[derive(Debug, Clone)]
struct Bank {
    open_row: Option<u64>,
    ready_at: u64,
}

#[derive(Debug, Clone)]
struct Burst {
    bank: usize,
    row: u64,
    lines: u64,
    req: usize,
}

#[derive(Debug, Clone)]
struct Channel {
    banks: Vec<Bank>,
    bus_free_at: u64,
    queue: Vec<Burst>,
    /// Committed bursts, `(done, seq, req)`, in issue order.
    in_flight: Vec<(u64, u64, usize)>,
    next_refresh: u64,
    last_service_end: u64,
    refreshes: u64,
    standby_ns: u64,
    powerdown_ns: u64,
    powerdown_exits: u64,
}

#[derive(Debug, Clone)]
struct Request {
    tag: u64,
    op: MemOp,
    submitted: u64,
    remaining: usize,
}

/// The naive model. Times are plain nanosecond counts.
struct Reference {
    cfg: DramConfig,
    channels: Vec<Channel>,
    requests: Vec<Request>,
    ready: Vec<Completion>,
    seq: u64,
    bytes_read: u64,
    bytes_written: u64,
    activates: u64,
    row_hits: u64,
    row_empties: u64,
    row_conflicts: u64,
    completed: u64,
    busy_ns: u64,
    /// Bytes submitted per 1 ms window.
    traffic: Vec<f64>,
}

impl Reference {
    fn new(cfg: DramConfig) -> Self {
        let channel = Channel {
            banks: vec![
                Bank {
                    open_row: None,
                    ready_at: 0,
                };
                cfg.banks
            ],
            bus_free_at: 0,
            queue: Vec::new(),
            in_flight: Vec::new(),
            next_refresh: cfg.t_refi.as_ns(),
            last_service_end: 0,
            refreshes: 0,
            standby_ns: 0,
            powerdown_ns: 0,
            powerdown_exits: 0,
        };
        Reference {
            channels: vec![channel; cfg.channels],
            cfg,
            requests: Vec::new(),
            ready: Vec::new(),
            seq: 0,
            bytes_read: 0,
            bytes_written: 0,
            activates: 0,
            row_hits: 0,
            row_empties: 0,
            row_conflicts: 0,
            completed: 0,
            busy_ns: 0,
            traffic: Vec::new(),
        }
    }

    /// `(channel, bank, row)` of line index `line`: channels rotate
    /// fastest, then banks, then the column within a row.
    fn place(&self, line: u64) -> (usize, usize, u64) {
        let channels = self.cfg.channels as u64;
        let banks = self.cfg.banks as u64;
        let channel = line % channels;
        let bank = line / channels % banks;
        let row = line / (channels * banks * self.cfg.lines_per_row());
        (channel as usize, bank as usize, row)
    }

    fn submit(&mut self, now: u64, addr: u64, bytes: u64, op: MemOp, tag: u64) {
        let w = (now / WINDOW_NS) as usize;
        if self.traffic.len() <= w {
            self.traffic.resize(w + 1, 0.0);
        }
        self.traffic[w] += bytes as f64;
        match op {
            MemOp::Read => self.bytes_read += bytes,
            MemOp::Write => self.bytes_written += bytes,
        }
        if self.cfg.ideal {
            self.completed += 1;
            self.ready.push(Completion {
                tag,
                op,
                at: SimTime::from_ns(now),
                submitted: SimTime::from_ns(now),
            });
            return;
        }
        // Line by line, grouping in first-touch order.
        let mut parts: Vec<((usize, usize, u64), u64)> = Vec::new();
        let first = addr / self.cfg.line_bytes;
        let last = (addr + bytes - 1) / self.cfg.line_bytes;
        for line in first..=last {
            let place = self.place(line);
            match parts.iter_mut().find(|(p, _)| *p == place) {
                Some((_, lines)) => *lines += 1,
                None => parts.push((place, 1)),
            }
        }
        let req = self.requests.len();
        self.requests.push(Request {
            tag,
            op,
            submitted: now,
            remaining: parts.len(),
        });
        for ((channel, bank, row), lines) in parts {
            self.channels[channel].queue.push(Burst {
                bank,
                row,
                lines,
                req,
            });
        }
        self.pump(now);
    }

    /// Every channel, in ascending order, issues until it cannot.
    fn pump(&mut self, now: u64) {
        for ci in 0..self.channels.len() {
            while self.try_issue(ci, now) {}
        }
    }

    fn try_issue(&mut self, ci: usize, now: u64) -> bool {
        let cfg = &self.cfg;
        let ch = &mut self.channels[ci];
        if ch.in_flight.len() >= PIPELINE_DEPTH || ch.queue.is_empty() {
            return false;
        }
        let t_refi = cfg.t_refi.as_ns();
        while t_refi > 0 && ch.next_refresh <= now {
            let resume = ch.next_refresh + cfg.t_rfc.as_ns();
            for b in &mut ch.banks {
                b.ready_at = b.ready_at.max(resume);
            }
            ch.bus_free_at = ch.bus_free_at.max(resume);
            ch.refreshes += 1;
            ch.next_refresh += t_refi;
        }
        let mut pick = 0;
        for (i, b) in ch.queue.iter().enumerate() {
            let bank = &ch.banks[b.bank];
            if bank.open_row == Some(b.row) && bank.ready_at <= now {
                pick = i;
                break;
            }
        }
        let burst = ch.queue.remove(pick);
        let bank = &mut ch.banks[burst.bank];
        let row_latency = match bank.open_row {
            Some(r) if r == burst.row => {
                self.row_hits += 1;
                0
            }
            Some(_) => {
                self.row_conflicts += 1;
                self.activates += 1;
                cfg.t_rp.as_ns() + cfg.t_rcd.as_ns()
            }
            None => {
                self.row_empties += 1;
                self.activates += 1;
                cfg.t_rcd.as_ns()
            }
        };
        let mut t_cmd = now.max(bank.ready_at);
        let gap = t_cmd.saturating_sub(ch.last_service_end);
        let entry = cfg.t_powerdown_entry.as_ns();
        if gap > entry {
            ch.standby_ns += entry;
            ch.powerdown_ns += gap - entry;
            ch.powerdown_exits += 1;
            t_cmd += cfg.t_xp.as_ns();
        } else {
            ch.standby_ns += gap;
        }
        let transfer = cfg.t_line.as_ns() * burst.lines;
        let t_start = (t_cmd + row_latency + cfg.t_cl.as_ns()).max(ch.bus_free_at);
        let done = t_start + transfer;
        match cfg.page_policy {
            PagePolicy::Open => {
                bank.open_row = Some(burst.row);
                bank.ready_at = done;
            }
            PagePolicy::Closed => {
                bank.open_row = None;
                bank.ready_at = done + cfg.t_rp.as_ns();
            }
        }
        ch.bus_free_at = done;
        ch.last_service_end = ch.last_service_end.max(done);
        ch.in_flight.push((done, self.seq, burst.req));
        self.seq += 1;
        self.busy_ns += transfer;
        true
    }

    /// The earliest in-flight burst of any channel with `done <= until`,
    /// as `(done, seq, channel, index)`.
    fn earliest(&self, until: u64) -> Option<(u64, u64, usize, usize)> {
        let mut best: Option<(u64, u64, usize, usize)> = None;
        for (ci, ch) in self.channels.iter().enumerate() {
            for (i, &(done, seq, _)) in ch.in_flight.iter().enumerate() {
                if done <= until && best.is_none_or(|(d, s, ..)| (done, seq) < (d, s)) {
                    best = Some((done, seq, ci, i));
                }
            }
        }
        best
    }

    fn next_completion_time(&self) -> Option<SimTime> {
        let burst = self.earliest(u64::MAX).map(|(done, ..)| done);
        let ready = self.ready.iter().map(|c| c.at.as_ns()).min();
        [burst, ready]
            .into_iter()
            .flatten()
            .min()
            .map(SimTime::from_ns)
    }

    /// Retires every burst due by `now`, one at a time in `(done, seq)`
    /// order, then lets every channel issue.
    fn collect(&mut self, now: u64) -> Vec<Completion> {
        let mut out = std::mem::take(&mut self.ready);
        while let Some((done, _, ci, i)) = self.earliest(now) {
            let (_, _, req) = self.channels[ci].in_flight.remove(i);
            let r = &mut self.requests[req];
            r.remaining -= 1;
            if r.remaining == 0 {
                self.completed += 1;
                out.push(Completion {
                    tag: r.tag,
                    op: r.op,
                    at: SimTime::from_ns(done),
                    submitted: SimTime::from_ns(r.submitted),
                });
            }
        }
        self.pump(now);
        out
    }

    fn queued(&self) -> usize {
        self.channels.iter().map(|c| c.queue.len()).sum()
    }

    /// Total DRAM energy over `[0, until)`, in joules.
    fn energy_j(&self, until: u64) -> f64 {
        let cfg = &self.cfg;
        let sum = |f: fn(&Channel) -> u64| self.channels.iter().map(f).sum::<u64>();
        let activate = self.activates as f64 * cfg.activate_nj * 1e-9;
        let refresh = sum(|c| c.refreshes) as f64 * cfg.refresh_nj * 1e-9;
        let dynamic =
            (self.bytes_read + self.bytes_written) as f64 * cfg.dynamic_pj_per_byte * 1e-12;
        let total_ns = until as f64 * cfg.channels as f64;
        let standby = (self.busy_ns + sum(|c| c.standby_ns)) as f64;
        let powerdown = (total_ns - standby).max(sum(|c| c.powerdown_ns) as f64);
        let background = (cfg.background_mw_per_channel * 1e-3 * standby
            + cfg.powerdown_mw_per_channel * 1e-3 * powerdown)
            / 1e9;
        activate + refresh + dynamic + background
    }

    /// Asserts that `stats` holds exactly this model's counters.
    fn check_stats(&self, stats: &MemStats, until: u64) {
        let sum = |f: fn(&Channel) -> u64| self.channels.iter().map(f).sum::<u64>();
        let got = [
            ("bytes_read", stats.bytes_read.get()),
            ("bytes_written", stats.bytes_written.get()),
            ("activates", stats.activates.get()),
            ("refreshes", stats.refreshes.get()),
            ("standby_ns", stats.standby_ns.get()),
            ("powerdown_ns", stats.powerdown_ns.get()),
            ("powerdown_exits", stats.powerdown_exits.get()),
            ("row_hits", stats.row_hits.get()),
            ("row_empties", stats.row_empties.get()),
            ("row_conflicts", stats.row_conflicts.get()),
            ("requests", stats.requests.get()),
            ("busy_ns", stats.busy_ns),
        ];
        let want = [
            self.bytes_read,
            self.bytes_written,
            self.activates,
            sum(|c| c.refreshes),
            sum(|c| c.standby_ns),
            sum(|c| c.powerdown_ns),
            sum(|c| c.powerdown_exits),
            self.row_hits,
            self.row_empties,
            self.row_conflicts,
            self.completed,
            self.busy_ns,
        ];
        for ((name, got), want) in got.into_iter().zip(want) {
            assert_eq!(got, want, "MemStats::{name}");
        }
        let windows = until.div_ceil(WINDOW_NS) as usize;
        let mut traffic = self.traffic.clone();
        traffic.resize(traffic.len().max(windows), 0.0);
        traffic.truncate(windows);
        assert_eq!(
            stats.traffic.windows(SimTime::from_ns(until)),
            traffic,
            "bandwidth timeline"
        );
        let (got, want) = (
            stats.energy_j(&self.cfg, SimTime::from_ns(until)),
            self.energy_j(until),
        );
        assert_eq!(got.to_bits(), want.to_bits(), "energy {got} J vs {want} J");
    }
}

/// A random geometry: 1–64 channels and 1–16 banks (powers of two),
/// 32–128 B lines, 4–32 lines per row, open or closed page, refresh off,
/// at Table 3's interval or at a short one, and now and then the ideal
/// memory.
fn geometry(rng: &mut SplitMix64) -> DramConfig {
    let mut cfg = DramConfig::lpddr3_table3();
    cfg.channels = 1 << rng.below(7);
    cfg.banks = 1 << rng.below(5);
    cfg.line_bytes = 32 << rng.below(3);
    cfg.row_bytes = cfg.line_bytes << rng.range(2, 6);
    if rng.chance(0.5) {
        cfg.page_policy = PagePolicy::Closed;
    }
    cfg.t_refi = match rng.below(3) {
        0 => SimDelta::ZERO,
        1 => SimDelta::from_ns(3900),
        _ => SimDelta::from_ns(rng.range(300, 2000)),
    };
    cfg.ideal = rng.chance(0.05);
    cfg.validate().expect("generated geometry validates");
    cfg
}

/// Idle time before the next arrival: often none, sometimes past the
/// power-down threshold, now and then across many refresh windows.
fn gap_ns(rng: &mut SplitMix64) -> u64 {
    match rng.below(20) {
        0..=7 => 0,
        8..=13 => rng.below(100),
        14..=16 => rng.below(1000),
        17..=18 => rng.range(1000, 3000),
        _ => rng.range(5_000, 40_000),
    }
}

/// Drives both models through one random stream and compares every
/// collection, the queue depth after every call, and the final counters.
fn agree(rng: &mut SplitMix64) {
    let cfg = geometry(rng);
    let mut mem = MemorySystem::new(cfg.clone());
    let mut model = Reference::new(cfg.clone());
    let collect = |mem: &mut MemorySystem, model: &mut Reference, now: u64| {
        let got = mem.collect_completions(SimTime::from_ns(now));
        let want = model.collect(now);
        assert_eq!(got, want, "completions collected at {now} ns");
        assert_eq!(mem.queued_bursts(), model.queued(), "queued at {now} ns");
    };
    let mut streams = [rng.below(1 << 24), rng.below(1 << 24), rng.below(1 << 24)];
    let mut now = rng.below(3) * 5000;
    let requests = rng.range(1, 120);
    for tag in 0..requests {
        now += gap_ns(rng);
        // A late poll retires everything due by `now` in one call, so a
        // channel can free both pipeline slots at once.
        if rng.chance(0.1) {
            collect(&mut mem, &mut model, now);
        }
        // At a tie between a completion and an arrival, either may run
        // first (the SoC's scheduler order decides).
        let completions_first = rng.chance(0.5);
        loop {
            let next = mem.next_completion_time();
            assert_eq!(next, model.next_completion_time(), "next completion");
            match next.map(SimTime::as_ns) {
                Some(t) if t < now || (t == now && completions_first) => {
                    collect(&mut mem, &mut model, t)
                }
                _ => break,
            }
        }
        let bytes = if rng.chance(0.6) {
            1024
        } else {
            rng.range(1, 8192)
        };
        let addr = if rng.chance(0.7) {
            let s = &mut streams[rng.below(3) as usize];
            *s += bytes;
            *s - bytes
        } else {
            rng.below(1 << 24)
        };
        let op = if rng.chance(0.5) {
            MemOp::Write
        } else {
            MemOp::Read
        };
        mem.submit(SimTime::from_ns(now), MemRequest::new(addr, bytes, op, tag));
        model.submit(now, addr, bytes, op, tag);
        assert_eq!(mem.queued_bursts(), model.queued(), "queued at {now} ns");
        if rng.chance(0.05) {
            model.check_stats(mem.stats(), now + 1);
        }
    }
    while let Some(t) = mem.next_completion_time() {
        assert_eq!(Some(t), model.next_completion_time(), "next completion");
        now = t.as_ns();
        collect(&mut mem, &mut model, now);
    }
    assert_eq!(model.next_completion_time(), None, "reference still busy");
    assert_eq!(model.completed, requests, "every request completes once");
    model.check_stats(mem.stats(), now + rng.range(1, 3 * WINDOW_NS));
}

/// `MemorySystem` and the naive reference model agree exactly: every
/// collected completion in order, every statistic, and energy.
#[test]
fn reference_model_agrees() {
    forall("dram reference model", 400, agree);
}
