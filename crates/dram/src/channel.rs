//! Per-channel FR-FCFS memory controller.
//!
//! Each channel owns its banks and data bus. Scheduling is FR-FCFS
//! (first-ready, first-come-first-served): among queued bursts the
//! controller first prefers one that hits the open row of its bank, and
//! otherwise takes the oldest. One burst's data transfer occupies the bus
//! at a time; activates/precharges of the *selected* burst overlap with
//! nothing (a deliberate, documented simplification that slightly favors
//! row hits — exactly the effect FR-FCFS exists to exploit).

use std::collections::VecDeque;

use desim::SimTime;

use crate::config::DramConfig;
use crate::request::MemOp;

/// Row-buffer outcome of a burst, for hit-rate statistics.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RowOutcome {
    /// The needed row was already open.
    Hit,
    /// The bank was idle; an activate was needed.
    Empty,
    /// Another row was open; precharge + activate were needed.
    Conflict,
}

/// One bank's state.
#[derive(Debug, Clone)]
struct Bank {
    open_row: Option<u64>,
    ready_at: SimTime,
}

/// A line burst queued at one channel: `lines` consecutive cache lines in a
/// single `(bank, row)`.
#[derive(Debug, Clone, Copy)]
pub struct Burst {
    /// Bank index within this channel.
    pub bank: usize,
    /// Row within the bank.
    pub row: u64,
    /// Number of cache lines.
    pub lines: u64,
    /// Read or write.
    pub op: MemOp,
    /// Index of the parent request in the memory system's table.
    pub parent: usize,
}

/// A burst the controller has committed to service.
#[derive(Debug, Clone, Copy)]
pub struct Issued {
    /// The serviced burst.
    pub burst: Burst,
    /// When its last line finishes on the data bus.
    pub done: SimTime,
    /// Row-buffer outcome (for statistics).
    pub outcome: RowOutcome,
    /// Whether an activate was performed (for energy).
    pub activated: bool,
}

/// A committed burst waiting for its data transfer to end.
#[derive(Debug, Clone, Copy, Default)]
pub struct Pending {
    /// When its last line finishes on the data bus.
    pub done: SimTime,
    /// Memory-system-wide issue number: the tie-break between channels'
    /// completions at one instant.
    pub seq: u64,
    /// Index of the parent request in the memory system's table.
    pub parent: usize,
}

/// How many bursts may be committed (command-pipelined) at once. Two lets
/// the CAS latency of burst *n+1* hide under the data transfer of burst
/// *n*, which is what lets real controllers stream at peak bandwidth.
const PIPELINE_DEPTH: usize = 2;

/// A channel's committed bursts in issue order: a fixed FIFO of
/// [`PIPELINE_DEPTH`] slots whose length is the pipeline occupancy. The
/// data bus serializes transfers, so `done` is nondecreasing front to back
/// and the front is always the channel's next completion.
#[derive(Debug, Clone, Copy, Default)]
struct InFlight {
    slots: [Pending; PIPELINE_DEPTH],
    len: usize,
}

impl InFlight {
    fn push(&mut self, p: Pending) {
        debug_assert!(self.len < PIPELINE_DEPTH, "pipeline overfull");
        debug_assert!(
            self.front().is_none_or(|f| f.done <= p.done),
            "channel completions must be FIFO"
        );
        self.slots[self.len] = p;
        self.len += 1;
    }

    fn front(&self) -> Option<&Pending> {
        self.slots[..self.len].first()
    }

    fn pop(&mut self) -> Pending {
        debug_assert!(self.len > 0, "pop from an idle pipeline");
        let front = self.slots[0];
        self.slots.copy_within(1.., 0);
        self.len -= 1;
        front
    }
}

/// One LPDDR3 channel: banks, a data bus, an FR-FCFS queue and the bursts
/// it has committed.
///
/// The queue is a single arrival-ordered deque; observed depths stay in
/// the tens (the doorbell credit scheme upstream bounds outstanding
/// fetches), so the FR-FCFS scan over its two slices is short and anything
/// cleverer costs more in bookkeeping than it saves.
#[derive(Debug, Clone)]
pub struct Channel {
    cfg: DramConfig,
    banks: Vec<Bank>,
    bus_free_at: SimTime,
    queue: VecDeque<Burst>,
    in_flight: InFlight,
    next_refresh: SimTime,
    last_service_end: SimTime,
    /// All-bank refreshes performed.
    pub refreshes: u64,
    /// Nanoseconds idle but not long enough to power down.
    pub standby_ns: u64,
    /// Nanoseconds resident in power-down.
    pub powerdown_ns: u64,
    /// Power-down exits (each pays tXP).
    pub powerdown_exits: u64,
}

impl Channel {
    /// Creates an idle channel.
    pub fn new(cfg: DramConfig) -> Self {
        let banks: Vec<Bank> = (0..cfg.banks)
            .map(|_| Bank {
                open_row: None,
                ready_at: SimTime::ZERO,
            })
            .collect();
        let next_refresh = SimTime::ZERO + cfg.t_refi;
        Channel {
            cfg,
            banks,
            bus_free_at: SimTime::ZERO,
            queue: VecDeque::new(),
            in_flight: InFlight::default(),
            next_refresh,
            last_service_end: SimTime::ZERO,
            refreshes: 0,
            standby_ns: 0,
            powerdown_ns: 0,
            powerdown_exits: 0,
        }
    }

    /// Performs any refreshes that have come due by `now`: every bank and
    /// the bus stall for `tRFC` per elapsed `tREFI` window. All elapsed
    /// windows are applied at once — the stalls of windows before the last
    /// are subsumed by the last one's (`ready_at`/`bus_free_at` only ever
    /// take maxima, and the resume times increase per window), so a
    /// channel that idled through thousands of windows catches up in O(1)
    /// instead of walking each window.
    fn catch_up_refresh(&mut self, now: SimTime) {
        if self.cfg.t_refi == desim::SimDelta::ZERO || self.next_refresh > now {
            return;
        }
        let windows = now.since(self.next_refresh).as_ns() / self.cfg.t_refi.as_ns() + 1;
        let last = self.next_refresh + self.cfg.t_refi * (windows - 1);
        let resume = last + self.cfg.t_rfc;
        for b in &mut self.banks {
            b.ready_at = b.ready_at.max(resume);
        }
        self.bus_free_at = self.bus_free_at.max(resume);
        self.refreshes += windows;
        self.next_refresh = last + self.cfg.t_refi;
    }

    /// Queues a burst (does not issue it; call [`Channel::try_issue`]).
    pub fn enqueue(&mut self, burst: Burst) {
        self.queue.push_back(burst);
    }

    /// Number of bursts waiting (excluding the committed ones).
    pub fn queued(&self) -> usize {
        self.queue.len()
    }

    /// When the oldest committed burst finishes, if any is committed: the
    /// channel's next completion.
    pub fn next_done(&self) -> Option<SimTime> {
        self.in_flight.front().map(|p| p.done)
    }

    /// Retires the oldest committed burst if it has finished by `now`,
    /// freeing its pipeline slot.
    pub fn pop_done(&mut self, now: SimTime) -> Option<Pending> {
        match self.in_flight.front() {
            Some(p) if p.done <= now => Some(self.in_flight.pop()),
            _ => None,
        }
    }

    /// FR-FCFS: the index of the oldest queued burst whose bank has its
    /// row open and is ready, else 0 (the oldest). Scans the deque's two
    /// slices directly.
    fn pick(&self, now: SimTime) -> usize {
        let ready = |b: &Burst| {
            let bank = &self.banks[b.bank];
            bank.open_row == Some(b.row) && bank.ready_at <= now
        };
        let (head, tail) = self.queue.as_slices();
        match head.iter().position(ready) {
            Some(i) => i,
            None => tail.iter().position(ready).map_or(0, |i| head.len() + i),
        }
    }

    /// FR-FCFS: picks and commits the next burst if the command pipeline
    /// has room, recording it as in flight under issue number `seq`.
    /// Returns the service decision, including its completion time.
    pub fn try_issue(&mut self, now: SimTime, seq: u64) -> Option<Issued> {
        if self.in_flight.len >= PIPELINE_DEPTH || self.queue.is_empty() {
            return None;
        }
        self.catch_up_refresh(now);
        let pick = self.pick(now);
        let burst = if pick == 0 {
            self.queue.pop_front()
        } else {
            self.queue.remove(pick)
        }
        .expect("pick in range");

        let bank = &mut self.banks[burst.bank];
        let (outcome, row_latency, activated) = match bank.open_row {
            Some(r) if r == burst.row => (RowOutcome::Hit, desim::SimDelta::ZERO, false),
            Some(_) => (RowOutcome::Conflict, self.cfg.t_rp + self.cfg.t_rcd, true),
            None => (RowOutcome::Empty, self.cfg.t_rcd, true),
        };

        // Power-state accounting for the idle gap before this service:
        // short gaps stay in standby; past the entry threshold the channel
        // powers down and the wake pays tXP.
        let mut t_cmd = now.max(bank.ready_at);
        let gap = t_cmd.saturating_since(self.last_service_end);
        if gap > self.cfg.t_powerdown_entry {
            self.standby_ns += self.cfg.t_powerdown_entry.as_ns();
            self.powerdown_ns += (gap - self.cfg.t_powerdown_entry).as_ns();
            self.powerdown_exits += 1;
            t_cmd += self.cfg.t_xp;
        } else {
            self.standby_ns += gap.as_ns();
        }
        let data_ready = t_cmd + row_latency + self.cfg.t_cl;
        let t_start = data_ready.max(self.bus_free_at);
        let done = t_start + self.cfg.t_line * burst.lines;

        match self.cfg.page_policy {
            crate::config::PagePolicy::Open => {
                bank.open_row = Some(burst.row);
                bank.ready_at = done;
            }
            crate::config::PagePolicy::Closed => {
                // Auto-precharge: the row closes behind the burst.
                bank.open_row = None;
                bank.ready_at = done + self.cfg.t_rp;
            }
        }
        self.bus_free_at = done;
        self.last_service_end = self.last_service_end.max(done);
        self.in_flight.push(Pending {
            done,
            seq,
            parent: burst.parent,
        });

        Some(Issued {
            burst,
            done,
            outcome,
            activated,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn chan() -> Channel {
        Channel::new(DramConfig::lpddr3_table3())
    }

    fn burst(bank: usize, row: u64, lines: u64) -> Burst {
        Burst {
            bank,
            row,
            lines,
            op: MemOp::Read,
            parent: 0,
        }
    }

    #[test]
    fn empty_bank_pays_trcd_plus_tcl() {
        let mut c = chan();
        c.enqueue(burst(0, 5, 1));
        let iss = c.try_issue(SimTime::ZERO, 0).unwrap();
        // tRCD(12) + tCL(12) + 1 line (15) = 39ns
        assert_eq!(iss.done, SimTime::from_ns(39));
        assert_eq!(iss.outcome, RowOutcome::Empty);
        assert!(iss.activated);
    }

    #[test]
    fn row_hit_skips_activation() {
        let mut c = chan();
        c.enqueue(burst(0, 5, 1));
        let first = c.try_issue(SimTime::ZERO, 0).unwrap();
        c.pop_done(first.done).unwrap();
        c.enqueue(burst(0, 5, 1));
        let second = c.try_issue(first.done, 0).unwrap();
        assert_eq!(second.outcome, RowOutcome::Hit);
        assert!(!second.activated);
        // tCL + 1 line after the bank frees.
        assert_eq!(second.done, first.done + desim::SimDelta::from_ns(27));
    }

    #[test]
    fn row_conflict_pays_precharge() {
        let mut c = chan();
        c.enqueue(burst(0, 5, 1));
        let first = c.try_issue(SimTime::ZERO, 0).unwrap();
        c.pop_done(first.done).unwrap();
        c.enqueue(burst(0, 9, 1));
        let second = c.try_issue(first.done, 0).unwrap();
        assert_eq!(second.outcome, RowOutcome::Conflict);
        // tRP + tRCD + tCL + 1 line = 12+12+12+15 = 51ns later.
        assert_eq!(second.done, first.done + desim::SimDelta::from_ns(51));
    }

    #[test]
    fn fr_fcfs_prefers_open_row() {
        let mut c = chan();
        // Open row 1 on bank 0.
        c.enqueue(burst(0, 1, 1));
        let first = c.try_issue(SimTime::ZERO, 0).unwrap();
        c.pop_done(first.done).unwrap();
        // Queue a conflict (row 2) then a hit (row 1): the hit must win even
        // though it is younger.
        c.enqueue(burst(0, 2, 1));
        c.enqueue(burst(0, 1, 1));
        let second = c.try_issue(first.done, 0).unwrap();
        assert_eq!(second.burst.row, 1);
        assert_eq!(second.outcome, RowOutcome::Hit);
    }

    #[test]
    fn fr_fcfs_scans_both_slices_of_a_wrapped_queue() {
        let mut c = chan();
        c.enqueue(burst(0, 1, 1));
        let first = c.try_issue(SimTime::ZERO, 0).unwrap();
        c.pop_done(first.done).unwrap();
        // Wrap the deque so the row hit (row 1) sits in its second slice.
        c.queue = VecDeque::with_capacity(4);
        for row in [7, 8, 9] {
            c.enqueue(burst(0, row, 1));
        }
        c.queue.pop_front();
        c.queue.pop_front();
        for row in [2, 1, 3] {
            c.enqueue(burst(0, row, 1));
        }
        assert!(!c.queue.as_slices().1.is_empty(), "queue must wrap");
        let hit = c.try_issue(first.done, 1).unwrap();
        assert_eq!(hit.outcome, RowOutcome::Hit);
        let rows: Vec<u64> = c.queue.iter().map(|b| b.row).collect();
        assert_eq!(rows, [9, 2, 3]);
    }

    #[test]
    fn pipeline_depth_is_bounded() {
        let mut c = chan();
        c.enqueue(burst(0, 1, 4));
        c.enqueue(burst(1, 1, 4));
        c.enqueue(burst(2, 1, 4));
        assert!(c.try_issue(SimTime::ZERO, 0).is_some());
        assert!(c.try_issue(SimTime::ZERO, 0).is_some(), "depth-2 pipeline");
        assert!(c.try_issue(SimTime::ZERO, 0).is_none(), "pipeline full");
        assert!(
            c.pop_done(SimTime::from_ns(83)).is_none(),
            "still on the bus"
        );
        c.pop_done(SimTime::from_ns(100)).unwrap();
        assert!(c.try_issue(SimTime::from_ns(100), 0).is_some());
    }

    #[test]
    fn pipelined_bursts_serialize_on_the_bus() {
        let mut c = chan();
        c.enqueue(burst(0, 1, 4));
        c.enqueue(burst(1, 1, 4));
        let a = c.try_issue(SimTime::ZERO, 0).unwrap();
        let b = c.try_issue(SimTime::ZERO, 0).unwrap();
        // Second transfer starts no earlier than the first ends.
        assert!(b.done >= a.done + desim::SimDelta::from_ns(60));
    }

    #[test]
    fn refresh_stalls_the_banks() {
        let mut c = chan();
        // Jump past several tREFI windows, then issue: the burst must wait
        // out the pending refresh.
        let late = SimTime::from_ns(3950); // just past the first tREFI
        c.enqueue(burst(0, 5, 1));
        let iss = c.try_issue(late, 0).unwrap();
        assert_eq!(c.refreshes, 1);
        // Bank resumes at 3900 + 130 = 4030; the long idle also powered
        // the channel down (+tXP 10); +tRCD+tCL+line = 4079.
        assert_eq!(iss.done, SimTime::from_ns(4030 + 10 + 39));
    }

    #[test]
    fn refresh_disabled_when_trefi_zero() {
        let mut cfg = DramConfig::lpddr3_table3();
        cfg.t_refi = desim::SimDelta::ZERO;
        let mut c = Channel::new(cfg);
        c.enqueue(burst(0, 5, 1));
        let _ = c.try_issue(SimTime::from_ms(1), 0).unwrap();
        assert_eq!(c.refreshes, 0);
    }

    #[test]
    fn long_idle_powers_down_and_pays_txp() {
        let mut c = chan();
        // First access at t=0 (gap 0 from the epoch).
        c.enqueue(burst(0, 1, 1));
        let a = c.try_issue(SimTime::ZERO, 0).unwrap();
        c.pop_done(a.done).unwrap();
        assert_eq!(c.powerdown_exits, 0);
        // Next access 50us later: channel powered down in between.
        let late = a.done + desim::SimDelta::from_us(50);
        c.enqueue(burst(0, 1, 1));
        let b = c.try_issue(late, 0).unwrap();
        assert_eq!(c.powerdown_exits, 1);
        assert!(c.powerdown_ns > 40_000, "{}", c.powerdown_ns);
        assert!(c.standby_ns >= 1_000, "threshold portion is standby");
        // The wake costs tXP on top of the row path.
        assert!(b.done >= late + desim::SimDelta::from_ns(10));
    }

    #[test]
    fn back_to_back_stays_in_standby() {
        let mut c = chan();
        c.enqueue(burst(0, 1, 4));
        let a = c.try_issue(SimTime::ZERO, 0).unwrap();
        c.pop_done(a.done).unwrap();
        c.enqueue(burst(0, 1, 4));
        let _ = c.try_issue(a.done, 0).unwrap();
        assert_eq!(c.powerdown_exits, 0);
        assert_eq!(c.powerdown_ns, 0);
    }

    #[test]
    fn closed_page_never_hits_and_loses_on_streams() {
        let mut cfg = DramConfig::lpddr3_table3();
        cfg.page_policy = crate::config::PagePolicy::Closed;
        let mut c = Channel::new(cfg);
        let mut now = SimTime::ZERO;
        let mut last = SimTime::ZERO;
        for i in 0..32u64 {
            c.enqueue(burst(0, 0, 1)); // all in one row: open-page heaven
            if let Some(iss) = c.try_issue(now, 0) {
                assert_ne!(iss.outcome, RowOutcome::Hit, "closed page cannot hit");
                now = iss.done;
                last = iss.done;
                c.pop_done(iss.done).unwrap();
            }
            let _ = i;
        }
        // Compare with open page on the same stream.
        let mut c2 = chan();
        let mut now2 = SimTime::ZERO;
        let mut last2 = SimTime::ZERO;
        for _ in 0..32u64 {
            c2.enqueue(burst(0, 0, 1));
            if let Some(iss) = c2.try_issue(now2, 0) {
                now2 = iss.done;
                last2 = iss.done;
                c2.pop_done(iss.done).unwrap();
            }
        }
        assert!(last2 < last, "open page must win a same-row stream");
    }

    #[test]
    fn streaming_row_hits_approach_peak_bandwidth() {
        let mut c = chan();
        let mut now = SimTime::ZERO;
        let mut last_done = SimTime::ZERO;
        // 64 bursts of 16 lines (1 KB each) hitting one row... rows hold 32
        // lines, so alternate rows on different banks to keep hits common.
        for i in 0..64u64 {
            c.enqueue(burst((i % 8) as usize, i / 8, 16));
        }
        while let Some(iss) = c.try_issue(now, 0) {
            now = iss.done;
            last_done = iss.done;
            c.pop_done(iss.done).unwrap();
        }
        let bytes = 64.0 * 16.0 * 64.0;
        let gbps = bytes / last_done.as_secs() / 1e9;
        // Peak per channel is ~4.27 GB/s; the stream should land within 25%.
        assert!(gbps > 3.2, "streaming bandwidth {gbps} GB/s too low");
    }
}
