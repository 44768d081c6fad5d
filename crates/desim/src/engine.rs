//! The event-calendar engine.
//!
//! A simulation is a [`Model`] (all mutable state plus an event type) driven
//! by an [`Engine`]. The engine owns a [`Scheduler`] — the pending-event
//! calendar and the simulation clock — which is lent to the model during
//! every [`Model::handle`] call so the model can schedule follow-up events.
//!
//! Determinism: events fire in `(time, insertion sequence)` order, so two
//! events scheduled for the same instant fire in the order they were
//! scheduled, and a run is a pure function of the model's initial state.

use std::cmp::Ordering;
use std::collections::BinaryHeap;

use crate::hash::FxHashSet;
use crate::time::{SimDelta, SimTime};

/// State plus event alphabet of a simulation.
///
/// See the [crate-level example](crate) for a complete model.
pub trait Model {
    /// The event alphabet dispatched by the engine.
    type Event;

    /// Reacts to one event. `sched` is the live calendar: the model may
    /// schedule or cancel events and read the current time from it.
    fn handle(&mut self, ev: Self::Event, sched: &mut Scheduler<Self::Event>);

    /// Reacts to a batch of events sharing one instant, delivered in
    /// `(time, insertion sequence)` order (see
    /// [`Scheduler::drain_coincident_into`]). The model must drain the
    /// batch completely; events the model schedules *at* the current
    /// instant while handling the batch form a follow-up batch — exactly
    /// where they would have fired per-event, since fresh entries carry
    /// larger sequence numbers than everything drained.
    ///
    /// The default dispatches per event in batch order, which is
    /// observationally identical to [`Engine::run_until`]; models may
    /// override to amortize work across a coincident batch as long as the
    /// observable schedule stays the same.
    fn handle_batch(&mut self, batch: &mut Vec<Self::Event>, sched: &mut Scheduler<Self::Event>) {
        for ev in batch.drain(..) {
            self.handle(ev, sched);
        }
    }
}

/// Handle to a scheduled event, usable with [`Scheduler::cancel`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct EventToken(u64);

#[derive(Clone)]
struct Entry<E> {
    at: SimTime,
    seq: u64,
    ev: E,
}

impl<E> PartialEq for Entry<E> {
    fn eq(&self, other: &Self) -> bool {
        self.at == other.at && self.seq == other.seq
    }
}
impl<E> Eq for Entry<E> {}
impl<E> PartialOrd for Entry<E> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl<E> Ord for Entry<E> {
    fn cmp(&self, other: &Self) -> Ordering {
        // Reversed: BinaryHeap is a max-heap, we want earliest-first.
        other
            .at
            .cmp(&self.at)
            .then_with(|| other.seq.cmp(&self.seq))
    }
}

/// The pending-event calendar and simulation clock.
///
/// Obtained from [`Engine::scheduler`] before a run, and lent to the model
/// during [`Model::handle`].
pub struct Scheduler<E> {
    now: SimTime,
    seq: u64,
    /// The earliest pending entry, held outside the heap. Invariant: when
    /// `Some`, it fires before every heap entry. The dominant pattern in
    /// frame chains — a handler schedules one follow-up into an otherwise
    /// quiet calendar which then fires next — stays in this slot and never
    /// touches the heap at all.
    front: Option<Entry<E>>,
    heap: BinaryHeap<Entry<E>>,
    /// Lazy-cancel tombstones. Uses the in-crate Fx hasher, and `pop`
    /// skips the probe entirely while the set is empty — the common case,
    /// since tombstones exist only between a `cancel` and the moment the
    /// cancelled entry surfaces.
    cancelled: FxHashSet<u64>,
    dispatched: u64,
    /// Dispatches that passed the audited monotonicity check.
    #[cfg(feature = "audit")]
    audit_pops: u64,
}

impl<E> Default for Scheduler<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> Scheduler<E> {
    /// Creates an empty calendar at time zero.
    pub fn new() -> Self {
        Scheduler {
            now: SimTime::ZERO,
            seq: 0,
            front: None,
            heap: BinaryHeap::new(),
            cancelled: FxHashSet::default(),
            dispatched: 0,
            #[cfg(feature = "audit")]
            audit_pops: 0,
        }
    }

    /// Pre-sizes the pending-event heap for at least `additional` more
    /// events, so a model that can bound its concurrent event count from
    /// workload geometry pays for heap growth once, up front, instead of
    /// through doubling reallocations on the hot path.
    pub fn reserve(&mut self, additional: usize) {
        self.heap.reserve(additional);
    }

    /// Rewinds the calendar to an empty state at time zero while keeping
    /// every allocation — the heap's backing storage and the tombstone
    /// set's table survive, so a re-seeded run pays no growth phase. This
    /// is the across-runs half of cell reuse: a warm scheduler plus a
    /// model-level reset re-runs a cell without reconstructing either.
    pub fn reset(&mut self) {
        self.now = SimTime::ZERO;
        self.seq = 0;
        self.front = None;
        self.heap.clear();
        self.cancelled.clear();
        self.dispatched = 0;
        #[cfg(feature = "audit")]
        {
            self.audit_pops = 0;
        }
    }

    /// The current simulated time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Number of events dispatched so far.
    pub fn events_dispatched(&self) -> u64 {
        self.dispatched
    }

    /// Number of dispatches that passed the audited event-time
    /// monotonicity check (equals `events_dispatched` on a healthy run).
    #[cfg(feature = "audit")]
    pub fn audit_time_checks(&self) -> u64 {
        self.audit_pops
    }

    /// Number of events still pending (cancelled events may be counted until
    /// they are lazily discarded).
    pub fn pending(&self) -> usize {
        self.heap.len() + usize::from(self.front.is_some()) - self.cancelled.len()
    }

    /// Schedules `ev` at the absolute instant `at`.
    ///
    /// # Panics
    ///
    /// Panics if `at` is in the past.
    pub fn at(&mut self, at: SimTime, ev: E) -> EventToken {
        assert!(
            at >= self.now,
            "scheduling into the past: {at} < {}",
            self.now
        );
        let seq = self.seq;
        self.seq += 1;
        let entry = Entry { at, seq, ev };
        // A fresh entry always carries the largest seq, so it displaces the
        // current minimum only by firing strictly earlier in time.
        match &self.front {
            None if self.heap.is_empty() => self.front = Some(entry),
            None => {
                if at < self.heap.peek().expect("non-empty").at {
                    self.front = Some(entry);
                } else {
                    self.heap.push(entry);
                }
            }
            Some(f) => {
                if at < f.at {
                    let old = self.front.replace(entry).expect("checked Some");
                    self.heap.push(old);
                } else {
                    self.heap.push(entry);
                }
            }
        }
        EventToken(seq)
    }

    /// Schedules `ev` after a delay from now.
    pub fn after(&mut self, delay: SimDelta, ev: E) -> EventToken {
        self.at(self.now + delay, ev)
    }

    /// Schedules `ev` immediately (at the current instant, after all events
    /// already scheduled for this instant).
    pub fn immediately(&mut self, ev: E) -> EventToken {
        self.at(self.now, ev)
    }

    /// Cancels a previously scheduled event. Returns `true` if the event had
    /// not yet fired or been cancelled.
    pub fn cancel(&mut self, token: EventToken) -> bool {
        if token.0 >= self.seq {
            return false;
        }
        self.cancelled.insert(token.0)
    }

    /// True iff `seq` carries a tombstone; consumes the tombstone. The
    /// `is_empty` guard keeps the un-cancelled hot path free of hashing.
    #[inline]
    fn consume_tombstone(&mut self, seq: u64) -> bool {
        !self.cancelled.is_empty() && self.cancelled.remove(&seq)
    }

    fn pop(&mut self) -> Option<(SimTime, E)> {
        loop {
            let entry = match self.front.take() {
                Some(f) => f,
                None => self.heap.pop()?,
            };
            if self.consume_tombstone(entry.seq) {
                continue;
            }
            debug_assert!(entry.at >= self.now, "calendar went backwards");
            #[cfg(feature = "audit")]
            {
                assert!(
                    entry.at >= self.now,
                    "audit: event time went backwards: {} < {} (seq {})",
                    entry.at,
                    self.now,
                    entry.seq
                );
                self.audit_pops += 1;
            }
            self.now = entry.at;
            self.dispatched += 1;
            return Some((entry.at, entry.ev));
        }
    }

    /// Pops *every* pending event sharing the earliest live instant into
    /// `batch`, preserving `(time, insertion sequence)` order, and returns
    /// how many were drained (0 iff the calendar is empty). The clock
    /// advances to that instant and each drained event counts as
    /// dispatched, exactly as under per-event `pop`s.
    ///
    /// `batch` must arrive empty; the caller owns it and reuses it across
    /// drains so the steady state allocates nothing.
    pub fn drain_coincident_into(&mut self, batch: &mut Vec<E>) -> usize {
        debug_assert!(batch.is_empty(), "coincident batch not drained");
        let Some((at, ev)) = self.pop() else {
            return 0;
        };
        batch.push(ev);
        self.drain_followers_into(at, batch);
        batch.len()
    }

    /// Pops every further pending event at exactly `at` into `batch`
    /// (the tail of a coincident drain; the head event was popped by the
    /// caller). The first later-instant entry encountered is stashed in
    /// the front slot rather than re-pushed: it came off the heap top,
    /// so it is the minimum and the slot invariant holds — and the next
    /// peek/pop then hit the slot instead of the heap.
    fn drain_followers_into(&mut self, at: SimTime, batch: &mut Vec<E>) {
        loop {
            let entry = match self.front.take() {
                Some(f) => f,
                None => match self.heap.pop() {
                    Some(e) => e,
                    None => return,
                },
            };
            if self.consume_tombstone(entry.seq) {
                continue;
            }
            if entry.at != at {
                self.front = Some(entry);
                return;
            }
            #[cfg(feature = "audit")]
            {
                self.audit_pops += 1;
            }
            self.dispatched += 1;
            batch.push(entry.ev);
        }
    }

    /// The instant of the next live (un-cancelled) event, if any.
    /// Cancelled entries encountered on the way are discarded, so repeated
    /// peeks stay cheap.
    pub fn peek(&mut self) -> Option<SimTime> {
        loop {
            if let Some(f) = &self.front {
                let (at, seq) = (f.at, f.seq);
                if self.consume_tombstone(seq) {
                    self.front = None;
                    continue;
                }
                return Some(at);
            }
            let head = self.heap.peek()?;
            let (at, seq) = (head.at, head.seq);
            if self.consume_tombstone(seq) {
                self.heap.pop();
                continue;
            }
            return Some(at);
        }
    }

    /// The instant of the next pending event, if any.
    pub fn next_event_time(&self) -> Option<SimTime> {
        // Without `&mut` we cannot discard cancelled heap heads, so a
        // cancelled head makes this conservative (returns the cancelled
        // head's time). The engine handles that by re-checking after pop;
        // use [`Scheduler::peek`] for the exact answer.
        match &self.front {
            Some(f) => Some(f.at),
            None => self.heap.peek().map(|e| e.at),
        }
    }
}

/// A self-contained capture of a [`Scheduler`]: clock, sequence counter,
/// pending calendar (front slot plus heap), cancel tombstones and dispatch
/// count. Taken by [`Scheduler::snapshot`], reinstated — any number of
/// times, into any scheduler of the same event type — by
/// [`Scheduler::restore`]. Restoring and continuing is indistinguishable
/// from never having stopped: entry sequence numbers, tombstones and the
/// front-slot invariant all carry over, so coincident-batch grouping and
/// token cancellation replay identically.
#[derive(Clone)]
pub struct SchedulerSnapshot<E> {
    now: SimTime,
    seq: u64,
    front: Option<Entry<E>>,
    heap: BinaryHeap<Entry<E>>,
    cancelled: FxHashSet<u64>,
    dispatched: u64,
    #[cfg(feature = "audit")]
    audit_pops: u64,
}

impl<E> SchedulerSnapshot<E> {
    /// The captured clock.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Events pending in the capture (cancelled ones may be counted until
    /// a restored scheduler lazily discards them, mirroring
    /// [`Scheduler::pending`]).
    pub fn pending(&self) -> usize {
        self.heap.len() + usize::from(self.front.is_some()) - self.cancelled.len()
    }

    /// Events the captured scheduler had dispatched.
    pub fn events_dispatched(&self) -> u64 {
        self.dispatched
    }
}

impl<E> std::fmt::Debug for SchedulerSnapshot<E> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SchedulerSnapshot")
            .field("now", &self.now)
            .field("pending", &self.pending())
            .field("dispatched", &self.dispatched)
            .finish()
    }
}

impl<E: Clone> Scheduler<E> {
    /// Captures the complete calendar state. `&self` and non-destructive:
    /// a run that snapshots and continues is bit-identical to one that
    /// never snapshotted.
    pub fn snapshot(&self) -> SchedulerSnapshot<E> {
        SchedulerSnapshot {
            now: self.now,
            seq: self.seq,
            front: self.front.clone(),
            heap: self.heap.clone(),
            cancelled: self.cancelled.clone(),
            dispatched: self.dispatched,
            #[cfg(feature = "audit")]
            audit_pops: self.audit_pops,
        }
    }

    /// Reinstates a captured calendar, replacing the current one. Existing
    /// allocations are reused where the standard collections allow
    /// (`clone_from`), so restoring into a warm scheduler avoids the
    /// growth phase. The snapshot is borrowed, not consumed: one capture
    /// can seed any number of restored runs.
    pub fn restore(&mut self, snap: &SchedulerSnapshot<E>) {
        self.now = snap.now;
        self.seq = snap.seq;
        self.front.clone_from(&snap.front);
        self.heap.clone_from(&snap.heap);
        self.cancelled.clone_from(&snap.cancelled);
        self.dispatched = snap.dispatched;
        #[cfg(feature = "audit")]
        {
            self.audit_pops = snap.audit_pops;
        }
    }
}

/// Why a run returned.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RunOutcome {
    /// The calendar drained: no events remain.
    Drained,
    /// The time horizon passed; undispatched events at later instants remain.
    HorizonReached,
    /// The event budget was exhausted.
    BudgetExhausted,
}

impl<E> std::fmt::Debug for Scheduler<E> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Scheduler")
            .field("now", &self.now)
            .field("pending", &self.pending())
            .field("dispatched", &self.dispatched)
            .finish()
    }
}

/// Observer invoked with `(now, &event)` just before each dispatch.
///
/// Boxed because the engine stores at most one for the whole run; the
/// indirection is outside the untraced build entirely.
#[cfg(feature = "trace")]
pub type DispatchHook<M> = Box<dyn FnMut(SimTime, &<M as Model>::Event)>;

/// Drives a [`Model`] through simulated time.
///
/// See the [crate-level example](crate).
pub struct Engine<M: Model> {
    model: M,
    sched: Scheduler<M::Event>,
    /// Reused coincident-batch scratch for [`Engine::run_until_batched`];
    /// empty between drains.
    batch: Vec<M::Event>,
    /// Observation point for telemetry: called with `(now, &event)` just
    /// before every dispatch. Only exists under the `trace` feature, so the
    /// default build's dispatch loop carries no branch for it.
    #[cfg(feature = "trace")]
    dispatch_hook: Option<DispatchHook<M>>,
}

impl<M: Model> Engine<M> {
    /// Creates an engine around `model` with an empty calendar at time zero.
    pub fn new(model: M) -> Self {
        Engine {
            model,
            sched: Scheduler::new(),
            batch: Vec::new(),
            #[cfg(feature = "trace")]
            dispatch_hook: None,
        }
    }

    /// Installs a hook called with `(now, &event)` immediately before each
    /// event is handed to the model. One hook at a time; installing again
    /// replaces the previous one.
    #[cfg(feature = "trace")]
    pub fn set_dispatch_hook(&mut self, hook: DispatchHook<M>) {
        self.dispatch_hook = Some(hook);
    }

    /// Invokes the dispatch hook, if one is installed. Compiles to nothing
    /// without the `trace` feature.
    #[inline]
    fn observe_dispatch(&mut self, _at: SimTime, _ev: &M::Event) {
        #[cfg(feature = "trace")]
        if let Some(hook) = self.dispatch_hook.as_mut() {
            hook(_at, _ev);
        }
    }

    /// The current simulated time.
    pub fn now(&self) -> SimTime {
        self.sched.now()
    }

    /// Shared access to the model.
    pub fn model(&self) -> &M {
        &self.model
    }

    /// Exclusive access to the model.
    pub fn model_mut(&mut self) -> &mut M {
        &mut self.model
    }

    /// Consumes the engine and returns the model.
    pub fn into_model(self) -> M {
        self.model
    }

    /// The calendar, for seeding initial events and inspecting the clock.
    pub fn scheduler(&mut self) -> &mut Scheduler<M::Event> {
        &mut self.sched
    }

    /// Read-only view of the calendar (snapshotting, inspection).
    pub fn scheduler_ref(&self) -> &Scheduler<M::Event> {
        &self.sched
    }

    /// Dispatches a single event. Returns `false` if the calendar is empty.
    pub fn step(&mut self) -> bool {
        match self.sched.pop() {
            Some((at, ev)) => {
                self.observe_dispatch(at, &ev);
                self.model.handle(ev, &mut self.sched);
                true
            }
            None => false,
        }
    }

    /// Runs until the calendar drains.
    pub fn run(&mut self) -> RunOutcome {
        while self.step() {}
        RunOutcome::Drained
    }

    /// Runs until the calendar drains or the next event lies strictly after
    /// `horizon`. Events at exactly `horizon` are dispatched; later ones
    /// stay in place (peeked, never popped), keeping their original
    /// insertion order for a later run.
    pub fn run_until(&mut self, horizon: SimTime) -> RunOutcome {
        loop {
            match self.sched.peek() {
                None => return RunOutcome::Drained,
                Some(at) if at > horizon => return RunOutcome::HorizonReached,
                Some(_) => {
                    let (at, ev) = self.sched.pop().expect("peeked event");
                    self.observe_dispatch(at, &ev);
                    self.model.handle(ev, &mut self.sched);
                }
            }
        }
    }

    /// Like [`run_until`](Self::run_until), but delivers all events
    /// sharing an instant to the model in one [`Model::handle_batch`]
    /// call: one peek/drain per *instant* instead of per event, with the
    /// batch buffer reused across instants. Events scheduled at the
    /// current instant from inside the batch fire in a follow-up batch,
    /// in their insertion order — the position per-event dispatch would
    /// have given them.
    ///
    /// The trace-feature dispatch hook observes every drained event (in
    /// batch order, before the model handles the batch), so counted runs
    /// see identical totals to [`run_until`](Self::run_until).
    pub fn run_until_batched(&mut self, horizon: SimTime) -> RunOutcome {
        let mut batch = std::mem::take(&mut self.batch);
        let outcome = loop {
            match self.sched.peek() {
                None => break RunOutcome::Drained,
                Some(at) if at > horizon => break RunOutcome::HorizonReached,
                Some(_) => {
                    let (at, ev) = self.sched.pop().expect("peeked event");
                    // Most instants carry exactly one event; dispatch those
                    // without touching the batch vector. `next_event_time`
                    // is a raw head read that may report a cancelled head —
                    // a stale hit at `at` merely detours through the batch
                    // path, which consumes the tombstone correctly.
                    if self.sched.next_event_time() != Some(at) {
                        self.observe_dispatch(at, &ev);
                        self.model.handle(ev, &mut self.sched);
                    } else {
                        batch.push(ev);
                        self.sched.drain_followers_into(at, &mut batch);
                        #[cfg(feature = "trace")]
                        {
                            for ev in batch.iter() {
                                self.observe_dispatch(at, ev);
                            }
                        }
                        self.model.handle_batch(&mut batch, &mut self.sched);
                        debug_assert!(batch.is_empty(), "model must drain the batch");
                    }
                }
            }
        };
        self.batch = batch;
        outcome
    }

    /// Runs until the calendar drains or `budget` events have been
    /// dispatched by this call.
    pub fn run_for_events(&mut self, budget: u64) -> RunOutcome {
        for _ in 0..budget {
            if !self.step() {
                return RunOutcome::Drained;
            }
        }
        RunOutcome::BudgetExhausted
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[derive(Default)]
    struct Recorder {
        seen: Vec<(u64, u32)>,
    }

    impl Model for Recorder {
        type Event = u32;
        fn handle(&mut self, ev: u32, sched: &mut Scheduler<u32>) {
            self.seen.push((sched.now().as_ns(), ev));
        }
    }

    #[test]
    fn events_fire_in_time_order() {
        let mut eng = Engine::new(Recorder::default());
        eng.scheduler().at(SimTime::from_ns(30), 3);
        eng.scheduler().at(SimTime::from_ns(10), 1);
        eng.scheduler().at(SimTime::from_ns(20), 2);
        assert_eq!(eng.run(), RunOutcome::Drained);
        assert_eq!(eng.model().seen, vec![(10, 1), (20, 2), (30, 3)]);
    }

    #[test]
    fn same_time_events_fire_fifo() {
        let mut eng = Engine::new(Recorder::default());
        for ev in 0..100 {
            eng.scheduler().at(SimTime::from_ns(5), ev);
        }
        eng.run();
        let evs: Vec<u32> = eng.model().seen.iter().map(|&(_, e)| e).collect();
        assert_eq!(evs, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn cancel_prevents_dispatch() {
        let mut eng = Engine::new(Recorder::default());
        let keep = eng.scheduler().at(SimTime::from_ns(1), 1);
        let drop_tok = eng.scheduler().at(SimTime::from_ns(2), 2);
        assert!(eng.scheduler().cancel(drop_tok));
        assert!(!eng.scheduler().cancel(drop_tok), "double-cancel is false");
        assert!(!eng.scheduler().cancel(EventToken(999)), "unknown token");
        eng.run();
        assert_eq!(eng.model().seen, vec![(1, 1)]);
        let _ = keep;
    }

    #[test]
    fn run_until_stops_inclusively() {
        let mut eng = Engine::new(Recorder::default());
        eng.scheduler().at(SimTime::from_ns(10), 1);
        eng.scheduler().at(SimTime::from_ns(20), 2);
        eng.scheduler().at(SimTime::from_ns(30), 3);
        assert_eq!(
            eng.run_until(SimTime::from_ns(20)),
            RunOutcome::HorizonReached
        );
        assert_eq!(eng.model().seen, vec![(10, 1), (20, 2)]);
        // The 30ns event survives and fires on a later run.
        assert_eq!(eng.run(), RunOutcome::Drained);
        assert_eq!(eng.model().seen.last(), Some(&(30, 3)));
    }

    #[test]
    fn run_for_events_respects_budget() {
        let mut eng = Engine::new(Recorder::default());
        for i in 0..10 {
            eng.scheduler().at(SimTime::from_ns(i), i as u32);
        }
        assert_eq!(eng.run_for_events(4), RunOutcome::BudgetExhausted);
        assert_eq!(eng.model().seen.len(), 4);
        assert_eq!(eng.run_for_events(100), RunOutcome::Drained);
        assert_eq!(eng.model().seen.len(), 10);
    }

    #[test]
    #[should_panic(expected = "scheduling into the past")]
    fn scheduling_into_past_panics() {
        struct Bad;
        impl Model for Bad {
            type Event = ();
            fn handle(&mut self, _: (), sched: &mut Scheduler<()>) {
                let past = SimTime::from_ns(sched.now().as_ns() - 1);
                sched.at(past, ());
            }
        }
        let mut eng = Engine::new(Bad);
        eng.scheduler().at(SimTime::from_ns(5), ());
        eng.run();
    }

    #[test]
    fn clock_advances_monotonically_through_chained_events() {
        struct Chain {
            hops: u32,
            last: SimTime,
        }
        impl Model for Chain {
            type Event = ();
            fn handle(&mut self, _: (), sched: &mut Scheduler<()>) {
                assert!(sched.now() >= self.last);
                self.last = sched.now();
                if self.hops > 0 {
                    self.hops -= 1;
                    sched.after(SimDelta::from_ns(7), ());
                }
            }
        }
        let mut eng = Engine::new(Chain {
            hops: 1000,
            last: SimTime::ZERO,
        });
        eng.scheduler().immediately(());
        eng.run();
        assert_eq!(eng.now(), SimTime::from_ns(7000));
        assert_eq!(eng.scheduler().events_dispatched(), 1001);
    }

    #[test]
    fn peek_skips_cancelled_and_is_exact() {
        let mut eng = Engine::new(Recorder::default());
        let first = eng.scheduler().at(SimTime::from_ns(5), 1);
        eng.scheduler().at(SimTime::from_ns(9), 2);
        assert_eq!(eng.scheduler().peek(), Some(SimTime::from_ns(5)));
        eng.scheduler().cancel(first);
        // Peek discards the tombstoned head and reports the live successor.
        assert_eq!(eng.scheduler().peek(), Some(SimTime::from_ns(9)));
        eng.run();
        assert_eq!(eng.model().seen, vec![(9, 2)]);
        assert_eq!(eng.scheduler().peek(), None);
    }

    #[test]
    fn front_slot_interleaves_with_heap_in_order() {
        // Schedule a pattern that repeatedly displaces the front slot and
        // spills it into the heap; order must still be (time, seq).
        let mut eng = Engine::new(Recorder::default());
        eng.scheduler().at(SimTime::from_ns(50), 0); // front
        eng.scheduler().at(SimTime::from_ns(40), 1); // displaces front
        eng.scheduler().at(SimTime::from_ns(60), 2); // heap
        eng.scheduler().at(SimTime::from_ns(40), 3); // same time, later seq
        eng.scheduler().at(SimTime::from_ns(10), 4); // displaces front again
        eng.run();
        assert_eq!(
            eng.model().seen,
            vec![(10, 4), (40, 1), (40, 3), (50, 0), (60, 2)]
        );
    }

    #[test]
    fn cancelling_the_front_event_works() {
        let mut eng = Engine::new(Recorder::default());
        eng.scheduler().at(SimTime::from_ns(7), 1);
        let front = eng.scheduler().at(SimTime::from_ns(3), 2); // sits in front slot
        assert!(eng.scheduler().cancel(front));
        assert!(!eng.scheduler().cancel(front), "double-cancel is false");
        eng.run();
        assert_eq!(eng.model().seen, vec![(7, 1)]);
    }

    #[cfg(feature = "trace")]
    #[test]
    fn dispatch_hook_observes_every_event_in_order() {
        use std::cell::RefCell;
        use std::rc::Rc;
        let seen: Rc<RefCell<Vec<(u64, u32)>>> = Rc::new(RefCell::new(Vec::new()));
        let sink = Rc::clone(&seen);
        let mut eng = Engine::new(Recorder::default());
        eng.set_dispatch_hook(Box::new(move |at, ev: &u32| {
            sink.borrow_mut().push((at.as_ns(), *ev));
        }));
        eng.scheduler().at(SimTime::from_ns(20), 2);
        eng.scheduler().at(SimTime::from_ns(10), 1);
        eng.scheduler().at(SimTime::from_ns(30), 3);
        eng.run_until(SimTime::from_ns(20));
        eng.run();
        assert_eq!(*seen.borrow(), vec![(10, 1), (20, 2), (30, 3)]);
        assert_eq!(eng.model().seen, *seen.borrow(), "hook matches model");
    }

    #[test]
    fn drain_coincident_pops_the_whole_instant_in_seq_order() {
        let mut eng = Engine::new(Recorder::default());
        eng.scheduler().at(SimTime::from_ns(5), 1);
        eng.scheduler().at(SimTime::from_ns(5), 2);
        eng.scheduler().at(SimTime::from_ns(9), 3);
        let mut batch = Vec::new();
        assert_eq!(eng.scheduler().drain_coincident_into(&mut batch), 2);
        assert_eq!(batch, vec![1, 2]);
        assert_eq!(eng.scheduler().now(), SimTime::from_ns(5));
        assert_eq!(eng.scheduler().events_dispatched(), 2);
        batch.clear();
        assert_eq!(eng.scheduler().drain_coincident_into(&mut batch), 1);
        assert_eq!(batch, vec![3]);
        batch.clear();
        assert_eq!(eng.scheduler().drain_coincident_into(&mut batch), 0);
        assert!(batch.is_empty());
    }

    #[test]
    fn drain_coincident_skips_cancelled_entries() {
        let mut eng = Engine::new(Recorder::default());
        eng.scheduler().at(SimTime::from_ns(5), 1);
        let dropped = eng.scheduler().at(SimTime::from_ns(5), 2);
        eng.scheduler().at(SimTime::from_ns(5), 3);
        eng.scheduler().cancel(dropped);
        let mut batch = Vec::new();
        assert_eq!(eng.scheduler().drain_coincident_into(&mut batch), 2);
        assert_eq!(batch, vec![1, 3]);
    }

    #[test]
    fn batched_run_matches_per_event_run() {
        // A same-instant burst interleaved with later singletons; the
        // default handle_batch must reproduce per-event order exactly.
        let schedule = |eng: &mut Engine<Recorder>| {
            eng.scheduler().at(SimTime::from_ns(7), 0);
            eng.scheduler().at(SimTime::from_ns(3), 1);
            eng.scheduler().at(SimTime::from_ns(3), 2);
            eng.scheduler().at(SimTime::from_ns(3), 3);
            eng.scheduler().at(SimTime::from_ns(9), 4);
        };
        let mut per_event = Engine::new(Recorder::default());
        schedule(&mut per_event);
        assert_eq!(
            per_event.run_until(SimTime::from_ns(8)),
            RunOutcome::HorizonReached
        );
        let mut batched = Engine::new(Recorder::default());
        schedule(&mut batched);
        assert_eq!(
            batched.run_until_batched(SimTime::from_ns(8)),
            RunOutcome::HorizonReached
        );
        assert_eq!(batched.model().seen, per_event.model().seen);
        assert_eq!(
            batched.scheduler().events_dispatched(),
            per_event.scheduler().events_dispatched()
        );
        // The 9ns stragglers survive both modes identically.
        assert_eq!(
            batched.run_until_batched(SimTime::from_ns(9)),
            RunOutcome::Drained
        );
        assert_eq!(
            per_event.run_until(SimTime::from_ns(9)),
            RunOutcome::Drained
        );
        assert_eq!(batched.model().seen, per_event.model().seen);
    }

    #[test]
    fn same_instant_follow_ups_fire_in_a_second_batch() {
        /// Records the size of every batch it receives; event 1 schedules
        /// a same-instant follow-up.
        #[derive(Default)]
        struct BatchSizes {
            sizes: Vec<usize>,
            seen: Vec<u32>,
        }
        impl Model for BatchSizes {
            type Event = u32;
            fn handle(&mut self, ev: u32, sched: &mut Scheduler<u32>) {
                if ev == 1 {
                    sched.immediately(99);
                }
                self.seen.push(ev);
            }
            fn handle_batch(&mut self, batch: &mut Vec<u32>, sched: &mut Scheduler<u32>) {
                self.sizes.push(batch.len());
                for ev in batch.drain(..) {
                    self.handle(ev, sched);
                }
            }
        }
        let mut eng = Engine::new(BatchSizes::default());
        eng.scheduler().at(SimTime::from_ns(5), 1);
        eng.scheduler().at(SimTime::from_ns(5), 2);
        assert_eq!(
            eng.run_until_batched(SimTime::from_ns(5)),
            RunOutcome::Drained
        );
        // The follow-up scheduled *during* the first batch fires at the same
        // instant, after everything already pending. It is alone at its
        // dispatch point, so the engine's singleton fast path hands it to
        // `handle` directly instead of forming a one-event batch.
        assert_eq!(eng.model().sizes, vec![2]);
        assert_eq!(eng.model().seen, vec![1, 2, 99]);
        assert_eq!(eng.now(), SimTime::from_ns(5));
    }

    #[test]
    fn reset_rewinds_the_calendar_for_reuse() {
        let mut eng = Engine::new(Recorder::default());
        eng.scheduler().at(SimTime::from_ns(10), 1);
        let t = eng.scheduler().at(SimTime::from_ns(20), 2);
        eng.scheduler().cancel(t);
        eng.scheduler().at(SimTime::from_ns(30), 3);
        eng.run_until(SimTime::from_ns(10));
        eng.scheduler().reset();
        assert_eq!(eng.scheduler().now(), SimTime::ZERO);
        assert_eq!(eng.scheduler().pending(), 0);
        assert_eq!(eng.scheduler().events_dispatched(), 0);
        assert_eq!(eng.scheduler().peek(), None);
        // A re-seeded run behaves like a fresh scheduler, tokens included.
        let t2 = eng.scheduler().at(SimTime::from_ns(4), 7);
        eng.scheduler().at(SimTime::from_ns(2), 8);
        assert!(eng.scheduler().cancel(t2));
        eng.run();
        assert_eq!(eng.model().seen.last(), Some(&(2, 8)));
        assert_eq!(eng.scheduler().events_dispatched(), 1);
    }

    #[test]
    fn snapshot_restore_continues_bit_identically() {
        let schedule = |eng: &mut Engine<Recorder>| {
            eng.scheduler().at(SimTime::from_ns(10), 1);
            eng.scheduler().at(SimTime::from_ns(20), 2);
            eng.scheduler().at(SimTime::from_ns(20), 3); // coincident pair
            let dead = eng.scheduler().at(SimTime::from_ns(25), 9);
            eng.scheduler().at(SimTime::from_ns(30), 4);
            eng.scheduler().cancel(dead);
        };
        let mut straight = Engine::new(Recorder::default());
        schedule(&mut straight);
        straight.run_until_batched(SimTime::from_ns(30));

        let mut eng = Engine::new(Recorder::default());
        schedule(&mut eng);
        eng.run_until_batched(SimTime::from_ns(15));
        let snap = eng.scheduler_ref().snapshot();
        assert_eq!(snap.now(), SimTime::from_ns(10));
        assert_eq!(snap.events_dispatched(), 1);
        // Snapshotting is non-destructive: the original continues...
        eng.run_until_batched(SimTime::from_ns(30));
        assert_eq!(eng.model().seen, straight.model().seen);

        // ...and the capture restores into a different warm engine, twice.
        for _ in 0..2 {
            let mut resumed = Engine::new(Recorder::default());
            resumed.scheduler().at(SimTime::from_ns(1), 77); // stale state
            resumed.run_until_batched(SimTime::from_ns(5));
            resumed.model_mut().seen.clear();
            resumed.scheduler().restore(&snap);
            assert_eq!(resumed.scheduler().now(), SimTime::from_ns(10));
            resumed.run_until_batched(SimTime::from_ns(30));
            assert_eq!(resumed.model().seen, vec![(20, 2), (20, 3), (30, 4)]);
            assert_eq!(
                resumed.scheduler().events_dispatched(),
                straight.scheduler().events_dispatched()
            );
        }
    }

    #[test]
    fn restored_tokens_stay_cancellable() {
        // Sequence numbers carry across restore, so a token issued before
        // the snapshot cancels the same logical event afterwards.
        let mut eng = Engine::new(Recorder::default());
        eng.scheduler().at(SimTime::from_ns(5), 1);
        let tok = eng.scheduler().at(SimTime::from_ns(9), 2);
        let snap = eng.scheduler_ref().snapshot();
        let mut other = Engine::new(Recorder::default());
        other.scheduler().restore(&snap);
        assert!(other.scheduler().cancel(tok));
        other.run();
        assert_eq!(other.model().seen, vec![(5, 1)]);
    }

    #[test]
    fn pending_counts_exclude_cancelled() {
        let mut eng = Engine::new(Recorder::default());
        eng.scheduler().at(SimTime::from_ns(1), 1);
        let t = eng.scheduler().at(SimTime::from_ns(2), 2);
        assert_eq!(eng.scheduler().pending(), 2);
        eng.scheduler().cancel(t);
        assert_eq!(eng.scheduler().pending(), 1);
    }

    #[cfg(feature = "audit")]
    #[test]
    fn audit_counts_every_dispatch() {
        let mut eng = Engine::new(Recorder::default());
        eng.scheduler().at(SimTime::from_ns(20), 2);
        eng.scheduler().at(SimTime::from_ns(10), 1);
        let t = eng.scheduler().at(SimTime::from_ns(15), 9);
        eng.scheduler().cancel(t);
        eng.run();
        // Cancelled events are discarded without an audit check.
        assert_eq!(eng.scheduler().audit_time_checks(), 2);
        assert_eq!(
            eng.scheduler().audit_time_checks(),
            eng.scheduler().events_dispatched()
        );
    }
}
