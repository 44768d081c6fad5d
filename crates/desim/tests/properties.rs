//! Property-based tests for the simulation kernel: total ordering of event
//! dispatch, FIFO tie-breaking, determinism, and cancellation soundness.
//! Uses the in-repo [`desim::check`] harness (seeded random cases).

use desim::check::{forall, vec_of};
use desim::{Engine, EventToken, Model, Scheduler, SimDelta, SimTime};

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

/// Events always fire in nondecreasing time order, and events scheduled
/// for the same instant fire in scheduling order.
#[test]
fn dispatch_order_is_time_then_fifo() {
    forall("dispatch order", 256, |rng| {
        let times = vec_of(rng, 1, 200, |r| r.below(1000));
        let mut eng = Engine::new(Recorder::default());
        for (i, &t) in times.iter().enumerate() {
            eng.scheduler().at(SimTime::from_ns(t), i as u32);
        }
        eng.run();
        let seen = &eng.model().seen;
        assert_eq!(seen.len(), times.len());
        for w in seen.windows(2) {
            assert!(w[0].0 <= w[1].0, "time went backwards");
            if w[0].0 == w[1].0 {
                assert!(w[0].1 < w[1].1, "FIFO violated at t={}", w[0].0);
            }
        }
    });
}

/// A run is a pure function of the schedule: re-running the same input
/// produces the identical trace.
#[test]
fn runs_are_deterministic() {
    forall("determinism", 128, |rng| {
        let times = vec_of(rng, 1, 100, |r| r.below(1000));
        let run = |times: &[u64]| {
            let mut eng = Engine::new(Recorder::default());
            for (i, &t) in times.iter().enumerate() {
                eng.scheduler().at(SimTime::from_ns(t), i as u32);
            }
            eng.run();
            eng.into_model().seen
        };
        assert_eq!(run(&times), run(&times));
    });
}

/// Cancelled events never fire; everything else always fires exactly once.
#[test]
fn cancellation_is_exact() {
    forall("cancellation", 256, |rng| {
        let times = vec_of(rng, 1, 100, |r| r.below(1000));
        let mut eng = Engine::new(Recorder::default());
        let mut kept = Vec::new();
        for (i, &t) in times.iter().enumerate() {
            let tok = eng.scheduler().at(SimTime::from_ns(t), i as u32);
            if rng.chance(0.5) {
                assert!(eng.scheduler().cancel(tok));
            } else {
                kept.push(i as u32);
            }
        }
        eng.run();
        let mut fired: Vec<u32> = eng.model().seen.iter().map(|&(_, e)| e).collect();
        fired.sort_unstable();
        kept.sort_unstable();
        assert_eq!(fired, kept);
    });
}

/// The reworked scheduler dispatches an arbitrary interleaving of
/// `at` / `after` / `cancel` in exactly `(time, insertion-seq)` order,
/// driven through the engine itself so lazy tombstone collection is
/// exercised.
#[test]
fn scheduler_orders_arbitrary_at_after_cancel_interleavings() {
    forall("at/after/cancel interleaving", 256, |rng| {
        // Expected order: (time, seq) over surviving events, computed by a
        // reference sort — the scheduler must match it exactly.
        let mut eng = Engine::new(Recorder::default());
        let mut tokens: Vec<(EventToken, u64, u32)> = Vec::new(); // (tok, time, id)
        let mut cancelled: Vec<bool> = Vec::new();
        let nops = rng.range(1, 150);
        for i in 0..nops {
            match rng.below(4) {
                // at: absolute instant
                0 | 1 => {
                    let t = rng.below(2_000);
                    let tok = eng.scheduler().at(SimTime::from_ns(t), i as u32);
                    tokens.push((tok, t, i as u32));
                    cancelled.push(false);
                }
                // after: relative to now (now is 0 pre-run, so equivalent
                // in value but exercises the other entry point)
                2 => {
                    let d = rng.below(2_000);
                    let tok = eng.scheduler().after(SimDelta::from_ns(d), i as u32);
                    tokens.push((tok, d, i as u32));
                    cancelled.push(false);
                }
                // cancel a random earlier, not-yet-cancelled event
                _ => {
                    if !tokens.is_empty() {
                        let pick = rng.below(tokens.len() as u64) as usize;
                        if !cancelled[pick] {
                            assert!(eng.scheduler().cancel(tokens[pick].0));
                            cancelled[pick] = true;
                        } else {
                            assert!(
                                !eng.scheduler().cancel(tokens[pick].0),
                                "double-cancel must be rejected"
                            );
                        }
                    }
                }
            }
        }
        // Reference: surviving events sorted by (time, insertion order).
        // Insertion order equals the order of `tokens` (seq is monotone).
        let mut expected: Vec<(u64, u32)> = tokens
            .iter()
            .zip(&cancelled)
            .filter(|(_, &c)| !c)
            .map(|(&(_, t, id), _)| (t, id))
            .collect();
        expected.sort_by_key(|&(t, _)| t); // stable: preserves seq order within a time
        eng.run();
        assert_eq!(eng.model().seen, expected);
    });
}

/// run_until(h) dispatches exactly the events with time <= h, and a
/// subsequent full run dispatches the rest.
#[test]
fn run_until_partitions_the_schedule() {
    forall("run_until partition", 256, |rng| {
        let times = vec_of(rng, 1, 100, |r| r.below(1000));
        let horizon = rng.below(1000);
        let mut eng = Engine::new(Recorder::default());
        for (i, &t) in times.iter().enumerate() {
            eng.scheduler().at(SimTime::from_ns(t), i as u32);
        }
        eng.run_until(SimTime::from_ns(horizon));
        let early = eng.model().seen.len();
        let expected_early = times.iter().filter(|&&t| t <= horizon).count();
        assert_eq!(early, expected_early);
        eng.run();
        assert_eq!(eng.model().seen.len(), times.len());
    });
}
