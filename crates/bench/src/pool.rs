//! The warm-cell worker pool behind [`Matrix`](crate::Matrix),
//! [`run_campaign`](crate::run_campaign) and [`Server`](crate::Server).
//!
//! Each worker owns one [`SimCell`] and [`shape`]s it for every job, so a
//! run of a thousand cells pays for `workers` constructions of the big
//! simulation state, not a thousand. How jobs reach a worker is the kind
//! of source it is given: [`run_each`] hands every worker the same
//! next-index claim over a fixed list (matrix, campaign), and the server
//! gives each worker its own queue and routes by key.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc::{self, Sender};
use std::thread::Scope;

use vip_core::{FlowSpec, SimCell, SystemConfig};

/// Shapes a worker's cell for `cfg` and `flows`: resets it in place,
/// reusing its allocations, or builds it on first use. A run from either
/// is bit-identical to a fresh cell's (the golden matrix test runs
/// through this on every worker count).
pub(crate) fn shape<'a>(
    warm: &'a mut Option<SimCell>,
    cfg: &SystemConfig,
    flows: &[FlowSpec],
) -> &'a mut SimCell {
    match warm {
        Some(cell) => {
            cell.reset(cfg, flows);
            cell
        }
        None => warm.insert(SimCell::new(cfg.clone(), flows.to_vec())),
    }
}

/// Starts one worker per job source on `scope`. Worker `w` (its source's
/// position) runs `work(job, &mut warm)` on each job its source yields,
/// on its own warm cell, and sends `(w, result)` to `results`.
///
/// A worker stops when its source ends or when `results` has no
/// receiver, and drops its source then: a feeder blocked on that
/// worker's queue gets an error instead of waiting forever.
pub(crate) fn spawn<'scope, S, R, F>(
    scope: &'scope Scope<'scope, '_>,
    sources: impl IntoIterator<Item = S>,
    work: &'scope F,
    results: Sender<(usize, R)>,
) where
    S: IntoIterator + Send + 'scope,
    R: Send + 'scope,
    F: Fn(S::Item, &mut Option<SimCell>) -> R + Sync,
{
    for (w, source) in sources.into_iter().enumerate() {
        let results = results.clone();
        scope.spawn(move || {
            let mut warm = None;
            for job in source {
                if results.send((w, work(job, &mut warm))).is_err() {
                    break;
                }
            }
        });
    }
}

/// Runs `work` on every job on `workers` threads (no more than there are
/// jobs), each claiming the next unclaimed index, and hands each
/// `(worker, result)` to `on_result` on the calling thread the moment it
/// arrives — not after a barrier, so a caller can journal mid-run.
///
/// # Panics
///
/// Panics if `workers` is zero.
pub(crate) fn run_each<J, R, F>(
    jobs: &[J],
    workers: usize,
    work: F,
    mut on_result: impl FnMut(usize, R),
) where
    J: Sync,
    R: Send,
    F: Fn(&J, &mut Option<SimCell>) -> R + Sync,
{
    assert!(workers > 0, "need at least one worker");
    let next = &AtomicUsize::new(0);
    let claims = (0..workers.min(jobs.len().max(1)))
        .map(|_| std::iter::from_fn(move || jobs.get(next.fetch_add(1, Ordering::Relaxed))));
    let (tx, rx) = mpsc::channel();
    std::thread::scope(|scope| {
        spawn(scope, claims, &work, tx);
        for (w, result) in rx {
            on_result(w, result);
        }
    });
}
