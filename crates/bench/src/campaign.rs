//! Population-scale campaign runner: a seeded grid of (workload × scheme
//! × device-config) cells, dispatched to warm simulation cells on a
//! worker pool and streamed out as NDJSON.
//!
//! The design target is the aggregate-identity guarantee from the
//! telemetry layer: every cell is an isolated deterministic simulation,
//! the per-cell [`CellResult`] carries only deterministic fields into the
//! [`CampaignAggregator`](telemetry::CampaignAggregator), and the
//! aggregator's state is order-insensitive — so the final aggregate JSON
//! is byte-identical whether the campaign ran on 1 worker or N, straight
//! through or resumed from a half-written journal. The integration tests
//! and the `campaign --smoke` CI job both enforce exactly that.
//!
//! Wall-clock appears in two sanctioned places only (this crate is
//! outside the simulator's D002 no-wall-clock scope): the per-cell
//! `events_per_sec` diagnostic, and the progress heartbeat — and
//! heartbeats *trigger* on cell completions, never on timers, so the
//! simulation path never observes host time.

use crate::runner::{RunSettings, Unit};
use desim::{FxHashMap, FxHashSet, SimDelta, SimTime, SplitMix64};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Mutex;
use std::time::Instant;
use telemetry::{CellResult, LogHistogram};
use vip_core::{Scheme, SimCell, SimSnapshot, SystemConfig};

/// The campaign-level knobs: grid size, the master seed every cell's
/// seed derives from, and the simulated horizon per cell.
#[derive(Debug, Clone, Copy)]
pub struct CampaignSpec {
    /// Number of cells in the grid.
    pub cells: u64,
    /// Master seed; cell `i` derives its own seed from `(seed, i)` only,
    /// so any subset of the grid can be re-expanded independently.
    pub seed: u64,
    /// Simulated horizon per cell, milliseconds.
    pub ms: u64,
}

/// One fully-derived grid cell: everything needed to run it and to name
/// it in the journal.
#[derive(Debug, Clone)]
pub struct CellSpec {
    /// Position in the grid (the journal's resume key).
    pub index: u64,
    /// This cell's derived seed (drives workload jitter and touch traces).
    pub seed: u64,
    /// The workload or app column.
    pub unit: Unit,
    /// The scheme under test.
    pub scheme: Scheme,
    /// The perturbed platform.
    pub cfg: SystemConfig,
    /// Human-readable key of every perturbed knob (goes in the record).
    pub config_key: String,
}

/// Derives cell `index`'s seed from the campaign seed alone: a SplitMix
/// draw over the mixed pair, so neighbouring indices share no structure.
fn cell_seed(campaign_seed: u64, index: u64) -> u64 {
    SplitMix64::new(campaign_seed ^ index.wrapping_mul(0x9E37_79B9_7F4A_7C15)).next_u64()
}

impl CampaignSpec {
    /// Expands the seeded grid into concrete cells.
    ///
    /// Each cell draws its unit, scheme and device knobs from its own
    /// `cell_seed`-keyed generator, so expansion is deterministic,
    /// order-free, and identical however the work is later sharded. Every
    /// generated config passes [`SystemConfig::validate`] (asserted —
    /// the knob ranges are chosen inside the validity envelope).
    pub fn expand(&self) -> Vec<CellSpec> {
        let units = Unit::all();
        (0..self.cells)
            .map(|index| {
                let seed = cell_seed(self.seed, index);
                let mut rng = SplitMix64::new(seed);
                let unit = units[rng.below(units.len() as u64) as usize];
                let scheme = Scheme::ALL[rng.below(Scheme::ALL.len() as u64) as usize];
                let mut cfg = SystemConfig::table3(scheme);
                cfg.duration = SimDelta::from_ms(self.ms);
                cfg.seed = seed;
                cfg.num_cpus = [2, 4][rng.below(2) as usize];
                cfg.dram.channels = [1, 2, 4][rng.below(3) as usize];
                let t_line = [15, 12, 10][rng.below(3) as usize];
                cfg.dram.t_line = SimDelta::from_ns(t_line);
                cfg.burst_frames = rng.range(2, 9) as u32;
                cfg.max_lanes = rng.range(2, 5) as usize;
                cfg.source_queue_limit = rng.range(4, 10) as u32;
                let bg = rng.below(3);
                cfg.background = match bg {
                    0 => None,
                    1 => cfg.background, // Table 3 default (90 ms / 12 ms)
                    _ => Some(vip_core::BackgroundLoad {
                        period: SimDelta::from_ms(60),
                        duration: SimDelta::from_ms(15),
                    }),
                };
                let config_key = format!(
                    "cpus={},ch={},tline={}ns,burst={},lanes={},q={},bg={}",
                    cfg.num_cpus,
                    cfg.dram.channels,
                    t_line,
                    cfg.burst_frames,
                    cfg.max_lanes,
                    cfg.source_queue_limit,
                    match bg {
                        0 => "none",
                        1 => "90/12",
                        _ => "60/15",
                    }
                );
                cfg.validate()
                    .expect("campaign knobs stay inside the validity envelope");
                CellSpec {
                    index,
                    seed,
                    unit,
                    scheme,
                    cfg,
                    config_key,
                }
            })
            .collect()
    }
}

/// One in-flight cell's mid-run capture: where it was and the full
/// simulation state to continue from.
#[derive(Debug, Clone)]
pub struct CellCheckpoint {
    /// Simulated instant the snapshot was taken at.
    pub at: SimTime,
    /// The resumable state.
    pub snap: SimSnapshot,
}

/// Shared store of mid-flight cell checkpoints, keyed by cell index.
///
/// Workers upsert a checkpoint every [`CheckpointPolicy::every`] of
/// simulated time and remove it when the cell's record is distilled;
/// after an interrupted [`run_campaign_checkpointed`], the store holds
/// exactly the cells that were in flight. A subsequent run with the same
/// store restores those cells instead of cold-starting them, so only the
/// tail past the last checkpoint is re-simulated — and the resumed
/// record is bit-identical to a straight-through run's (snapshot/restore
/// is digest-neutral by the session-API contract).
///
/// Checkpoints are in-memory only: [`SimSnapshot`] has no serialized
/// form, so the store rides within one process (library embeddings,
/// long-lived drivers). The `campaign` *binary*'s `--resume` remains
/// journal-based — completed cells replay from NDJSON; in-flight cells
/// of a killed process restart cold.
#[derive(Debug, Default)]
pub struct CheckpointStore {
    inner: Mutex<FxHashMap<u64, CellCheckpoint>>,
}

impl CheckpointStore {
    /// An empty store.
    pub fn new() -> Self {
        Self::default()
    }

    /// Upserts cell `index`'s checkpoint.
    pub fn save(&self, index: u64, at: SimTime, snap: SimSnapshot) {
        self.inner
            .lock()
            .expect("checkpoint store lock")
            .insert(index, CellCheckpoint { at, snap });
    }

    /// Removes and returns cell `index`'s checkpoint, if any.
    pub fn take(&self, index: u64) -> Option<CellCheckpoint> {
        self.inner
            .lock()
            .expect("checkpoint store lock")
            .remove(&index)
    }

    /// Number of in-flight checkpoints held.
    pub fn len(&self) -> usize {
        self.inner.lock().expect("checkpoint store lock").len()
    }

    /// Whether the store holds no checkpoints.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// How (and whether) a campaign run checkpoints in-flight cells.
#[derive(Debug)]
pub struct CheckpointPolicy<'a> {
    /// Where mid-flight snapshots live (shared across runs to resume).
    pub store: &'a CheckpointStore,
    /// Simulated time between checkpoints of a running cell.
    pub every: SimDelta,
    /// Graceful-stop flag: once set, workers checkpoint their current
    /// cell and stop claiming new ones.
    pub interrupt: &'a AtomicBool,
}

/// Runs one cell on a warm simulation cell and distills its record.
///
/// With a checkpoint policy, the cell runs in `policy.every` slices,
/// upserting a snapshot after each; an interrupt leaves the latest
/// checkpoint in the store and returns `None`. A cell whose index is
/// already checkpointed restores and continues from there instead of
/// cold-starting.
fn run_cell(
    spec: &CellSpec,
    ms: u64,
    warm: &mut Option<SimCell>,
    policy: Option<&CheckpointPolicy<'_>>,
) -> Option<CellResult> {
    let settings = RunSettings {
        duration: SimDelta::from_ms(ms),
        seed: spec.seed,
    };
    let t0 = Instant::now();
    let report = match policy {
        None => spec.unit.run_warm(&spec.cfg, settings, warm),
        Some(policy) => {
            let cell = spec.unit.prepare_warm(&spec.cfg, settings, warm);
            if let Some(ckpt) = policy.store.take(spec.index) {
                cell.restore(&ckpt.snap);
            }
            let end = SimTime::ZERO + SimDelta::from_ms(ms);
            let mut next = cell.now() + policy.every;
            while next < end {
                cell.run_until(next);
                policy.store.save(spec.index, cell.now(), cell.snapshot());
                if policy.interrupt.load(Ordering::Relaxed) {
                    return None;
                }
                next += policy.every;
            }
            let report = cell.finish();
            policy.store.take(spec.index);
            report
        }
    };
    let wall = t0.elapsed().as_secs_f64();
    let mut flow_time_ns = LogHistogram::new();
    warm.as_ref()
        .expect("run_warm populated the slot")
        .harvest_flow_times(&mut flow_time_ns)
        .expect("campaign cell run to completion");
    Some(CellResult {
        cell: spec.index,
        seed: spec.seed,
        workload: spec.unit.label().to_string(),
        scheme: spec.scheme.label().to_string(),
        config: spec.config_key.clone(),
        digest: report.digest(),
        frames_sourced: report.frames_sourced,
        frames_completed: report.frames_completed,
        frames_violated: report.frames_violated,
        frames_dropped: report.frames_dropped_at_source,
        events: report.events,
        energy_nj: (report.energy.total_j() * 1e9).round() as u64,
        flow_time_ns,
        events_per_sec: if wall > 0.0 {
            report.events as f64 / wall
        } else {
            0.0
        },
    })
}

/// Runs the campaign grid on exactly `workers` threads, streaming each
/// finished cell to `on_result` as `(worker_id, record)` the moment it
/// completes (not after a barrier — the caller journals and heartbeats
/// mid-flight). Cells whose index is in `skip` (already journaled by an
/// interrupted run) are not re-run.
///
/// Each worker keeps one warm [`SimCell`] and resets it in place per
/// claimed cell, so a thousand-cell campaign does a thousand resets but
/// only `workers` allocations of the big simulation state.
///
/// # Panics
///
/// Panics if `workers` is zero.
pub fn run_campaign<F>(spec: &CampaignSpec, workers: usize, skip: &FxHashSet<u64>, on_result: F)
where
    F: FnMut(usize, CellResult),
{
    run_campaign_checkpointed(spec, workers, skip, None, on_result);
}

/// [`run_campaign`] with optional in-flight checkpointing: workers
/// snapshot their current cell every `policy.every` of simulated time
/// into `policy.store`, stop gracefully when `policy.interrupt` is set,
/// and restore checkpointed cells instead of cold-starting them on a
/// subsequent run with the same store. The streamed records — and hence
/// the final aggregate — are bit-identical to an uncheckpointed run's.
///
/// # Panics
///
/// Panics if `workers` is zero.
pub fn run_campaign_checkpointed<F>(
    spec: &CampaignSpec,
    workers: usize,
    skip: &FxHashSet<u64>,
    policy: Option<&CheckpointPolicy<'_>>,
    mut on_result: F,
) where
    F: FnMut(usize, CellResult),
{
    assert!(workers > 0, "need at least one worker");
    let cells: Vec<CellSpec> = spec
        .expand()
        .into_iter()
        .filter(|c| !skip.contains(&c.index))
        .collect();
    let workers = workers.min(cells.len().max(1));
    let next = std::sync::atomic::AtomicUsize::new(0);
    let (tx, rx) = std::sync::mpsc::channel::<(usize, CellResult)>();

    std::thread::scope(|scope| {
        for w in 0..workers {
            let tx = tx.clone();
            let cells = &cells;
            let next = &next;
            scope.spawn(move || {
                let mut warm: Option<SimCell> = None;
                loop {
                    if policy.is_some_and(|p| p.interrupt.load(Ordering::Relaxed)) {
                        break;
                    }
                    let i = next.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                    let Some(cell) = cells.get(i) else { break };
                    // An interrupted cell left its checkpoint in the
                    // store; the claim loop will stop at the top.
                    let Some(record) = run_cell(cell, spec.ms, &mut warm, policy) else {
                        continue;
                    };
                    tx.send((w, record)).expect("collector alive");
                }
            });
        }
        drop(tx);
        // Drain on the scope's own thread while workers run: this is what
        // makes journaling *streaming* — a crash loses at most the cells
        // still in flight, and resume replays everything already drained.
        for (w, record) in rx {
            on_result(w, record);
        }
    });
}

/// Replays a journal that [`run_campaign`]'s caller wrote for `spec`.
///
/// A crash can truncate only the *final* line (records are written with
/// one atomic-enough `write` + flush per cell), so a malformed last line
/// is silently dropped; a malformed line anywhere else means the file
/// was corrupted, not interrupted, and is an error. So is a record from
/// another campaign: each index must lie inside `spec`'s grid, appear
/// once, and carry the seed, workload, scheme and config of
/// `spec.expand()`'s cell at that index. Records carry no horizon, so a
/// journal written with another `ms` goes undetected.
///
/// # Errors
///
/// Returns the first malformed non-final line with its 1-based number,
/// or names the first cell that does not belong to `spec`.
pub fn read_journal(text: &str, spec: &CampaignSpec) -> Result<Vec<CellResult>, String> {
    let cells = spec.expand();
    let mut seen = FxHashSet::default();
    let lines: Vec<&str> = text.lines().collect();
    let mut out = Vec::new();
    for (i, line) in lines.iter().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        let r = match CellResult::parse_line(line) {
            Ok(r) => r,
            Err(_) if i + 1 == lines.len() => continue, // truncated crash write
            Err(e) => return Err(format!("journal line {}: {e}", i + 1)),
        };
        let n = r.cell;
        let Some(c) = usize::try_from(n).ok().and_then(|n| cells.get(n)) else {
            return Err(format!("cell {n} is outside the {}-cell grid", spec.cells));
        };
        if !seen.insert(n) {
            return Err(format!("cell {n} appears twice"));
        }
        let same = r.seed == c.seed
            && r.workload == c.unit.label()
            && r.scheme == c.scheme.label()
            && r.config == c.config_key;
        if !same {
            return Err(format!("cell {n} is from another campaign"));
        }
        out.push(r);
    }
    Ok(out)
}

/// Progress bookkeeping for the campaign binary's stderr heartbeat.
///
/// Driven entirely by cell completions ([`on_cell`](Self::on_cell) says
/// when a line is due); the caller injects elapsed wall seconds into
/// [`line`](Self::line), which keeps this logic timer-free and testable.
#[derive(Debug)]
pub struct Heartbeat {
    total: u64,
    every: u64,
    done: u64,
    events: u64,
    per_worker: Vec<u64>,
}

impl Heartbeat {
    /// Tracker for `total` pending cells on `workers` threads, emitting
    /// every `every` completions (and on the last). `every == 0` disables
    /// emission.
    pub fn new(total: u64, workers: usize, every: u64) -> Self {
        Heartbeat {
            total,
            every,
            done: 0,
            events: 0,
            per_worker: vec![0; workers],
        }
    }

    /// Records one completed cell; returns whether a heartbeat is due.
    pub fn on_cell(&mut self, worker: usize, events: u64) -> bool {
        self.done += 1;
        self.events += events;
        if let Some(n) = self.per_worker.get_mut(worker) {
            *n += 1;
        }
        self.every > 0 && (self.done.is_multiple_of(self.every) || self.done == self.total)
    }

    /// Cells completed so far.
    pub fn done(&self) -> u64 {
        self.done
    }

    /// Formats one status line: progress, throughput (cells/s and
    /// simulation events/s), ETA from the observed rate, and per-worker
    /// completion counts (a stuck worker shows up as a frozen count).
    pub fn line(&self, elapsed_secs: f64) -> String {
        let rate = if elapsed_secs > 0.0 {
            self.done as f64 / elapsed_secs
        } else {
            0.0
        };
        let evps = if elapsed_secs > 0.0 {
            self.events as f64 / elapsed_secs
        } else {
            0.0
        };
        let eta = if rate > 0.0 {
            (self.total.saturating_sub(self.done)) as f64 / rate
        } else {
            f64::INFINITY
        };
        let workers: Vec<String> = self.per_worker.iter().map(|n| n.to_string()).collect();
        format!(
            "campaign: {}/{} cells ({:.2} cells/s, {:.3e} ev/s, ETA {:.0}s) workers [{}]",
            self.done,
            self.total,
            rate,
            evps,
            eta,
            workers.join(" ")
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn expansion_is_deterministic_and_valid() {
        let spec = CampaignSpec {
            cells: 40,
            seed: 0xC0FFEE,
            ms: 20,
        };
        let a = spec.expand();
        let b = spec.expand();
        assert_eq!(a.len(), 40);
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.index, y.index);
            assert_eq!(x.seed, y.seed);
            assert_eq!(x.config_key, y.config_key);
            x.cfg.validate().expect("expanded config validates");
        }
        // The grid actually varies: more than one distinct config key and
        // more than one unit across 40 cells.
        let keys: FxHashSet<&str> = a.iter().map(|c| c.config_key.as_str()).collect();
        assert!(keys.len() > 5, "grid barely varies: {keys:?}");
        let units: FxHashSet<&str> = a.iter().map(|c| c.unit.label()).collect();
        assert!(units.len() > 3);
    }

    #[test]
    fn cell_seeds_are_order_free() {
        // Cell 17's seed depends on (campaign seed, 17) only — resuming a
        // shard must re-derive identical cells without walking 0..16.
        assert_eq!(cell_seed(9, 17), cell_seed(9, 17));
        assert_ne!(cell_seed(9, 17), cell_seed(9, 18));
        assert_ne!(cell_seed(9, 17), cell_seed(10, 17));
    }

    #[test]
    fn journal_tolerates_truncated_final_line_only() {
        let spec = CampaignSpec {
            cells: 2,
            seed: 1,
            ms: 10,
        };
        let mut lines = Vec::new();
        run_campaign(&spec, 1, &FxHashSet::default(), |_, r| {
            lines.push(r.to_ndjson());
        });
        let full = lines.concat();
        assert_eq!(read_journal(&full, &spec).unwrap().len(), 2);

        // Crash mid-write: final line cut short is dropped, not fatal.
        let truncated = &full[..full.len() - 30];
        let replayed = read_journal(truncated, &spec).unwrap();
        assert_eq!(replayed.len(), 1);

        // Corruption in the middle is fatal.
        let mut corrupt = lines.clone();
        corrupt[0] = corrupt[0].replace("\"cell\": 0", "\"cell\": oops");
        let err = read_journal(&corrupt.concat(), &spec).unwrap_err();
        assert!(err.contains("line 1"), "{err}");

        // So is a record from another campaign: another seed's grid, an
        // index outside the grid, or an index seen twice.
        for (text, spec, cell) in [
            (&full, CampaignSpec { seed: 2, ..spec }, "cell 0"),
            (&full, CampaignSpec { cells: 1, ..spec }, "cell 1"),
            (&lines[0].repeat(2), spec, "cell 0"),
        ] {
            let err = read_journal(text, &spec).unwrap_err();
            assert!(err.contains(cell), "{err}");
        }
    }

    /// Interrupt → checkpoint → resume must reproduce the straight-run
    /// record bit-identically while re-simulating only the tail past the
    /// last checkpoint.
    #[test]
    fn checkpoint_resume_is_bit_identical_and_skips_warmup() {
        let spec = CampaignSpec {
            cells: 1,
            seed: 0xBEEF,
            ms: 40,
        };
        let cell_spec = &spec.expand()[0];

        // Reference: straight through, no checkpointing.
        let mut warm = None;
        let straight =
            run_cell(cell_spec, spec.ms, &mut warm, None).expect("uninterrupted run completes");

        // Interrupted: the flag is set before the first slice lands, so
        // the run checkpoints once and bails.
        let store = CheckpointStore::new();
        let interrupt = AtomicBool::new(true);
        let policy = CheckpointPolicy {
            store: &store,
            every: SimDelta::from_ms(10),
            interrupt: &interrupt,
        };
        let mut warm2 = None;
        assert!(
            run_cell(cell_spec, spec.ms, &mut warm2, Some(&policy)).is_none(),
            "interrupted run must not distill a record"
        );
        assert_eq!(store.len(), 1, "in-flight cell left no checkpoint");
        let at = store
            .inner
            .lock()
            .unwrap()
            .get(&cell_spec.index)
            .expect("checkpointed")
            .at;
        assert!(at >= SimTime::ZERO && at <= SimTime::from_ms(10));

        // Resume with the same store: restores past the warmup, finishes,
        // clears the checkpoint, and matches the reference exactly on
        // every deterministic field.
        interrupt.store(false, Ordering::Relaxed);
        let resumed =
            run_cell(cell_spec, spec.ms, &mut warm2, Some(&policy)).expect("resumed run completes");
        assert!(store.is_empty(), "completed cell left its checkpoint");
        assert_eq!(resumed.digest, straight.digest, "resume drifted");
        assert_eq!(resumed.events, straight.events);
        assert_eq!(resumed.frames_completed, straight.frames_completed);
        assert_eq!(resumed.energy_nj, straight.energy_nj);
        assert_eq!(resumed.flow_time_ns.count(), straight.flow_time_ns.count());
        assert_eq!(resumed.flow_time_ns.sum(), straight.flow_time_ns.sum());
    }

    /// The checkpointed pool streams records bit-identical to the plain
    /// pool's, and a graceful interrupt + resume covers the whole grid
    /// exactly once.
    #[test]
    fn checkpointed_pool_matches_plain_pool() {
        let spec = CampaignSpec {
            cells: 6,
            seed: 0xA11CE,
            ms: 15,
        };
        let no_skip = FxHashSet::default();
        let mut plain: Vec<(u64, u64)> = Vec::new();
        run_campaign(&spec, 2, &no_skip, |_, r| plain.push((r.cell, r.digest)));
        plain.sort_unstable();

        let store = CheckpointStore::new();
        let interrupt = AtomicBool::new(false);
        let policy = CheckpointPolicy {
            store: &store,
            every: SimDelta::from_ms(5),
            interrupt: &interrupt,
        };
        let mut ckpt: Vec<(u64, u64)> = Vec::new();
        run_campaign_checkpointed(&spec, 2, &no_skip, Some(&policy), |_, r| {
            ckpt.push((r.cell, r.digest));
        });
        ckpt.sort_unstable();
        assert_eq!(plain, ckpt, "checkpoint slicing changed a record");
        assert!(store.is_empty(), "completed campaign left checkpoints");
    }

    #[test]
    fn heartbeat_counts_and_formats() {
        let mut hb = Heartbeat::new(4, 2, 2);
        assert!(!hb.on_cell(0, 1000));
        assert!(hb.on_cell(1, 3000), "every=2 fires on the 2nd");
        assert!(!hb.on_cell(1, 1000));
        assert!(hb.on_cell(0, 1000), "always fires on the last");
        let line = hb.line(2.0);
        assert!(line.contains("4/4"), "{line}");
        assert!(line.contains("2.00 cells/s"), "{line}");
        assert!(line.contains("workers [2 2]"), "{line}");
        // Zero elapsed must not divide by zero.
        assert!(Heartbeat::new(1, 1, 1).line(0.0).contains("0/1"));
    }
}
