//! `campaign`: a seeded `CampaignSpec::expand` grid at a 100 ms horizon
//! through `run_campaign` on two workers, each record journaled into
//! memory as NDJSON and folded into a `CampaignAggregator` — the
//! population path.
//!
//! Cell cost is dominated by the unit × scheme pair, and the host time
//! per event by the DRAM channel count (about 1.8 times as much at 4
//! channels as at 1). So a pass takes one cell of every one of the 75
//! pairs from the seeded grid (through `run_campaign`'s skip set, in grid
//! order), and the pairs take turns at 1, 2 and 4 channels. The seed then
//! varies every cell's other device knobs and derived seed, but not the
//! mix that sets a pass's cost. Every pass of a run repeats the same
//! cells, so the mix does not depend on how many passes fit either.

use std::collections::BTreeMap;

use desim::{FxHashSet, SimDelta};
use telemetry::{CampaignAggregator, CellResult};
use vip_bench::{run_campaign, CampaignSpec, RunSettings, Unit};
#[cfg(feature = "trace")]
use vip_core::{FlowSpec, SystemConfig};
use vip_core::{Scheme, SimCell};

use crate::cell::{par_map, record, Cell, Path, Replay};
use crate::measure::Metrics;
use crate::{Outcome, Phase};

/// Simulated horizon per cell (the EXPERIMENTS.md recipe's).
const MS: u64 = 100;
/// Most passes one timed phase may run.
const MAX_PASSES: usize = 3;
const CHANNELS: [usize; 3] = [1, 2, 4];
const WORKERS: usize = 2;

pub struct Inputs {
    spec: CampaignSpec,
    /// The cells of a pass, and the grid indices it skips.
    cells: Vec<Cell>,
    skip: FxHashSet<u64>,
}

/// Expands grids of growing size until every unit × scheme pair occurs
/// at every channel count, then takes for the `k`-th pair its first cell
/// at channel count `CHANNELS[k % 3]`.
pub fn setup(seed: u64) -> Inputs {
    let strata = Unit::all().len() * Scheme::ALL.len() * CHANNELS.len();
    let mut cells = 2048;
    loop {
        let spec = CampaignSpec {
            cells,
            seed,
            ms: MS,
        };
        let grid = spec.expand();
        let mut by_stratum: BTreeMap<(&str, &str, usize), u64> = BTreeMap::new();
        for c in &grid {
            by_stratum
                .entry((c.unit.label(), c.scheme.label(), c.cfg.dram.channels))
                .or_insert(c.index);
        }
        if by_stratum.len() < strata {
            cells *= 2;
            continue;
        }
        // Keys sort by channel count within a pair, as `CHANNELS` does, so
        // chunk `k` holds pair `k`'s cells at 1, 2 and 4 channels.
        let firsts: Vec<u64> = by_stratum.into_values().collect();
        let mut chosen: Vec<u64> = firsts
            .chunks(CHANNELS.len())
            .enumerate()
            .map(|(k, v)| v[k % CHANNELS.len()])
            .collect();
        chosen.sort_unstable();
        let keep: FxHashSet<u64> = chosen.iter().copied().collect();
        let skip = (0..spec.cells).filter(|i| !keep.contains(i)).collect();
        let cells: Vec<Cell> = chosen
            .iter()
            .map(|&i| {
                let c = &grid[i as usize];
                Cell {
                    id: i,
                    unit: c.unit,
                    settings: RunSettings {
                        duration: SimDelta::from_ms(MS),
                        seed: c.seed,
                    },
                    cfg: c.cfg.clone(),
                    config: c.config_key.clone(),
                }
            })
            .collect();
        // Warm-up: the pass's A1 Baseline cell (every pass has one, at a
        // fixed channel count, so the cost hardly depends on the seed), run
        // at a short horizon.
        let first = cells
            .iter()
            .find(|c| c.unit == Unit::all()[0] && c.scheme() == Scheme::Baseline)
            .expect("a pass holds every unit x scheme pair");
        let mut cfg = first.cfg.clone();
        cfg.duration = SimDelta::from_ms(20);
        std::hint::black_box(SimCell::new(cfg, first.unit.flows(first.settings)).run());
        return Inputs { spec, cells, skip };
    }
}

pub fn run(inputs: &Inputs, phase: &mut Phase) -> Outcome {
    let mut lines: Vec<String> = Vec::new();
    // Each cell's digest in the first pass; a later pass that disagrees
    // with it counts as a failure.
    let mut digests: BTreeMap<u64, u64> = BTreeMap::new();
    let mut repeats_differ = 0;
    let mut agg = CampaignAggregator::new();
    let mut per_worker = vec![0u64; WORKERS];
    phase.run(MAX_PASSES, || {
        let mut events = 0;
        let mut n = 0;
        run_campaign(&inputs.spec, WORKERS, &inputs.skip, |w, r| {
            lines.push(r.to_ndjson());
            agg.add_cell(&r);
            per_worker[w] += 1;
            events += r.events;
            n += 1;
            if *digests.entry(r.cell).or_insert(r.digest) != r.digest {
                repeats_differ += 1;
            }
        });
        (n, events)
    });

    // Checks: every journal line re-parses and re-serializes byte for
    // byte; every cell and the aggregate match a fresh `SimCell` per cell.
    let mut out = Outcome {
        per_worker,
        failed: repeats_differ,
        ..Outcome::default()
    };
    for line in &lines {
        out.attempted += 1;
        let same = CellResult::parse_line(line).is_ok_and(|r| r.to_ndjson() == *line);
        if !same {
            println!("journal line does not round-trip: {}", line.trim_end());
            out.failed += 1;
        }
    }
    let fresh = par_map(&inputs.cells, |c| {
        let mut sim = SimCell::new(c.cfg.clone(), c.unit.flows(c.settings));
        let report = sim.run();
        let mut hist = telemetry::LogHistogram::new();
        sim.harvest_flow_times(&mut hist)
            .expect("harvest after run");
        (record(c, &report, hist), report)
    });
    let mut ref_agg = CampaignAggregator::new();
    for (f, report) in &fresh {
        for _ in 0..phase.passes {
            ref_agg.add_cell(f);
        }
        if digests.get(&f.cell) != Some(&f.digest) {
            out.failed += 1;
        }
        out.tally.add(report);
    }
    if agg.to_json() != ref_agg.to_json() {
        println!("aggregate differs from the fresh-cell reference");
        out.failed += 1;
    }
    out
}

/// One pass replayed on one thread with a span per layer call.
pub fn replay(inputs: &Inputs, m: &mut Metrics) -> Replay {
    let mut rp = Replay::new();
    let setup = rp.spans.open("setup", 0, None);
    let spec = inputs.spec;
    let grid = rp.spans.time("campaign.expand", setup, || spec.expand());
    rp.spans.close(setup);
    std::hint::black_box(grid);
    for c in &inputs.cells {
        rp.cell(None, c, None, Path::Full);
    }
    rp.put_layers(m);
    let t = rp.spans.self_time();
    let expand_ms = t
        .get("campaign.expand")
        .map_or(0.0, |(ns, _)| *ns as f64 / 1e6);
    let mut extra = Metrics::default();
    extra.put("campaign.expand_ms", expand_ms, "ms");
    rp.put_channels(&mut extra);
    extra.print("campaign layers:");
    rp
}

/// A pass's inputs, for the counting pass.
#[cfg(feature = "trace")]
pub fn count_inputs(seed: u64) -> Vec<(SystemConfig, Vec<FlowSpec>)> {
    setup(seed)
        .cells
        .iter()
        .map(|c| (c.cfg.clone(), c.unit.flows(c.settings)))
        .collect()
}
