//! `matrix`: the `perf` binary's 25 pinned cells (A1, A2, A5, W1, W5 ×
//! every scheme, Table 3 platform) through `Matrix::run_subset_workers`
//! on one worker — the paper-reproduction path.

use desim::SimDelta;
use vip_bench::{Matrix, RunSettings, Unit};
use vip_core::Scheme;
#[cfg(feature = "trace")]
use vip_core::{FlowSpec, SystemConfig};
use workloads::{App, Workload};

use crate::cell::{cold_reports, Cell, Path, Replay};
use crate::measure::Metrics;
use crate::{Outcome, Phase};

/// Simulated horizon of a timed pass.
const PASS_MS: u64 = 100;
/// The BENCH_1..3 horizon and the totals BENCH_3 pinned at it.
const BENCH3_MS: u64 = 300;
const BENCH3_EVENTS: u64 = 57_616_103;
const BENCH3_DIGEST: u64 = 0xc9e7_6299_ea31_8cee;
/// The seed `perf` and BENCH_3 run with (`RunSettings::default().seed`).
pub const DEFAULT_SEED: u64 = 0x11E5CA;

fn units() -> Vec<Unit> {
    vec![
        Unit::App(App::A1),
        Unit::App(App::A2),
        Unit::App(App::A5),
        Unit::Wkld(Workload::W1),
        Unit::Wkld(Workload::W5),
    ]
}

fn settings(seed: u64, ms: u64) -> RunSettings {
    RunSettings {
        duration: SimDelta::from_ms(ms),
        seed,
    }
}

/// The 25 cells in `Matrix` order (unit-major, `Scheme::ALL` minor).
fn cells(seed: u64) -> Vec<Cell> {
    let s = settings(seed, PASS_MS);
    units()
        .into_iter()
        .flat_map(|unit| Scheme::ALL.map(|scheme| (unit, scheme)))
        .enumerate()
        .map(|(id, (unit, scheme))| Cell {
            id: id as u64,
            unit,
            settings: s,
            cfg: s.config(scheme),
            config: "table3".to_string(),
        })
        .collect()
}

/// `perf`'s combined digest over a matrix, in cell order.
fn combined(m: &Matrix) -> (u64, u64) {
    let mut events = 0u64;
    let mut digest = 0u64;
    for r in m.results.iter().flatten() {
        events += r.events;
        digest ^= r.digest().rotate_left((events % 63) as u32);
    }
    (events, digest)
}

/// Inputs plus a warm-up run: one cell built and run at a short horizon.
pub fn setup(seed: u64) -> Vec<Cell> {
    let cells = cells(seed);
    let first = &cells[0];
    let warm = settings(seed, 20);
    let mut sim = vip_core::SimCell::new(warm.config(first.scheme()), first.unit.flows(warm));
    std::hint::black_box(sim.run());
    cells
}

pub fn run(seed: u64, cells: &[Cell], phase: &mut Phase) -> Outcome {
    let s = cells[0].settings;
    let mut passes: Vec<Matrix> = Vec::new();
    phase.run(usize::MAX, || {
        let m = Matrix::run_subset_workers(s, &units(), 1);
        let events: u64 = m.results.iter().flatten().map(|r| r.events).sum();
        passes.push(m);
        (25, events)
    });

    // Checks, outside the timed phase: every cell of every pass against a
    // cold `SystemSim::run` of the same inputs.
    let inputs: Vec<_> = cells
        .iter()
        .map(|c| (c.cfg.clone(), c.unit.flows(c.settings)))
        .collect();
    let cold = cold_reports(&inputs);
    let mut out = Outcome {
        per_worker: vec![25 * passes.len() as u64],
        ..Outcome::default()
    };
    for m in &passes {
        for (got, want) in m.results.iter().flatten().zip(&cold) {
            out.attempted += 1;
            if got.digest() != want.digest() {
                out.failed += 1;
            }
        }
    }
    for r in &cold {
        out.tally.add(r);
    }
    if seed == DEFAULT_SEED {
        let bench3 = Matrix::run_subset_workers(settings(seed, BENCH3_MS), &units(), 2);
        let (events, digest) = combined(&bench3);
        let ok = (events, digest) == (BENCH3_EVENTS, BENCH3_DIGEST);
        println!(
            "BENCH_3 check at {BENCH3_MS} ms: {events} events, digest {digest:#018x} ({})",
            if ok { "matches" } else { "MISMATCH" }
        );
        out.attempted += 1;
        if !ok {
            out.failed += 1;
        }
    }
    out
}

/// One pass replayed on one thread with a span per layer call.
pub fn replay(cells: &[Cell], m: &mut Metrics) -> Replay {
    let mut rp = Replay::new();
    for c in cells {
        rp.cell(None, c, None, Path::Full);
    }
    rp.put_layers(m);
    rp
}

/// The 25 cells' inputs, for the counting pass.
#[cfg(feature = "trace")]
pub fn count_inputs(seed: u64) -> Vec<(SystemConfig, Vec<FlowSpec>)> {
    cells(seed)
        .iter()
        .map(|c| (c.cfg.clone(), c.unit.flows(c.settings)))
        .collect()
}
