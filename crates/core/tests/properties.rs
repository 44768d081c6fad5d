//! Property-based tests of the full-system simulator: frame conservation,
//! causal ordering of per-frame records, and cross-scheme invariants that
//! must hold for *any* flow geometry — not just the paper's workloads.
//! Uses the in-repo [`desim::check`] harness (seeded random cases).

use desim::check::{forall, vec_of};
use desim::{SimDelta, SplitMix64};
use soc::IpKind;
use vip_core::{FlowSpec, Scheme, SystemConfig, SystemSim};

/// IPs safe to appear mid-chain (compute-rate high enough that random
/// geometries finish within the test horizon).
const MID_IPS: [IpKind; 4] = [IpKind::Vd, IpKind::Ve, IpKind::Gpu, IpKind::Img];
const SINK_IPS: [IpKind; 3] = [IpKind::Dc, IpKind::Nw, IpKind::Mmc];

#[derive(Debug, Clone)]
struct FlowGeom {
    stages: Vec<(usize, u64)>, // (mid-ip index, out_bytes)
    sink: usize,
    src_bytes: u64,
    fps_decihz: u64,
}

fn arb_flow(rng: &mut SplitMix64) -> FlowGeom {
    let mut stages = vec_of(rng, 1, 3, |r| {
        (
            r.below(MID_IPS.len() as u64) as usize,
            r.range(50_000, 2_000_000),
        )
    });
    // A flow may visit an IP at most once (FlowSpec::validate).
    let mut seen = [false; MID_IPS.len()];
    stages.retain(|&(ip, _)| !std::mem::replace(&mut seen[ip], true));
    FlowGeom {
        stages,
        sink: rng.below(SINK_IPS.len() as u64) as usize,
        src_bytes: rng.range(10_000, 500_000),
        fps_decihz: rng.range(150, 600), // 15..60 fps
    }
}

fn build(flows: &[FlowGeom]) -> Vec<FlowSpec> {
    flows
        .iter()
        .enumerate()
        .map(|(i, g)| {
            let mut b = FlowSpec::builder(format!("f{i}"))
                .fps(g.fps_decihz as f64 / 10.0)
                .cpu_source(g.src_bytes, 100_000, 120_000)
                .deadline_periods(4.0);
            for &(ip, out) in &g.stages {
                b = b.stage(MID_IPS[ip], out);
            }
            b.stage(SINK_IPS[g.sink], 0).build()
        })
        .collect()
}

fn run(scheme: Scheme, flows: Vec<FlowSpec>) -> vip_core::SystemReport {
    let mut cfg = SystemConfig::table3(scheme);
    cfg.duration = SimDelta::from_ms(150);
    cfg.background = None; // deterministic-capacity runs for invariants
    SystemSim::run(cfg, flows)
}

/// Frames are conserved under every scheme: completed + dropped never
/// exceeds sourced, and something always completes on an uncontended
/// horizon.
#[test]
fn frame_conservation() {
    forall("frame conservation", 12, |rng| {
        let geoms = vec_of(rng, 1, 3, arb_flow);
        for &scheme in &Scheme::ALL {
            let rep = run(scheme, build(&geoms));
            assert!(
                rep.frames_completed + rep.frames_dropped_at_source <= rep.frames_sourced,
                "{scheme}: {} + {} > {}",
                rep.frames_completed,
                rep.frames_dropped_at_source,
                rep.frames_sourced
            );
            assert!(rep.frames_completed > 0, "{scheme}: nothing completed");
            // Per-flow counts sum to the system counts.
            let by_flow: u64 = rep.flows.iter().map(|f| f.frames_completed).sum();
            assert_eq!(by_flow, rep.frames_completed);
        }
    });
}

/// Energy accounting is internally consistent: all components are
/// nonnegative, and chained schemes move strictly less DRAM data than
/// the baseline for multi-stage flows.
#[test]
fn energy_and_traffic_invariants() {
    forall("energy invariants", 12, |rng| {
        let geoms = vec_of(rng, 1, 3, arb_flow);
        let base = run(Scheme::Baseline, build(&geoms));
        let vip = run(Scheme::Vip, build(&geoms));
        for rep in [&base, &vip] {
            assert!(rep.energy.cpu_j >= 0.0);
            assert!(rep.energy.dram_j > 0.0, "background power always accrues");
            assert!(rep.energy.ip_j >= 0.0);
            assert!(rep.energy.total_j().is_finite());
        }
        assert!(
            vip.mem_bytes < base.mem_bytes,
            "chained {} !< baseline {}",
            vip.mem_bytes,
            base.mem_bytes
        );
        assert!(vip.sa_bytes > 0, "chained data must cross the SA");
    });
}

/// Interrupt counts follow the architecture: chained schemes raise at
/// most one interrupt per dispatch while non-chained schemes raise one
/// per stage per dispatch.
#[test]
fn interrupt_counts() {
    forall("interrupt counts", 12, |rng| {
        let geoms = vec![arb_flow(rng)];
        let base = run(Scheme::Baseline, build(&geoms));
        let chained = run(Scheme::IpToIp, build(&geoms));
        let stages = (geoms[0].stages.len() + 1) as u64;
        // Both dispatch per frame; the baseline interrupts per stage.
        assert!(
            base.interrupts >= chained.interrupts,
            "baseline {} < chained {}",
            base.interrupts,
            chained.interrupts
        );
        if stages > 1 {
            assert!(base.interrupts > chained.interrupts);
        }
    });
}

/// Per-frame records are causally ordered: dispatch ≤ every stage
/// begin ≤ its end, stage completions are ordered along the chain, and
/// the finish equals the last stage's end.
#[test]
fn record_causality() {
    forall("record causality", 12, |rng| {
        let geoms = vec![arb_flow(rng)];
        let scheme = Scheme::ALL[rng.below(Scheme::ALL.len() as u64) as usize];
        let rep = run(scheme, build(&geoms));
        for f in &rep.flows {
            assert!(f.avg_flow_time >= SimDelta::ZERO);
        }
        // Flow time is bounded by the simulated horizon.
        assert!(rep.avg_flow_time <= SimDelta::from_ms(150));
    });
}

/// MemTick coalescing is purely a scheduling optimization: a run where
/// every superseded tick still re-polls the memory system (the work the
/// coalescer elides) must produce a digest-identical report — same event
/// calendar, same energy bits — for any geometry under any scheme.
#[test]
fn eager_mem_poll_is_behavior_preserving() {
    forall("eager mem poll", 8, |rng| {
        let geoms = vec_of(rng, 1, 3, arb_flow);
        let scheme = Scheme::ALL[rng.below(Scheme::ALL.len() as u64) as usize];
        let cfg = || {
            let mut cfg = SystemConfig::table3(scheme);
            cfg.duration = SimDelta::from_ms(150);
            cfg
        };
        let lazy = SystemSim::run(cfg(), build(&geoms));
        let eager = vip_core::SimCell::new(cfg(), build(&geoms))
            .runner()
            .eager_mem_poll()
            .run()
            .report;
        assert_eq!(
            lazy.digest(),
            eager.digest(),
            "{scheme}: coalescing changed behavior"
        );
        assert_eq!(
            lazy.events, eager.events,
            "{scheme}: event calendar differs"
        );
    });
}

/// Snapshot/restore is invisible at any split instant: for random
/// geometries, schemes, and split points `t`, snapshotting at `t`,
/// restoring into a warm cell, and continuing reproduces the
/// straight-through digest bit-for-bit — and taking the snapshot never
/// perturbs the source cell.
#[test]
fn snapshot_restore_at_any_split_is_behavior_preserving() {
    forall("snapshot restore split", 8, |rng| {
        let geoms = vec_of(rng, 1, 3, arb_flow);
        let scheme = Scheme::ALL[rng.below(Scheme::ALL.len() as u64) as usize];
        let horizon_ms = 150;
        let split_ns = rng.range(1, horizon_ms * 1_000_000);
        let cfg = || {
            let mut cfg = SystemConfig::table3(scheme);
            cfg.duration = SimDelta::from_ms(horizon_ms);
            cfg
        };
        let straight = SystemSim::run(cfg(), build(&geoms));

        let mut cell = vip_core::SimCell::new(cfg(), build(&geoms));
        cell.run_until(desim::SimTime::from_ns(split_ns));
        let snap = cell.snapshot();
        assert_eq!(
            cell.finish().digest(),
            straight.digest(),
            "{scheme}: snapshot at {split_ns}ns perturbed the source cell"
        );

        // Branch from the snapshot in a warm cell holding unrelated state.
        let warm_geoms = vec_of(rng, 1, 2, arb_flow);
        let mut branch = vip_core::SimCell::new(cfg(), build(&warm_geoms));
        branch.run_until(desim::SimTime::from_ns(split_ns / 2));
        branch.restore(&snap);
        let branched = branch.finish();
        assert_eq!(
            branched.digest(),
            straight.digest(),
            "{scheme}: restore at {split_ns}ns drifted from straight-through"
        );
        assert_eq!(
            branched.events, straight.events,
            "{scheme}: event calendar differs after restore"
        );
    });
}

/// Reusing a warm cell must be invisible: resetting one `SimCell`
/// through a random sequence of shapes yields, at every step, the digest
/// a freshly constructed cell produces for that shape.
#[test]
fn cell_reuse_is_behavior_preserving() {
    forall("cell reuse", 6, |rng| {
        let mut cell: Option<vip_core::SimCell> = None;
        for _ in 0..3 {
            let geoms = vec_of(rng, 1, 3, arb_flow);
            let scheme = Scheme::ALL[rng.below(Scheme::ALL.len() as u64) as usize];
            let mut cfg = SystemConfig::table3(scheme);
            cfg.duration = SimDelta::from_ms(150);
            let flows = build(&geoms);
            let fresh = SystemSim::run(cfg.clone(), flows.clone());
            let warm = match cell.as_mut() {
                Some(cell) => {
                    cell.reset(&cfg, &flows);
                    cell.run()
                }
                None => {
                    let mut fresh_cell = vip_core::SimCell::new(cfg, flows);
                    let report = fresh_cell.run();
                    cell = Some(fresh_cell);
                    report
                }
            };
            assert_eq!(
                warm.digest(),
                fresh.digest(),
                "{scheme}: warm cell drifted from fresh"
            );
        }
    });
}

/// Determinism holds for arbitrary geometries.
#[test]
fn determinism() {
    forall("determinism", 12, |rng| {
        let geoms = vec_of(rng, 1, 3, arb_flow);
        let a = run(Scheme::Vip, build(&geoms));
        let b = run(Scheme::Vip, build(&geoms));
        assert_eq!(a.events, b.events);
        assert_eq!(a.frames_completed, b.frames_completed);
        assert!((a.energy.total_j() - b.energy.total_j()).abs() < 1e-12);
    });
}
