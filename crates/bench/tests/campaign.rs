//! Campaign-runner identities over real simulation cells.
//!
//! The telemetry crate property-tests the aggregator's algebra on
//! synthetic records; these tests close the loop through the actual
//! runner: warm-cell dispatch, NDJSON journaling, and resume must all
//! leave the population aggregate byte-identical.

use desim::FxHashSet;
use telemetry::{CampaignAggregator, CellResult};
use vip_bench::{read_journal, run_campaign, CampaignSpec};

fn small_spec() -> CampaignSpec {
    CampaignSpec {
        cells: 10,
        seed: 0xABBA,
        ms: 15,
    }
}

fn collect(spec: &CampaignSpec, workers: usize, skip: &FxHashSet<u64>) -> Vec<CellResult> {
    let mut out = Vec::new();
    run_campaign(spec, workers, skip, |_, r| out.push(r));
    out
}

fn aggregate(cells: &[CellResult]) -> CampaignAggregator {
    let mut agg = CampaignAggregator::new();
    for c in cells {
        agg.add_cell(c);
    }
    agg
}

/// The same grid on 1, 2 and 3 workers: completion order differs (the
/// pool is work-stealing) but the aggregate JSON must not.
#[test]
fn aggregate_is_byte_identical_across_worker_counts() {
    let spec = small_spec();
    let none = FxHashSet::default();
    let w1 = aggregate(&collect(&spec, 1, &none)).to_json();
    let w2 = aggregate(&collect(&spec, 2, &none)).to_json();
    let w3 = aggregate(&collect(&spec, 3, &none)).to_json();
    assert_eq!(w1, w2, "workers=2 drifted from workers=1");
    assert_eq!(w1, w3, "workers=3 drifted from workers=1");
}

/// A resume from a half-written journal must aggregate byte-identically
/// to a straight-through run — including when the journal's final line
/// was truncated by a crash (that cell simply re-runs).
#[test]
fn resume_matches_straight_through() {
    let spec = small_spec();
    let straight = collect(&spec, 1, &FxHashSet::default());
    let reference = aggregate(&straight).to_json();

    let journal: String = straight[..5].iter().map(|r| r.to_ndjson()).collect();
    // Simulate a crash mid-write of the 5th record: the truncated line is
    // dropped on replay, leaving 4 completed cells.
    let truncated = &journal[..journal.len() - 25];
    let replayed = read_journal(truncated, &spec).expect("truncated final line tolerated");
    assert_eq!(replayed.len(), 4, "partial final record must be dropped");

    let mut agg = CampaignAggregator::new();
    let mut skip = FxHashSet::default();
    for r in &replayed {
        skip.insert(r.cell);
        agg.add_cell(r);
    }
    let rest = collect(&spec, 2, &skip);
    assert_eq!(rest.len(), 6, "6 cells left after replaying 4");
    for r in &rest {
        agg.add_cell(r);
    }
    assert_eq!(agg.to_json(), reference, "resumed aggregate drifted");
}

/// Every journal line from a real run must survive the strict parser
/// and re-serialize byte-identically, and the deterministic fields must
/// match a re-run of the same cell.
#[test]
fn ndjson_round_trips_through_real_cells() {
    let spec = CampaignSpec {
        cells: 4,
        seed: 0xD1CE,
        ms: 15,
    };
    let first = collect(&spec, 1, &FxHashSet::default());
    let second = collect(&spec, 2, &FxHashSet::default());
    for r in &first {
        let line = r.to_ndjson();
        let back = CellResult::parse_line(&line).expect("journal line parses");
        assert_eq!(&back, r, "cell {} mutated through NDJSON", r.cell);
        assert_eq!(back.to_ndjson(), line, "re-serialization drifted");

        let again = second
            .iter()
            .find(|x| x.cell == r.cell)
            .expect("same grid, same cells");
        assert_eq!(
            again.digest, r.digest,
            "cell {} is nondeterministic",
            r.cell
        );
        assert_eq!(again.flow_time_ns, r.flow_time_ns);
        assert_eq!(again.frames_violated, r.frames_violated);
        assert_eq!(again.energy_nj, r.energy_nj);
        // Histogram count is the report's completion count by construction.
        assert_eq!(r.flow_time_ns.count(), r.frames_completed);
    }
}
