//! Population-scale campaign driver.
//!
//! Expands a seeded (workload × scheme × device-config) grid, runs every
//! cell on a warm-cell worker pool, streams one NDJSON record per cell
//! to the journal as it completes, and reduces the population to
//! percentile aggregates. Progress heartbeats go to stderr, keyed off
//! cell completions (never off timers inside simulation code).
//!
//! ```text
//! campaign --cells 500 --seed 7 --ms 100 --workers 8 \
//!     --out campaign.ndjson --aggregate campaign_agg.json
//! campaign --resume --out campaign.ndjson ...   # replay journal, skip done
//! campaign --smoke                              # CI self-check, exit 0/1
//! ```
//!
//! `--resume` replays an interrupted journal (tolerating a truncated
//! final line from a crash mid-write, and rejecting records from another
//! campaign), skips every completed cell, and appends the rest. Because
//! the aggregator's state is order-insensitive integers, the final
//! aggregate JSON is byte-identical to a straight-through run — the
//! identity `--smoke` enforces, along with workers=1 vs workers=2
//! byte-equality and strict re-parsing of every journal line.

use std::io::Write;
use std::time::Instant;

use desim::FxHashSet;
use telemetry::{CampaignAggregator, CellResult};
use vip_bench::{read_journal, run_campaign, CampaignSpec, Heartbeat};

fn main() {
    let args = vip_bench::cli::Args::from_env(
        "usage: campaign [--cells N] [--seed N] [--ms N] [--workers N] [--out <journal>] \
         [--aggregate <out.json>] [--heartbeat-every N] [--resume]\n\
         \x20      campaign --smoke",
    );
    if args.has("--smoke") {
        std::process::exit(smoke());
    }

    let spec = CampaignSpec {
        cells: args.num("--cells", 100),
        seed: args.num("--seed", 0x5EED),
        ms: args.ms("--ms", 100),
    };
    let parallelism = std::thread::available_parallelism().map_or(4, |n| n.get());
    let workers: usize = args.num("--workers", parallelism);
    if workers == 0 {
        args.bail("--workers must be at least 1");
    }
    let out = args.get("--out").unwrap_or("campaign.ndjson".into());
    let agg_out = args
        .get("--aggregate")
        .unwrap_or("campaign_agg.json".into());
    let heartbeat_every: u64 = args.num("--heartbeat-every", 10);

    let mut agg = CampaignAggregator::new();
    let mut skip = FxHashSet::default();
    if args.has("--resume") {
        if let Ok(text) = std::fs::read_to_string(&out) {
            let replayed = read_journal(&text, &spec).unwrap_or_else(|e| {
                eprintln!("campaign: cannot resume {out}: {e}");
                std::process::exit(1);
            });
            for r in &replayed {
                skip.insert(r.cell);
                agg.add_cell(r);
            }
            eprintln!(
                "campaign: resumed {} completed cell(s) from {out}",
                replayed.len()
            );
        }
    } else if std::path::Path::new(&out).exists() {
        eprintln!("campaign: {out} exists; pass --resume to continue it or remove it first");
        std::process::exit(1);
    }

    let mut file = std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(&out)
        .unwrap_or_else(|e| {
            eprintln!("campaign: cannot open {out}: {e}");
            std::process::exit(1);
        });

    let pending = spec.cells - skip.len() as u64;
    let mut hb = Heartbeat::new(pending, workers, heartbeat_every);
    let t0 = Instant::now();
    run_campaign(&spec, workers, &skip, |w, r| {
        // One write + flush per cell: a crash can truncate at most the
        // final line, which `read_journal` tolerates on resume.
        file.write_all(r.to_ndjson().as_bytes())
            .and_then(|()| file.flush())
            .unwrap_or_else(|e| {
                eprintln!("campaign: journal write failed: {e}");
                std::process::exit(1);
            });
        agg.add_cell(&r);
        if hb.on_cell(w, r.events) {
            eprintln!("{}", hb.line(t0.elapsed().as_secs_f64()));
        }
    });

    std::fs::write(&agg_out, agg.to_json()).unwrap_or_else(|e| {
        eprintln!("campaign: cannot write {agg_out}: {e}");
        std::process::exit(1);
    });
    eprintln!(
        "campaign: {} cell(s) aggregated -> {agg_out} (journal {out})",
        agg.cells()
    );
}

/// Folds NDJSON lines through the strict parser into an aggregator,
/// verifying each line re-parses exactly (the validation CI relies on).
fn aggregate_lines(lines: &[String]) -> Result<CampaignAggregator, String> {
    let mut agg = CampaignAggregator::new();
    for (i, line) in lines.iter().enumerate() {
        let r = CellResult::parse_line(line).map_err(|e| format!("line {}: {e}", i + 1))?;
        if r.to_ndjson() != *line {
            return Err(format!(
                "line {} does not re-serialize byte-identically",
                i + 1
            ));
        }
        agg.add_cell(&r);
    }
    Ok(agg)
}

/// The CI self-check: a small grid run three ways must produce one
/// byte-identical aggregate. Returns the process exit code.
fn smoke() -> i32 {
    let spec = CampaignSpec {
        cells: 24,
        seed: 0xC0FFEE,
        ms: 20,
    };
    let no_skip = FxHashSet::default();

    // Straight through on one worker: the reference journal.
    let mut lines1: Vec<String> = Vec::new();
    run_campaign(&spec, 1, &no_skip, |_, r| lines1.push(r.to_ndjson()));
    if lines1.len() != spec.cells as usize {
        eprintln!("smoke: expected {} cells, got {}", spec.cells, lines1.len());
        return 1;
    }
    let agg1 = match aggregate_lines(&lines1) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("smoke: NDJSON validation failed: {e}");
            return 1;
        }
    };

    // Two workers: different completion order, same bytes.
    let mut lines2: Vec<String> = Vec::new();
    run_campaign(&spec, 2, &no_skip, |_, r| lines2.push(r.to_ndjson()));
    let agg2 = match aggregate_lines(&lines2) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("smoke: NDJSON validation failed (workers=2): {e}");
            return 1;
        }
    };
    if agg1.to_json() != agg2.to_json() {
        eprintln!("smoke: aggregate differs between workers=1 and workers=2");
        return 1;
    }

    // Resume: replay half the reference journal, run the rest, same bytes.
    let half = lines1.len() / 2;
    let journal = lines1[..half].concat();
    let replayed = match read_journal(&journal, &spec) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("smoke: journal replay failed: {e}");
            return 1;
        }
    };
    let mut agg3 = CampaignAggregator::new();
    let mut skip = FxHashSet::default();
    for r in &replayed {
        skip.insert(r.cell);
        agg3.add_cell(r);
    }
    run_campaign(&spec, 2, &skip, |_, r| agg3.add_cell(&r));
    if agg3.to_json() != agg1.to_json() {
        eprintln!("smoke: resumed aggregate differs from straight-through");
        return 1;
    }

    // Checkpointed pool: in-flight snapshot slicing must leave every
    // record — and hence the aggregate — byte-identical, and a drained
    // run must leave no checkpoints behind.
    let store = vip_bench::CheckpointStore::new();
    let interrupt = std::sync::atomic::AtomicBool::new(false);
    let policy = vip_bench::CheckpointPolicy {
        store: &store,
        every: desim::SimDelta::from_ms(5),
        interrupt: &interrupt,
    };
    let mut agg4 = CampaignAggregator::new();
    vip_bench::run_campaign_checkpointed(&spec, 2, &no_skip, Some(&policy), |_, r| {
        agg4.add_cell(&r);
    });
    if agg4.to_json() != agg1.to_json() {
        eprintln!("smoke: checkpointed aggregate differs from straight-through");
        return 1;
    }
    if !store.is_empty() {
        eprintln!("smoke: completed campaign left in-flight checkpoints");
        return 1;
    }

    println!(
        "campaign --smoke: OK ({} cells, {} events, aggregate byte-identical across \
         workers 1/2, resume, and checkpoint slicing)",
        agg1.cells(),
        agg1.events()
    );
    0
}
