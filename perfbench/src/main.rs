//! Benchmark driver binary for the VIP simulator.
//!
//! ```text
//! perfbench <matrix|campaign|serve> --seed N --seconds S          # end-to-end
//! perfbench <matrix|campaign|serve> --seed N --trace --spans F    # per-layer
//! perfbench counts <matrix|campaign|serve> --seed N               # `trace` build
//! ```
//!
//! The end-to-end run sets up, runs whole passes over the seed's inputs
//! for about `S` seconds of host time, then checks every output against
//! an independent reference. The per-layer run times one untraced pass,
//! replays the same inputs on one thread with a span around every layer
//! call, and writes the spans to `F`. The last stdout line is the result
//! object `run.py` reads. See `README.md` for the metric catalogue.

mod campaign;
mod cell;
mod matrix;
mod measure;
mod serve;

use std::time::Instant;

use cell::Tally;
use measure::{cpu_seconds, median, peak_rss_mb, Metrics};

/// How many times the end-to-end run sets up; `setup_s` is the median.
const SETUPS: usize = 5;

/// The timed phase: whole passes over the workload's inputs, continued
/// while the next pass is expected to end within the time budget.
#[derive(Debug, Default)]
pub struct Phase {
    seconds: f64,
    pub passes: u64,
    pub results: u64,
    pub events: u64,
    pub wall: f64,
    pub cpu: f64,
}

impl Phase {
    /// Runs at most `max` passes; each returns the `(results, events)`
    /// it delivered.
    pub fn run(&mut self, max: usize, mut pass: impl FnMut() -> (u64, u64)) {
        let cpu0 = cpu_seconds();
        let t0 = Instant::now();
        loop {
            let start = t0.elapsed().as_secs_f64();
            let (results, events) = pass();
            self.passes += 1;
            self.results += results;
            self.events += events;
            let now = t0.elapsed().as_secs_f64();
            if self.passes as usize >= max || now + (now - start) > self.seconds {
                break;
            }
        }
        self.wall = t0.elapsed().as_secs_f64();
        self.cpu = cpu_seconds() - cpu0;
    }
}

/// What a workload's run reports back: checked outputs, exact counts
/// from the reference runs, and results delivered per pool worker.
#[derive(Debug, Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    pub tally: Tally,
    pub per_worker: Vec<u64>,
    /// Workload-specific metrics, printed but not in the result line.
    pub extra: Metrics,
    /// The serve workload's answers, for its replay.
    pub answers: Vec<serve::Answer>,
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    spans: Option<String>,
}

fn parse_args() -> Result<(bool, Args), String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let counts = argv.first().is_some_and(|a| a == "counts");
    let rest = &argv[usize::from(counts)..];
    let workload = rest.first().ok_or("missing workload")?.clone();
    let get = |flag: &str| {
        rest.iter()
            .position(|a| a == flag)
            .and_then(|i| rest.get(i + 1))
    };
    let seed = get("--seed")
        .ok_or("missing --seed")?
        .parse()
        .map_err(|e| format!("--seed: {e}"))?;
    let seconds = get("--seconds").map_or(Ok(10.0), |v| {
        v.parse().map_err(|e| format!("--seconds: {e}"))
    })?;
    Ok((
        counts,
        Args {
            workload,
            seed,
            seconds,
            trace: rest.iter().any(|a| a == "--trace"),
            spans: get("--spans").cloned(),
        },
    ))
}

fn main() {
    let (counts, args) = parse_args().unwrap_or_else(|e| {
        eprintln!("perfbench: {e}");
        std::process::exit(2);
    });
    if !["matrix", "campaign", "serve"].contains(&args.workload.as_str()) {
        eprintln!("perfbench: unknown workload '{}'", args.workload);
        std::process::exit(2);
    }
    if counts {
        count(&args);
    } else if args.trace {
        per_layer(&args);
    } else {
        end_to_end(&args);
    }
}

/// Workload inputs, made from the seed during set-up.
enum Inputs {
    Matrix(Vec<cell::Cell>),
    Campaign(campaign::Inputs),
    Serve(serve::Inputs),
}

fn setup(args: &Args) -> Inputs {
    match args.workload.as_str() {
        "matrix" => Inputs::Matrix(matrix::setup(args.seed)),
        "campaign" => Inputs::Campaign(campaign::setup(args.seed)),
        _ => Inputs::Serve(serve::setup(args.seed)),
    }
}

fn timed(args: &Args, inputs: &Inputs, phase: &mut Phase) -> Outcome {
    match inputs {
        Inputs::Matrix(cells) => matrix::run(args.seed, cells, phase),
        Inputs::Campaign(i) => campaign::run(i, phase),
        Inputs::Serve(i) => serve::run(i, phase),
    }
}

fn end_to_end(args: &Args) {
    let mut setups = Vec::with_capacity(SETUPS);
    let mut inputs = None;
    for _ in 0..SETUPS {
        let t = Instant::now();
        inputs = Some(setup(args));
        setups.push(t.elapsed().as_secs_f64());
    }
    let inputs = inputs.expect("set up at least once");
    let mut phase = Phase {
        seconds: args.seconds,
        ..Phase::default()
    };
    let out = timed(args, &inputs, &mut phase);

    let mut m = Metrics::default();
    m.put("setup_s", median(&mut setups), "s");
    m.put("peak_rss_mb", peak_rss_mb(), "MiB");
    m.put("cpu_s", phase.cpu / phase.passes as f64, "s");
    m.put("events_per_s", phase.events as f64 / phase.wall, "events/s");
    m.put("results_per_s", phase.results as f64 / phase.wall, "1/s");
    m.print(&format!(
        "{} seed {}: {} pass(es), {} results, {} events in {:.3} s timed",
        args.workload, args.seed, phase.passes, phase.results, phase.events, phase.wall
    ));
    out.extra.print("workload metrics:");
    let error_rate = out.failed as f64 / out.attempted.max(1) as f64;
    println!(
        "checks: {} attempted, {} failed, error_rate {error_rate}",
        out.attempted, out.failed
    );
    let mut counts = Metrics::default();
    out.tally.put(&mut counts);
    counts.print("exact counts (reference runs of the distinct inputs of one pass):");
    println!(
        "{}",
        m.result_line(out.failed == 0, out.attempted, out.failed)
    );
}

fn per_layer(args: &Args) {
    let inputs = setup(args);
    // A zero budget stops after the first pass.
    let mut phase = Phase::default();
    let out = timed(args, &inputs, &mut phase);

    let mut m = Metrics::default();
    let t0 = Instant::now();
    let rp = match &inputs {
        Inputs::Matrix(cells) => matrix::replay(cells, &mut m),
        Inputs::Campaign(i) => campaign::replay(i, &mut m),
        Inputs::Serve(i) => serve::replay(i, &out, &mut m),
    };
    let replay_wall = t0.elapsed().as_secs_f64();
    let (traced_s, plain_s) = rp.traced_and_plain_s();
    let workers = out.per_worker.len().max(1) as f64;
    m.put(
        "pool.busy_frac",
        plain_s / (workers * phase.wall),
        "fraction",
    );
    let max = out.per_worker.iter().copied().max().unwrap_or(0) as f64;
    let min = out.per_worker.iter().copied().min().unwrap_or(0).max(1) as f64;
    m.put("pool.worker_skew", max / min, "ratio");
    m.put("trace.overhead_frac", traced_s / plain_s - 1.0, "fraction");
    rp.tally.put(&mut m);

    let mut failed = out.failed;
    if rp.mismatches > 0 {
        println!(
            "NONDETERMINISM: {} replayed cell(s) differ between traced and plain runs",
            rp.mismatches
        );
        failed += rp.mismatches;
    }
    if rp.tally != out.tally {
        println!(
            "NONDETERMINISM: replay counts {:?} differ from the timed pass's {:?}",
            rp.tally, out.tally
        );
        failed += 1;
    }
    m.print(&format!(
        "{} seed {}: one pass ({} results) in {:.3} s, replayed on one thread in {:.3} s",
        args.workload, args.seed, phase.results, phase.wall, replay_wall
    ));
    out.extra.print("workload metrics:");
    if let Some(path) = &args.spans {
        rp.spans
            .write(std::path::Path::new(path))
            .unwrap_or_else(|e| panic!("write spans to {path}: {e}"));
        println!("spans: {} written to {path}", rp.spans.spans.len());
    }
    println!("{}", m.result_line(failed == 0, out.attempted, failed));
}

/// The counting pass (`trace` build): every distinct input of one pass
/// run cold with per-event-kind dispatch counts.
#[cfg(feature = "trace")]
fn count(args: &Args) {
    let cells = match args.workload.as_str() {
        "matrix" => matrix::count_inputs(args.seed),
        "campaign" => campaign::count_inputs(args.seed),
        _ => serve::count_inputs(args.seed),
    };
    let runs = cell::par_map(&cells, |(cfg, flows)| {
        let mut sim = vip_core::SimCell::new(cfg.clone(), flows.clone());
        let out = sim.runner().counted().run();
        (out.report, out.counts.expect("counted run"))
    });
    let mut tally = Tally::default();
    let mut kinds = vip_core::EventCounts::default();
    for (report, counts) in &runs {
        tally.add(report);
        kinds.add(counts);
    }
    assert_eq!(kinds.total(), tally.events, "the hook sees every dispatch");
    let mut m = Metrics::default();
    tally.put(&mut m);
    m.put("dram.mem_tick_events", kinds.mem_tick as f64, "count");
    m.put(
        "soc.compute_done_events",
        kinds.compute_done as f64,
        "count",
    );
    m.put("soc.sa_arrival_events", kinds.sa_arrival as f64, "count");
    m.put("soc.cpu_done_events", kinds.cpu_done as f64, "count");
    m.put("workloads.source_events", kinds.source as f64, "count");
    m.put("soc.background_events", kinds.background as f64, "count");
    m.put("soc.rollback_events", kinds.rollback as f64, "count");
    m.print(&format!(
        "{} seed {}: counted pass",
        args.workload, args.seed
    ));
    println!("{}", m.result_line(true, runs.len() as u64, 0));
}

#[cfg(not(feature = "trace"))]
fn count(_: &Args) {
    eprintln!("perfbench: `counts` needs the `trace` feature build");
    std::process::exit(2);
}
