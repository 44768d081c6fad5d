//! What every workload shares: one simulation cell's inputs, the exact
//! work counts read off its report, the cold reference runs the output
//! checks compare against, and the single-thread traced replay that
//! splits host time by layer.

use std::collections::BTreeMap;

use desim::{SimDelta, SimTime};
use telemetry::{CampaignAggregator, CellResult, LogHistogram};
use vip_bench::{RunSettings, Unit};
use vip_core::{FlowSpec, Scheme, SimCell, SimSnapshot, SystemConfig, SystemReport, SystemSim};

use crate::measure::{Metrics, Spans};

/// One simulation to run: a matrix or campaign cell, or the effective
/// scenario of a serve request.
#[derive(Debug, Clone)]
pub struct Cell {
    pub id: u64,
    pub unit: Unit,
    pub settings: RunSettings,
    pub cfg: SystemConfig,
    /// The campaign record's config key.
    pub config: String,
}

impl Cell {
    pub fn scheme(&self) -> Scheme {
        self.cfg.scheme
    }

    /// The serve warm prefix (3/4 of the horizon), where every replay
    /// takes its snapshot.
    pub fn split(&self) -> SimTime {
        SimTime::ZERO + SimDelta::from_ns(self.cfg.duration.as_ns() / 4 * 3)
    }

    pub fn end(&self) -> SimTime {
        SimTime::ZERO + self.cfg.duration
    }
}

/// Metric-name suffix of a scheme.
pub fn scheme_key(s: Scheme) -> &'static str {
    match s {
        Scheme::Baseline => "baseline",
        Scheme::FrameBurst => "frame_burst",
        Scheme::IpToIp => "ip_to_ip",
        Scheme::IpToIpBurst => "ip_to_ip_fb",
        Scheme::Vip => "vip",
    }
}

/// Exact, deterministic work counts summed over reports.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Tally {
    pub cells: u64,
    pub events: u64,
    pub mem_bytes: u64,
    pub sa_bytes: u64,
    pub interrupts: u64,
    pub ctx_switches: u64,
    pub frames_sourced: u64,
    pub frames_completed: u64,
}

impl Tally {
    pub fn add(&mut self, r: &SystemReport) {
        self.cells += 1;
        self.events += r.events;
        self.mem_bytes += r.mem_bytes;
        self.sa_bytes += r.sa_bytes;
        self.interrupts += r.interrupts;
        self.ctx_switches += r.ips.iter().map(|ip| ip.context_switches).sum::<u64>();
        self.frames_sourced += r.frames_sourced;
        self.frames_completed += r.frames_completed;
    }

    pub fn put(&self, m: &mut Metrics) {
        m.put("desim.events", self.events as f64, "count");
        m.put("dram.bytes", self.mem_bytes as f64, "count");
        m.put("soc.sa_bytes", self.sa_bytes as f64, "count");
        m.put("soc.interrupts", self.interrupts as f64, "count");
        m.put("soc.ctx_switches", self.ctx_switches as f64, "count");
        m.put("core.frames_sourced", self.frames_sourced as f64, "count");
        m.put(
            "core.frames_completed",
            self.frames_completed as f64,
            "count",
        );
    }
}

/// Runs `jobs` on two threads (the host's core count), keeping order.
pub fn par_map<T: Sync, U: Send>(jobs: &[T], f: impl Fn(&T) -> U + Sync) -> Vec<U> {
    let next = std::sync::atomic::AtomicUsize::new(0);
    let mut out: Vec<(usize, U)> = std::thread::scope(|s| {
        let workers: Vec<_> = (0..2)
            .map(|_| {
                s.spawn(|| {
                    let mut mine = Vec::new();
                    loop {
                        let i = next.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                        let Some(job) = jobs.get(i) else { break };
                        mine.push((i, f(job)));
                    }
                    mine
                })
            })
            .collect();
        workers
            .into_iter()
            .flat_map(|w| w.join().expect("reference worker"))
            .collect()
    });
    out.sort_by_key(|(i, _)| *i);
    out.into_iter().map(|(_, u)| u).collect()
}

/// The independent reference: a cold `SystemSim::run` of each input.
pub fn cold_reports(inputs: &[(SystemConfig, Vec<FlowSpec>)]) -> Vec<SystemReport> {
    par_map(inputs, |(cfg, flows)| {
        SystemSim::run(cfg.clone(), flows.clone())
    })
}

/// The campaign record of a finished cell, as the campaign runner
/// distills it (the wall-clock `events_per_sec` field aside).
pub fn record(cell: &Cell, report: &SystemReport, flow_time_ns: LogHistogram) -> CellResult {
    CellResult {
        cell: cell.id,
        seed: cell.settings.seed,
        workload: cell.unit.label().to_string(),
        scheme: cell.scheme().label().to_string(),
        config: cell.config.clone(),
        digest: report.digest(),
        frames_sourced: report.frames_sourced,
        frames_completed: report.frames_completed,
        frames_violated: report.frames_violated,
        frames_dropped: report.frames_dropped_at_source,
        events: report.events,
        energy_nj: (report.energy.total_j() * 1e9).round() as u64,
        flow_time_ns,
        events_per_sec: 0.0,
    }
}

/// Host time in `run_until` and the events it dispatched, by key.
#[derive(Debug, Default)]
pub struct StepLedger(BTreeMap<String, (u64, u64)>);

impl StepLedger {
    pub fn add(&mut self, key: &str, ns: u64, events: u64) {
        let e = self.0.entry(key.to_string()).or_default();
        e.0 += ns;
        e.1 += events;
    }

    pub fn ns_per_event(&self, key: &str) -> f64 {
        self.0
            .get(key)
            .filter(|(_, ev)| *ev > 0)
            .map_or(0.0, |(ns, ev)| *ns as f64 / *ev as f64)
    }
}

/// Single-thread replay of a workload's cells. Each cell runs twice,
/// alternating which goes first: traced, through each layer's public
/// calls with one span per call, and plain, through the workload's own
/// calls without spans. The plain runs give the untraced service times.
pub struct Replay {
    pub spans: Spans,
    pub steps: StepLedger,
    pub tally: Tally,
    /// Host ns of each item's plain run, by item id.
    pub plain_ns: BTreeMap<u64, u64>,
    /// Cells whose traced and plain runs disagreed on the report digest.
    pub mismatches: u64,
    warm: Option<SimCell>,
    plain_warm: Option<SimCell>,
    agg: CampaignAggregator,
}

/// How a replayed cell reaches its horizon.
pub enum Path<'a> {
    /// Matrix and campaign cells: run from t = 0. The traced run also
    /// snapshots at the warm prefix and restores that snapshot in place (a
    /// rewind to the same state), so the snapshot layer is measured on
    /// these cells' shapes.
    Full,
    /// A serve miss: run from t = 0 and keep the warm-prefix snapshot.
    Miss(&'a mut Option<SimSnapshot>),
    /// A serve hit: restore the cached warm-prefix snapshot, run the tail.
    Hit(&'a SimSnapshot),
}

impl Replay {
    pub fn new() -> Self {
        Replay {
            spans: Spans::new(),
            steps: StepLedger::default(),
            tally: Tally::default(),
            plain_ns: BTreeMap::new(),
            mismatches: 0,
            warm: None,
            plain_warm: None,
            agg: CampaignAggregator::new(),
        }
    }

    /// Replays one cell, traced (under a "cell" span, itself under
    /// `parent`) and plain. `flows` come from the caller (the serve replay
    /// resolves them from the request line); `None` asks `Unit::flows`.
    pub fn cell(
        &mut self,
        parent: Option<usize>,
        cell: &Cell,
        flows: Option<Vec<FlowSpec>>,
        path: Path<'_>,
    ) -> SystemReport {
        let plain_flows = flows
            .clone()
            .unwrap_or_else(|| cell.unit.flows(cell.settings));
        let (hit, split) = match &path {
            Path::Hit(snap) => (Some(*snap), false),
            Path::Miss(_) => (None, true),
            Path::Full => (None, false),
        };
        let plain_first = cell.id.is_multiple_of(2);
        let plain = plain_first.then(|| self.plain(cell, plain_flows.clone(), hit, split));
        let report = self.traced(parent, cell, flows, path);
        let plain = plain.unwrap_or_else(|| self.plain(cell, plain_flows, hit, split));
        if plain.digest() != report.digest() {
            self.mismatches += 1;
        }
        report
    }

    /// The workload's own calls, untraced; records the host time.
    fn plain(
        &mut self,
        cell: &Cell,
        flows: Vec<FlowSpec>,
        hit: Option<&SimSnapshot>,
        split: bool,
    ) -> SystemReport {
        let t = std::time::Instant::now();
        let sim = match &mut self.plain_warm {
            Some(sim) => {
                sim.reset(&cell.cfg, &flows);
                sim
            }
            None => self
                .plain_warm
                .insert(SimCell::new(cell.cfg.clone(), flows)),
        };
        let report = match hit {
            Some(snap) => {
                sim.restore(snap);
                sim.finish()
            }
            None if split => {
                sim.run_until(cell.split());
                std::hint::black_box(sim.snapshot());
                sim.finish()
            }
            None => sim.run(),
        };
        let mut hist = LogHistogram::new();
        sim.harvest_flow_times(&mut hist)
            .expect("harvest after finish");
        std::hint::black_box(hist);
        *self.plain_ns.entry(cell.id).or_default() += t.elapsed().as_nanos() as u64;
        report
    }

    /// The traced run: one span per layer call under a "cell" span.
    fn traced(
        &mut self,
        parent: Option<usize>,
        cell: &Cell,
        flows: Option<Vec<FlowSpec>>,
        path: Path<'_>,
    ) -> SystemReport {
        let sp = &mut self.spans;
        let span = sp.open("cell", cell.id, parent);
        let generated = sp.time("workloads.flows", span, || cell.unit.flows(cell.settings));
        let flows = flows.unwrap_or(generated);
        let sim = match self.warm.take() {
            Some(mut sim) => {
                sp.time("core.reset", span, || sim.reset(&cell.cfg, &flows));
                sim
            }
            None => sp.time("core.new", span, || SimCell::new(cell.cfg.clone(), flows)),
        };
        let sim = self.warm.insert(sim);
        let full = !matches!(path, Path::Hit(_));
        let mut step_ns = 0u64;
        match path {
            Path::Hit(snap) => sp.time("core.restore", span, || sim.restore(snap)),
            Path::Full | Path::Miss(_) => {
                step_ns += timed(sp, "core.run_until", span, || {
                    sim.run_until(cell.split());
                });
                let snap = sp.time("core.snapshot", span, || sim.snapshot());
                match path {
                    Path::Miss(slot) => *slot = Some(snap),
                    _ => sp.time("core.restore", span, || sim.restore(&snap)),
                }
            }
        }
        step_ns += timed(sp, "core.run_until", span, || {
            sim.run_until(cell.end());
        });
        let report = sp.time("core.finish", span, || sim.finish());
        let mut hist = LogHistogram::new();
        sp.time("core.harvest", span, || {
            sim.harvest_flow_times(&mut hist)
                .expect("harvest after finish")
        });
        let rec = record(cell, &report, hist);
        let line = sp.time("telemetry.ndjson", span, || rec.to_ndjson());
        std::hint::black_box(line);
        let agg = &mut self.agg;
        sp.time("telemetry.aggregate", span, || agg.add_cell(&rec));
        sp.close(span);
        if full {
            // A hit simulates only the tail, whose dispatch count the public
            // API does not expose; only full runs enter the per-event rates.
            self.tally.add(&report);
            self.steps.add("all", step_ns, report.events);
            self.steps
                .add(scheme_key(cell.scheme()), step_ns, report.events);
            self.steps.add(
                &format!("ch{}", cell.cfg.dram.channels),
                step_ns,
                report.events,
            );
        }
        report
    }

    /// Per-layer host times shared by every workload.
    pub fn put_layers(&self, m: &mut Metrics) {
        let t = self.spans.self_time();
        let mean = |name: &str, per: f64| {
            t.get(name)
                .map_or(0.0, |(ns, n)| *ns as f64 / *n as f64 / per)
        };
        m.put("workloads.flows_ms", mean("workloads.flows", 1e6), "ms");
        m.put("core.new_ms", mean("core.new", 1e6), "ms");
        m.put("core.reset_ms", mean("core.reset", 1e6), "ms");
        m.put(
            "core.step_ns_per_event",
            self.steps.ns_per_event("all"),
            "ns",
        );
        for s in Scheme::ALL {
            let key = scheme_key(s);
            m.put(
                format!("core.step_ns_per_event.{key}"),
                self.steps.ns_per_event(key),
                "ns",
            );
        }
        m.put("core.finish_ms", mean("core.finish", 1e6), "ms");
        m.put("core.harvest_ms", mean("core.harvest", 1e6), "ms");
        m.put("core.snapshot_us", mean("core.snapshot", 1e3), "us");
        m.put("core.restore_us", mean("core.restore", 1e3), "us");
        m.put("telemetry.ndjson_us", mean("telemetry.ndjson", 1e3), "us");
        m.put(
            "telemetry.aggregate_us",
            mean("telemetry.aggregate", 1e3),
            "us",
        );
    }

    /// The by-DRAM-channel step rates (printed; channel counts present
    /// depend on the workload).
    pub fn put_channels(&self, m: &mut Metrics) {
        for ch in [1, 2, 4] {
            let key = format!("ch{ch}");
            m.put(
                format!("core.step_ns_per_event.{key}"),
                self.steps.ns_per_event(&key),
                "ns",
            );
        }
    }

    /// Total host time of the traced and of the plain cell runs, in s.
    pub fn traced_and_plain_s(&self) -> (f64, f64) {
        let traced: u64 = self
            .spans
            .spans
            .iter()
            .filter(|s| s.name == "cell")
            .map(|s| s.end_ns - s.start_ns)
            .sum();
        let plain: u64 = self.plain_ns.values().sum();
        (traced as f64 / 1e9, plain as f64 / 1e9)
    }
}

/// Times `f` as a child span and returns its duration in ns.
fn timed(sp: &mut Spans, name: &'static str, parent: usize, f: impl FnOnce()) -> u64 {
    sp.time(name, parent, f);
    let s = sp.spans.last().expect("span just recorded");
    s.end_ns - s.start_ns
}
