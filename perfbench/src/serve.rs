//! `serve`: `Server::run` with `ServeOptions::default()` (two workers, an
//! eight-entry snapshot cache) fed by a closed loop that keeps two
//! requests outstanding — the only path that writes snapshots (on cache
//! misses) and reads them (on hits).
//!
//! Requests come in sessions. A session fixes a base unit, scheme and
//! simulation seed, picks six what-if variants, and asks for each variant
//! three times in seeded order; the generator waits for every answer
//! before the next session starts. Key-affinity routing sends repeats of
//! a variant to one worker in order, and every session has its own seed,
//! so the first request of a variant is a miss and the others are hits,
//! exactly.

use std::collections::BTreeMap;
use std::io::{BufRead, Read, Write};
use std::sync::{Condvar, Mutex};
use std::time::Instant;

use desim::{SimDelta, SplitMix64};
use telemetry::json::{self, Json};
use vip_bench::serve::resolve;
use vip_bench::{RunSettings, ServeOptions, Server, Unit};
#[cfg(feature = "trace")]
use vip_core::SystemConfig;
use vip_core::{FlowSpec, Scheme, SimSnapshot, SystemSim};
use workloads::App;

use crate::cell::{par_map, Cell, Path, Replay};
use crate::measure::{median, quantile, Metrics};
use crate::{Outcome, Phase};

/// Base units: single-app units whose tail holds simulated work under
/// every scheme and what-if variant (some bursting variants empty A3's
/// and A7's tails, which makes a hit nearly free) and whose misses are
/// short enough for a hundred per pass (A2's and A5's are not).
const UNITS: [App; 3] = [App::A1, App::A4, App::A6];
/// Horizon and warm prefix (3/4 of it), ms. Every request costs a few
/// thread hand-offs, whose delay follows the host's load rather than the
/// simulator; at 80 ms a request carries twice the simulated work of one
/// at 40 ms, which halves that share of the timed phase.
const MS: u64 = 80;
const WARMUP_MS: u64 = 60;
/// What-if variants per session, and asks per variant.
const VARIANTS: usize = 6;
const ASKS: usize = 3;
/// The knob grid has 36 variants, dealt into 6 blocks of `VARIANTS`. A
/// pass has one session per (unit, block): every unit meets every
/// variant once, so the seed moves pairings and order but not the mix.
const BLOCKS: usize = 6;
const SESSIONS_PER_PASS: usize = UNITS.len() * BLOCKS;
/// A pass takes 16–25 s on a 2-vCPU host, so a 20 s phase runs one.
const MAX_PASSES: usize = 2;
/// Requests the closed loop keeps outstanding.
const OUTSTANDING: usize = 2;

/// One request line and what the benchmark knows about it.
#[derive(Debug, Clone)]
pub struct Request {
    pub id: u64,
    pub line: String,
    pub unit: Unit,
    /// Whether this is the first ask of its variant in its session.
    pub first: bool,
}

pub struct Inputs {
    /// Per pass, per session, the request lines in release order.
    passes: Vec<Vec<Vec<Request>>>,
}

/// One answered request.
#[derive(Debug, Clone)]
pub struct Answer {
    pub id: u64,
    pub ok: bool,
    pub hit: bool,
    pub worker: usize,
    pub digest: String,
    pub events: u64,
    pub latency_ms: f64,
}

/// The what-if knob grid.
fn variants() -> Vec<String> {
    let mut out = Vec::new();
    for ch in [1, 2, 4] {
        for extra in [0, 1, 2] {
            for cpus in [2, 4] {
                for burst in [1, 2] {
                    out.push(format!(
                        "{{\"dram_channels\": {ch}, \"extra_flows\": {extra}, \"num_cpus\": {cpus}, \"burst_frames\": {burst}}}"
                    ));
                }
            }
        }
    }
    out
}

fn shuffle<T>(v: &mut [T], rng: &mut SplitMix64) {
    for i in (1..v.len()).rev() {
        v.swap(i, rng.below(i as u64 + 1) as usize);
    }
}

/// One pass: `SESSIONS_PER_PASS` sessions, request ids from `first_id`.
fn pass(seed: u64, p: u64, first_id: u64) -> Vec<Vec<Request>> {
    let mut rng = SplitMix64::new(seed ^ p.wrapping_mul(0xA076_1D64_78BD_642F));
    let mut grid = variants();
    shuffle(&mut grid, &mut rng);
    let mut id = first_id;
    (0..SESSIONS_PER_PASS)
        .map(|s| {
            let unit = Unit::App(UNITS[s % UNITS.len()]);
            let block = (s / UNITS.len() + s % UNITS.len()) % BLOCKS;
            let scheme = Scheme::ALL[s % Scheme::ALL.len()];
            let sim_seed = rng.next_u64() >> 12;
            let mut order: Vec<usize> = (0..VARIANTS * ASKS).map(|i| i % VARIANTS).collect();
            shuffle(&mut order, &mut rng);
            let mut seen = [false; VARIANTS];
            order
                .into_iter()
                .map(|v| {
                    id += 1;
                    Request {
                        id,
                        line: format!(
                            "{{\"id\": {id}, \"unit\": \"{}\", \"scheme\": \"{}\", \"ms\": {MS}, \
                             \"warmup_ms\": {WARMUP_MS}, \"seed\": {sim_seed}, \"whatif\": {}}}",
                            unit.label(),
                            scheme.label(),
                            grid[block * VARIANTS + v]
                        ),
                        unit,
                        first: !std::mem::replace(&mut seen[v], true),
                    }
                })
                .collect()
        })
        .collect()
}

/// Generates every pass's sessions, and warms up on one short request.
pub fn setup(seed: u64) -> Inputs {
    let per_pass = (SESSIONS_PER_PASS * VARIANTS * ASKS) as u64;
    let passes = (0..MAX_PASSES as u64)
        .map(|p| pass(seed, p, p * per_pass))
        .collect();
    let warm = r#"{"id": 0, "unit": "A4", "ms": 20, "warmup_ms": 15}"#;
    let mut out = Vec::new();
    Server::new(ServeOptions::default())
        .run(format!("{warm}\n").as_bytes(), &mut out)
        .expect("warm-up request served");
    Inputs { passes }
}

/// Shared state of the closed loop: requests in flight and the release
/// and answer instants by id.
struct Gate {
    state: Mutex<GateState>,
    cv: Condvar,
}

#[derive(Default)]
struct GateState {
    outstanding: usize,
    released: BTreeMap<u64, Instant>,
    answered: Vec<(Instant, String)>,
}

/// The server's input: releases the next line only while fewer than
/// `OUTSTANDING` requests are in flight, and only once every answer of
/// the previous session is in.
struct Feed<'a> {
    gate: &'a Gate,
    sessions: &'a [Vec<Request>],
    session: usize,
    next: usize,
    buf: Vec<u8>,
    pos: usize,
}

impl Read for Feed<'_> {
    fn read(&mut self, out: &mut [u8]) -> std::io::Result<usize> {
        let n = {
            let avail = self.fill_buf()?;
            let n = avail.len().min(out.len());
            out[..n].copy_from_slice(&avail[..n]);
            n
        };
        self.consume(n);
        Ok(n)
    }
}

impl BufRead for Feed<'_> {
    fn fill_buf(&mut self) -> std::io::Result<&[u8]> {
        if self.pos == self.buf.len() {
            while self.session < self.sessions.len()
                && self.next == self.sessions[self.session].len()
            {
                self.session += 1;
                self.next = 0;
            }
            let Some(session) = self.sessions.get(self.session) else {
                return Ok(&[]);
            };
            let req = &session[self.next];
            let limit = if self.next == 0 { 1 } else { OUTSTANDING };
            let mut st = self.gate.state.lock().expect("gate lock");
            while st.outstanding >= limit {
                st = self.gate.cv.wait(st).expect("gate lock");
            }
            st.outstanding += 1;
            st.released.insert(req.id, Instant::now());
            drop(st);
            self.next += 1;
            self.buf.clear();
            self.buf.extend_from_slice(req.line.as_bytes());
            self.buf.push(b'\n');
            self.pos = 0;
        }
        Ok(&self.buf[self.pos..])
    }

    fn consume(&mut self, n: usize) {
        self.pos += n;
    }
}

/// The server's output: stamps each complete response line and frees
/// its slot in the loop.
struct Sink<'a> {
    gate: &'a Gate,
    pending: Vec<u8>,
}

impl Write for Sink<'_> {
    fn write(&mut self, bytes: &[u8]) -> std::io::Result<usize> {
        self.pending.extend_from_slice(bytes);
        while let Some(end) = self.pending.iter().position(|&b| b == b'\n') {
            let line: Vec<u8> = self.pending.drain(..=end).collect();
            let at = Instant::now();
            let mut st = self.gate.state.lock().expect("gate lock");
            st.outstanding -= 1;
            st.answered
                .push((at, String::from_utf8_lossy(&line).into_owned()));
            drop(st);
            self.gate.cv.notify_all();
        }
        Ok(bytes.len())
    }

    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

/// Serves one pass's sessions through the closed loop.
fn serve_pass(sessions: &[Vec<Request>]) -> Vec<Answer> {
    let gate = Gate {
        state: Mutex::new(GateState::default()),
        cv: Condvar::new(),
    };
    let feed = Feed {
        gate: &gate,
        sessions,
        session: 0,
        next: 0,
        buf: Vec::new(),
        pos: 0,
    };
    let mut sink = Sink {
        gate: &gate,
        pending: Vec::new(),
    };
    Server::new(ServeOptions::default())
        .run(feed, &mut sink)
        .expect("in-memory serve I/O cannot fail");
    let st = gate.state.into_inner().expect("gate lock");
    st.answered
        .iter()
        .map(|(at, line)| {
            let doc = json::parse(line).unwrap_or(Json::Null);
            let id = doc.get("id").and_then(Json::as_f64).unwrap_or(-1.0) as u64;
            let released = st.released.get(&id).copied().unwrap_or(*at);
            Answer {
                id,
                ok: doc.get("ok") == Some(&Json::Bool(true)),
                hit: doc.get("cache").and_then(Json::as_str) == Some("hit"),
                worker: doc.get("worker").and_then(Json::as_f64).unwrap_or(0.0) as usize,
                digest: doc
                    .get("digest")
                    .and_then(Json::as_str)
                    .unwrap_or("")
                    .to_string(),
                events: doc.get("events").and_then(Json::as_f64).unwrap_or(0.0) as u64,
                latency_ms: at.duration_since(released).as_secs_f64() * 1e3,
            }
        })
        .collect()
}

/// A resolved request's effective inputs as a cell.
fn resolved_cell(req: &Request) -> (Cell, Vec<FlowSpec>, u64) {
    let r = resolve(&req.line).unwrap_or_else(|(_, e)| panic!("request {} resolves: {e}", req.id));
    let cell = Cell {
        id: req.id,
        unit: req.unit,
        settings: RunSettings {
            duration: SimDelta::from_ms(MS),
            seed: r.cfg.seed,
        },
        cfg: r.cfg,
        config: "whatif".to_string(),
    };
    (cell, r.flows, r.key)
}

/// The distinct scenarios of a set of requests, first occurrences only.
fn scenarios<'a>(reqs: impl Iterator<Item = &'a Request>) -> Vec<&'a Request> {
    reqs.filter(|r| r.first).collect()
}

pub fn run(inputs: &Inputs, phase: &mut Phase) -> Outcome {
    let mut answers: Vec<Answer> = Vec::new();
    let mut passes_run = 0;
    phase.run(MAX_PASSES, || {
        let got = serve_pass(&inputs.passes[passes_run]);
        passes_run += 1;
        let events = got.iter().map(|a| a.events).sum();
        let n = got.len() as u64;
        answers.extend(got);
        (n, events)
    });

    // Checks: every `ok` response's digest, hits included, against a cold
    // run of the triple `resolve` makes of its request; and each request's
    // cache outcome against the session plan.
    let reqs: Vec<&Request> = inputs.passes[..passes_run]
        .iter()
        .flatten()
        .flatten()
        .collect();
    let firsts = scenarios(reqs.iter().copied());
    let cold = par_map(&firsts, |req| {
        let (cell, flows, key) = resolved_cell(req);
        (key, SystemSim::run(cell.cfg, flows))
    });
    let want: BTreeMap<u64, String> = cold
        .iter()
        .map(|(k, r)| (*k, format!("{:016x}", r.digest())))
        .collect();
    let by_id: BTreeMap<u64, &Answer> = answers.iter().map(|a| (a.id, a)).collect();
    let mut out = Outcome {
        per_worker: vec![0; ServeOptions::default().workers],
        ..Outcome::default()
    };
    for req in &reqs {
        out.attempted += 1;
        let key = resolve(&req.line).map(|r| r.key).ok();
        let good = by_id.get(&req.id).is_some_and(|a| {
            a.ok && a.hit != req.first && key.and_then(|k| want.get(&k)) == Some(&a.digest)
        });
        if !good {
            out.failed += 1;
        }
    }
    for a in &answers {
        if let Some(n) = out.per_worker.get_mut(a.worker) {
            *n += 1;
        }
    }
    let pass0 = scenarios(inputs.passes[0].iter().flatten()).len();
    for (_, r) in &cold[..pass0] {
        out.tally.add(r);
    }
    put_latency(&mut out.extra, &answers, phase.wall);
    out.answers = answers;
    out
}

fn put_latency(m: &mut Metrics, answers: &[Answer], wall: f64) {
    m.put("requests_per_s", answers.len() as f64 / wall, "req/s");
    for (class, hit) in [("hit", true), ("miss", false)] {
        let mut v: Vec<f64> = answers
            .iter()
            .filter(|a| a.hit == hit)
            .map(|a| a.latency_ms)
            .collect();
        m.put(format!("{class}_samples"), v.len() as f64, "count");
        m.put(format!("{class}_p50_ms"), quantile(&mut v, 0.5), "ms");
        m.put(format!("{class}_p90_ms"), quantile(&mut v, 0.9), "ms");
    }
}

/// The first pass's requests replayed on one thread, in release order,
/// following the session plan (the checks matched every recorded cache
/// outcome against it). Spans of one request share its id.
pub fn replay(inputs: &Inputs, out: &Outcome, m: &mut Metrics) -> Replay {
    let mut rp = Replay::new();
    let by_id: BTreeMap<u64, &Answer> = out.answers.iter().map(|a| (a.id, a)).collect();
    for session in &inputs.passes[0] {
        let mut cache: BTreeMap<u64, SimSnapshot> = BTreeMap::new();
        for req in session {
            let span = rp.spans.open("serve.resolve", req.id, None);
            let (cell, flows, key) = resolved_cell(req);
            rp.spans.close(span);
            match cache.get(&key) {
                Some(snap) => {
                    rp.cell(None, &cell, Some(flows), Path::Hit(snap));
                }
                None => {
                    let mut slot = None;
                    rp.cell(None, &cell, Some(flows), Path::Miss(&mut slot));
                    cache.insert(key, slot.expect("a miss keeps its snapshot"));
                }
            }
        }
    }
    rp.put_layers(m);

    let mut extra = Metrics::default();
    let t = rp.spans.self_time();
    let resolve_us = t
        .get("serve.resolve")
        .map_or(0.0, |(ns, n)| *ns as f64 / *n as f64 / 1e3);
    extra.put("serve.resolve_us", resolve_us, "us");
    let hits = out.answers.iter().filter(|a| a.hit).count();
    extra.put(
        "serve.hit_ratio",
        hits as f64 / out.answers.len().max(1) as f64,
        "fraction",
    );
    for (class, hit) in [("hit", true), ("miss", false)] {
        // Service is the plain replay's host time; the rest of a request's
        // latency waited in the loop, the queue, or behind the other worker.
        let (mut svc, mut wait): (Vec<f64>, Vec<f64>) = rp
            .plain_ns
            .iter()
            .filter_map(|(id, ns)| {
                by_id
                    .get(id)
                    .filter(|a| a.hit == hit)
                    .map(|a| (*ns as f64 / 1e6, a))
            })
            .map(|(ms, a)| (ms, a.latency_ms - ms))
            .unzip();
        extra.put(format!("serve.service_ms.{class}"), median(&mut svc), "ms");
        extra.put(
            format!("serve.queue_wait_ms.{class}"),
            median(&mut wait),
            "ms",
        );
    }
    rp.put_channels(&mut extra);
    extra.print("serve layers:");
    rp
}

/// The first pass's distinct scenarios, for the counting pass.
#[cfg(feature = "trace")]
pub fn count_inputs(seed: u64) -> Vec<(SystemConfig, Vec<FlowSpec>)> {
    let inputs = setup(seed);
    scenarios(inputs.passes[0].iter().flatten())
        .into_iter()
        .map(|req| {
            let (cell, flows, _) = resolved_cell(req);
            (cell.cfg, flows)
        })
        .collect()
}
