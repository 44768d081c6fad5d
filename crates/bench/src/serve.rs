//! `simulate --serve`: a what-if service over warmed snapshots.
//!
//! Reads line-delimited JSON requests (one object per line), resolves
//! each to an *effective* `(config, flows, warmup)` triple — the named
//! unit and scheme plus any what-if deltas ("same workload plus extra
//! flows", "half the DRAM channels") — and answers with one NDJSON
//! response per request, in completion order, correlated by `id`.
//!
//! ## Why snapshots make what-ifs cheap
//!
//! Exploring deltas around a scenario re-runs the same warmup over and
//! over. The server instead keeps an LRU cache of [`SimSnapshot`]s keyed
//! by the digest of the effective triple: the first request for a triple
//! warms a cell to `warmup_ms`, snapshots it, and continues to the end
//! (a *miss*); every later request for the same triple restores the
//! cached snapshot into a warm cell and simulates only the tail past the
//! warmup (a *hit*, branch depth = how many runs the snapshot has
//! seeded). Deltas are folded into the triple *before* keying, so a
//! branched what-if's report digest provably equals a cold run of the
//! effective config — the invariant [`smoke`] cross-checks in CI.
//!
//! ## Concurrency
//!
//! Requests dispatch to a fixed pool of workers over bounded queues
//! (backpressure: a full queue blocks the reader, bounding in-flight
//! work). Routing is by key affinity — `worker = key % workers` — so
//! repeated requests for one triple land on one worker in order, which
//! makes hit/miss telemetry deterministic. Each worker owns one warm
//! [`SimCell`] reused across requests; responses stream through a
//! dedicated writer thread the moment they are produced.
//!
//! ## Request format
//!
//! ```json
//! {"id": 1, "unit": "A5", "scheme": "vip", "ms": 40, "warmup_ms": 10,
//!  "seed": 7, "whatif": {"extra_flows": 1, "dram_channels": 2,
//!                        "num_cpus": 4, "burst_frames": 4}}
//! ```
//!
//! `unit` is a matrix unit label (`A1`..`A7`, `W1`..`W8`); all other
//! fields are optional (`scheme` defaults to `vip`, `ms` to 50,
//! `warmup_ms` to `ms / 2`, `seed` to the bench default). The fields that
//! size a run are capped: `ms` at 60,000, `extra_flows` and `num_cpus` at
//! 64; a request past a cap is rejected. The response
//! carries `ok`, the report `digest` (hex), `cache` (`"hit"`/`"miss"`),
//! `branch_depth`, the serving `worker`, and headline report fields.

use std::hash::BuildHasher;
use std::io::{BufRead, Write};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{mpsc, Arc, Mutex};

use desim::SimDelta;
use telemetry::json::{self, Json};
use vip_core::{Scheme, SimCell, SimSnapshot, SystemConfig};

use crate::runner::{RunSettings, Unit};

/// Server tuning knobs.
#[derive(Debug, Clone, Copy)]
pub struct ServeOptions {
    /// Worker threads (each owns one warm cell).
    pub workers: usize,
    /// Snapshot cache capacity (entries; LRU eviction).
    pub cache: usize,
    /// Per-worker request queue bound (backpressure past this).
    pub queue: usize,
}

impl Default for ServeOptions {
    fn default() -> Self {
        ServeOptions {
            workers: 2,
            cache: 8,
            queue: 4,
        }
    }
}

/// One warmed snapshot in the cache, with its branch counter.
#[derive(Debug)]
struct CachedSnap {
    snap: SimSnapshot,
    /// Runs this snapshot has seeded (restore count).
    branches: AtomicU64,
}

/// A small LRU of warmed snapshots keyed by effective-triple digest.
/// Linear scan — the cache is a handful of entries, and the cost of a
/// miss (a warmup simulation) dwarfs any lookup strategy. Each entry also
/// keeps the triple's text, and a lookup must match it too, so two
/// triples whose digests collide miss instead of sharing a snapshot.
#[derive(Debug)]
struct SnapCache {
    cap: usize,
    tick: u64,
    entries: Vec<(u64, String, Arc<CachedSnap>, u64)>,
}

impl SnapCache {
    fn new(cap: usize) -> Self {
        SnapCache {
            cap: cap.max(1),
            tick: 0,
            entries: Vec::new(),
        }
    }

    fn get(&mut self, key: u64, triple: &str) -> Option<Arc<CachedSnap>> {
        self.tick += 1;
        let tick = self.tick;
        self.entries
            .iter_mut()
            .find(|(k, t, _, _)| *k == key && t == triple)
            .map(|(_, _, snap, last)| {
                *last = tick;
                Arc::clone(snap)
            })
    }

    fn insert(&mut self, key: u64, triple: String, snap: SimSnapshot) -> Arc<CachedSnap> {
        self.tick += 1;
        if self.entries.len() >= self.cap {
            let oldest = self
                .entries
                .iter()
                .enumerate()
                .min_by_key(|(_, (_, _, _, last))| *last)
                .map(|(i, _)| i)
                .expect("cap >= 1 and cache full");
            self.entries.swap_remove(oldest);
        }
        let cached = Arc::new(CachedSnap {
            snap,
            branches: AtomicU64::new(0),
        });
        self.entries
            .push((key, triple, Arc::clone(&cached), self.tick));
        cached
    }
}

/// A request resolved to its effective simulation inputs.
#[derive(Debug, Clone)]
pub struct Resolved {
    /// Correlation id echoed into the response.
    pub id: u64,
    /// Effective config (scheme + duration + seed + what-if deltas).
    pub cfg: SystemConfig,
    /// Effective flow set (unit flows + what-if extra flows).
    pub flows: Vec<vip_core::FlowSpec>,
    /// Warmup instant the snapshot is taken at.
    pub warmup: SimDelta,
    /// Cache key: digest of the effective triple.
    pub key: u64,
    /// The effective triple's text, which `key` digests; the cache
    /// compares it so that a digest collision is a miss.
    triple: String,
}

/// Caps checked before anything is built. `extra_flows` and `num_cpus`
/// set how many flows and cores are allocated, and an allocation failure
/// aborts the process. `ms` bounds a request's run time until requests
/// carry an event budget; the largest documented request uses `ms` 200.
const MAX_MS: u64 = 60_000;
const MAX_EXTRA_FLOWS: u64 = 64;
const MAX_CPUS: u64 = 64;

/// Resolves one request line to its effective `(config, flows, warmup)`
/// triple. What-if deltas are applied *here*, before the cache key is
/// computed, so a delta'd request is its own cacheable scenario whose
/// digest matches a cold run of the effective config.
///
/// # Errors
///
/// Returns a human-readable message for malformed JSON, unknown units or
/// schemes, a numeric field that is not a whole number in `0..=2^53`, a
/// field past its cap (`ms`, `extra_flows`, `num_cpus`), or a delta'd
/// config that fails validation.
pub fn resolve(line: &str) -> Result<Resolved, (u64, String)> {
    let doc = json::parse(line).map_err(|e| (0, format!("bad request JSON: {e}")))?;
    let id = whole(&doc, "id").map_err(|e| (0, e))?.unwrap_or(0);
    let fail = |msg: String| (id, msg);

    let unit_label = doc
        .get("unit")
        .and_then(Json::as_str)
        .ok_or_else(|| fail("missing required field: unit".into()))?;
    let unit = Unit::all()
        .into_iter()
        .find(|u| u.label().eq_ignore_ascii_case(unit_label))
        .ok_or_else(|| fail(format!("unknown unit '{unit_label}' (A1..A7, W1..W8)")))?;

    let scheme = match doc.get("scheme").and_then(Json::as_str) {
        None => Scheme::Vip,
        Some(s) => Scheme::ALL
            .into_iter()
            .find(|sc| sc.label().eq_ignore_ascii_case(s))
            .ok_or_else(|| fail(format!("unknown scheme '{s}'")))?,
    };

    let ms = at_most(&doc, "ms", MAX_MS).map_err(fail)?.unwrap_or(50);
    if ms == 0 {
        return Err(fail("ms must be positive".into()));
    }
    let warmup_ms = whole(&doc, "warmup_ms").map_err(fail)?.unwrap_or(ms / 2);
    if warmup_ms >= ms {
        return Err(fail(format!("warmup_ms {warmup_ms} must be < ms {ms}")));
    }
    let settings = RunSettings {
        duration: SimDelta::from_ms(ms),
        seed: whole(&doc, "seed")
            .map_err(fail)?
            .unwrap_or(RunSettings::default().seed),
    };

    let mut cfg = settings.config(scheme);
    let mut flows = unit.flows(settings);

    if let Some(whatif) = doc.get("whatif") {
        let knob = |k: &str| whole(whatif, k).map_err(fail);
        if let Some(n) = at_most(whatif, "extra_flows", MAX_EXTRA_FLOWS).map_err(fail)? {
            // "Same workload, plus load": duplicate the unit's own flows
            // cyclically under fresh names — deterministic, and shaped
            // like the traffic already present.
            for i in 0..n as usize {
                let mut extra = flows[i % flows.len()].clone();
                extra.name = format!("{}+whatif{i}", extra.name);
                flows.push(extra);
            }
        }
        if let Some(ch) = knob("dram_channels")? {
            cfg.dram.channels = ch as usize;
        }
        if let Some(n) = at_most(whatif, "num_cpus", MAX_CPUS).map_err(fail)? {
            cfg.num_cpus = n as usize;
        }
        if let Some(b) = knob("burst_frames")? {
            cfg.burst_frames = u32::try_from(b)
                .map_err(|_| fail(format!("burst_frames {b} exceeds {}", u32::MAX)))?;
        }
        cfg.validate()
            .map_err(|e| fail(format!("what-if config invalid: {e}")))?;
    }

    // `SystemConfig` and `FlowSpec` are plain data with exhaustive `Debug`
    // derives, so the triple's debug rendering keys every knob without a
    // hand-maintained field walk.
    let warmup = SimDelta::from_ms(warmup_ms);
    let triple = format!("{cfg:?}|{flows:?}|{}", warmup.as_ns());
    Ok(Resolved {
        id,
        cfg,
        flows,
        warmup,
        key: desim::FxBuildHasher::default().hash_one(&triple),
        triple,
    })
}

/// Reads the optional numeric field `key` of a request object. JSON
/// numbers arrive as `f64`, so only finite, non-negative whole numbers up
/// to 2^53 (the largest range `f64` holds exactly) are accepted; a
/// fraction, a negative, an out-of-range or a non-numeric value is an
/// error naming the field, never a silent `as` cast.
fn whole(obj: &Json, key: &str) -> Result<Option<u64>, String> {
    const MAX: f64 = (1u64 << 53) as f64;
    let Some(v) = obj.get(key) else {
        return Ok(None);
    };
    match v.as_f64() {
        Some(x) if x.is_finite() && (0.0..=MAX).contains(&x) && x.fract() == 0.0 => {
            Ok(Some(x as u64))
        }
        _ => Err(format!("{key} must be a whole number in 0..=2^53")),
    }
}

/// [`whole`], capped at `max`; a larger value is an error naming the
/// field.
fn at_most(obj: &Json, key: &str, max: u64) -> Result<Option<u64>, String> {
    match whole(obj, key)? {
        Some(v) if v > max => Err(format!("{key} {v} exceeds the limit {max}")),
        v => Ok(v),
    }
}

/// One response, ready to serialize.
#[derive(Debug)]
struct Response {
    id: u64,
    worker: usize,
    body: Result<Ok_, String>,
}

#[derive(Debug)]
struct Ok_ {
    digest: u64,
    hit: bool,
    branch_depth: u64,
    events: u64,
    frames_completed: u64,
    energy_nj: u64,
}

impl Response {
    fn to_ndjson(&self) -> String {
        match &self.body {
            Ok(ok) => format!(
                "{{\"id\": {}, \"ok\": true, \"digest\": \"{:016x}\", \"cache\": \"{}\", \
                 \"branch_depth\": {}, \"worker\": {}, \"events\": {}, \
                 \"frames_completed\": {}, \"energy_nj\": {}}}\n",
                self.id,
                ok.digest,
                if ok.hit { "hit" } else { "miss" },
                ok.branch_depth,
                self.worker,
                ok.events,
                ok.frames_completed,
                ok.energy_nj,
            ),
            Err(msg) => format!(
                "{{\"id\": {}, \"ok\": false, \"error\": \"{}\"}}\n",
                self.id,
                json::escape(msg),
            ),
        }
    }
}

/// Totals returned by [`Server::run`] (and printed by `--serve` on exit).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ServeStats {
    /// Requests answered OK.
    pub ok: u64,
    /// Requests answered with an error.
    pub errors: u64,
    /// Snapshot-cache hits among OK responses.
    pub hits: u64,
    /// Snapshot-cache misses among OK responses.
    pub misses: u64,
}

/// The what-if server: a snapshot cache plus a worker pool.
#[derive(Debug)]
pub struct Server {
    opts: ServeOptions,
}

impl Server {
    /// A server with the given knobs (workers and queue clamped to ≥ 1).
    pub fn new(opts: ServeOptions) -> Self {
        Server {
            opts: ServeOptions {
                workers: opts.workers.max(1),
                cache: opts.cache,
                queue: opts.queue.max(1),
            },
        }
    }

    /// Serves `input` to `output` until EOF: one NDJSON response per
    /// request line, streamed in completion order. Returns the totals.
    pub fn run<R: BufRead, W: Write + Send>(
        &self,
        input: R,
        output: &mut W,
    ) -> std::io::Result<ServeStats> {
        let cache = Mutex::new(SnapCache::new(self.opts.cache));
        let (resp_tx, resp_rx) = mpsc::channel::<Response>();
        let mut req_txs = Vec::with_capacity(self.opts.workers);
        let mut req_rxs = Vec::with_capacity(self.opts.workers);
        for _ in 0..self.opts.workers {
            let (tx, rx) = mpsc::sync_channel::<Resolved>(self.opts.queue);
            req_txs.push(tx);
            req_rxs.push(rx);
        }

        let mut stats = ServeStats::default();
        let mut io_err: Option<std::io::Error> = None;
        std::thread::scope(|scope| {
            for (w, rx) in req_rxs.into_iter().enumerate() {
                let resp_tx = resp_tx.clone();
                let cache = &cache;
                scope.spawn(move || {
                    let mut warm: Option<SimCell> = None;
                    for req in rx {
                        let body = serve_one(&req, cache, &mut warm);
                        resp_tx
                            .send(Response {
                                id: req.id,
                                worker: w,
                                body: Ok(body),
                            })
                            .expect("writer alive");
                    }
                });
            }

            // Writer: stream responses as they complete, tallying stats.
            let writer = scope.spawn(move || {
                let mut stats = ServeStats::default();
                for resp in resp_rx {
                    match &resp.body {
                        Ok(ok) => {
                            stats.ok += 1;
                            if ok.hit {
                                stats.hits += 1;
                            } else {
                                stats.misses += 1;
                            }
                        }
                        Err(_) => stats.errors += 1,
                    }
                    if let Err(e) = output.write_all(resp.to_ndjson().as_bytes()) {
                        return (stats, Some(e));
                    }
                    if let Err(e) = output.flush() {
                        return (stats, Some(e));
                    }
                }
                (stats, None)
            });

            // Reader/dispatcher: affinity-route each resolved request;
            // a full worker queue blocks here (bounded in-flight work).
            for line in input.lines() {
                let Ok(line) = line else { break };
                if line.trim().is_empty() {
                    continue;
                }
                match resolve(&line) {
                    Ok(req) => {
                        let w = (req.key as usize) % self.opts.workers;
                        req_txs[w].send(req).expect("worker alive");
                    }
                    Err((id, msg)) => {
                        resp_tx
                            .send(Response {
                                id,
                                worker: 0,
                                body: Err(msg),
                            })
                            .expect("writer alive");
                    }
                }
            }
            drop(req_txs);
            drop(resp_tx);
            let (s, e) = writer.join().expect("writer thread");
            stats = s;
            io_err = e;
        });
        match io_err {
            Some(e) => Err(e),
            None => Ok(stats),
        }
    }
}

/// Answers one resolved request on this worker's warm cell.
fn serve_one(req: &Resolved, cache: &Mutex<SnapCache>, warm: &mut Option<SimCell>) -> Ok_ {
    let cached = cache
        .lock()
        .expect("snapshot cache lock")
        .get(req.key, &req.triple);
    let (hit, branch_depth, report) = match cached {
        Some(cached) => {
            // Hit: branch the warmed snapshot and simulate only the tail.
            let depth = cached.branches.fetch_add(1, Ordering::Relaxed) + 1;
            let cell = ensure_cell(warm, req);
            cell.restore(&cached.snap);
            (true, depth, cell.finish())
        }
        None => {
            // Miss: warm up, publish the snapshot, then run the tail.
            let cell = ensure_cell(warm, req);
            cell.run_until(desim::SimTime::ZERO + req.warmup);
            let snap = cell.snapshot();
            cache
                .lock()
                .expect("snapshot cache lock")
                .insert(req.key, req.triple.clone(), snap);
            (false, 0, cell.finish())
        }
    };
    Ok_ {
        digest: report.digest(),
        hit,
        branch_depth,
        events: report.events,
        frames_completed: report.frames_completed,
        energy_nj: (report.energy.total_j() * 1e9).round() as u64,
    }
}

/// Shapes this worker's warm cell for the request (reset in place when
/// it exists, fresh otherwise).
fn ensure_cell<'a>(warm: &'a mut Option<SimCell>, req: &Resolved) -> &'a mut SimCell {
    match warm {
        Some(cell) => {
            cell.reset(&req.cfg, &req.flows);
            cell
        }
        None => warm.insert(SimCell::new(req.cfg.clone(), req.flows.clone())),
    }
}

/// The CI self-check: scripted requests through a real two-worker
/// server; every response strictly re-parsed; repeated base and what-if
/// requests must hit the cache; and the branched what-if's digest must
/// equal a cold run of its effective config. Returns the process exit
/// code.
pub fn smoke() -> i32 {
    let script = concat!(
        r#"{"id": 1, "unit": "A5", "scheme": "vip", "ms": 30, "warmup_ms": 10, "seed": 7}"#,
        "\n",
        r#"{"id": 2, "unit": "A5", "scheme": "vip", "ms": 30, "warmup_ms": 10, "seed": 7}"#,
        "\n",
        r#"{"id": 3, "unit": "A5", "scheme": "vip", "ms": 30, "warmup_ms": 10, "seed": 7, "whatif": {"dram_channels": 1, "extra_flows": 1}}"#,
        "\n",
        r#"{"id": 4, "unit": "A5", "scheme": "vip", "ms": 30, "warmup_ms": 10, "seed": 7, "whatif": {"dram_channels": 1, "extra_flows": 1}}"#,
        "\n",
        r#"{"id": 5, "unit": "A5", "scheme": "warp", "ms": 30}"#,
        "\n",
    );

    let server = Server::new(ServeOptions::default());
    let mut out = Vec::new();
    let stats = match server.run(script.as_bytes(), &mut out) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("serve smoke: server I/O failed: {e}");
            return 1;
        }
    };
    let text = String::from_utf8(out).expect("NDJSON is UTF-8");

    // Strictly re-parse every response line; index by id.
    let mut by_id = std::collections::BTreeMap::new();
    for (i, line) in text.lines().enumerate() {
        let doc = match json::parse(line) {
            Ok(d) => d,
            Err(e) => {
                eprintln!("serve smoke: response line {} invalid: {e}", i + 1);
                return 1;
            }
        };
        let id = doc.get("id").and_then(Json::as_f64).unwrap_or(-1.0) as u64;
        by_id.insert(id, doc);
    }
    if by_id.len() != 5 {
        eprintln!("serve smoke: expected 5 responses, got {}", by_id.len());
        return 1;
    }
    if stats.ok != 4 || stats.errors != 1 || stats.hits != 2 || stats.misses != 2 {
        eprintln!("serve smoke: unexpected totals {stats:?}");
        return 1;
    }

    let field = |id: u64, key: &str| by_id[&id].get(key).cloned().unwrap_or(Json::Null);
    let digest = |id: u64| field(id, "digest").as_str().map(str::to_string);

    // Identical requests: second is a cache hit with the same digest.
    if field(1, "cache").as_str() != Some("miss") || field(2, "cache").as_str() != Some("hit") {
        eprintln!("serve smoke: base pair hit/miss telemetry wrong");
        return 1;
    }
    if digest(1) != digest(2) {
        eprintln!("serve smoke: cache hit changed the base digest");
        return 1;
    }

    // The branched what-if pair: second is a hit at branch depth >= 1,
    // and the what-if digest differs from the base scenario's.
    if field(3, "cache").as_str() != Some("miss") || field(4, "cache").as_str() != Some("hit") {
        eprintln!("serve smoke: what-if pair hit/miss telemetry wrong");
        return 1;
    }
    if field(4, "branch_depth").as_f64().unwrap_or(0.0) < 1.0 {
        eprintln!("serve smoke: what-if hit reports no branch");
        return 1;
    }
    if digest(3) != digest(4) || digest(3) == digest(1) {
        eprintln!("serve smoke: what-if digests inconsistent");
        return 1;
    }
    if field(5, "ok") != Json::Bool(false) {
        eprintln!("serve smoke: bad scheme not rejected");
        return 1;
    }

    // Cross-check: the cache-hit branched what-if must match a cold run
    // of the effective (config, flows) — snapshot branching is invisible.
    let req = resolve(
        r#"{"id": 4, "unit": "A5", "scheme": "vip", "ms": 30, "warmup_ms": 10, "seed": 7, "whatif": {"dram_channels": 1, "extra_flows": 1}}"#,
    )
    .expect("smoke request resolves");
    let cold = vip_core::SystemSim::run(req.cfg, req.flows);
    if digest(4) != Some(format!("{:016x}", cold.digest())) {
        eprintln!("serve smoke: branched what-if digest differs from cold run");
        return 1;
    }

    println!(
        "serve --smoke: OK ({} ok / {} err, {} hits / {} misses, branched what-if \
         digest matches cold run)",
        stats.ok, stats.errors, stats.hits, stats.misses
    );
    0
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn resolve_applies_whatif_before_keying() {
        let base = resolve(r#"{"id": 1, "unit": "A1", "ms": 20, "warmup_ms": 5}"#).unwrap();
        let same = resolve(r#"{"id": 2, "unit": "A1", "ms": 20, "warmup_ms": 5}"#).unwrap();
        let delta = resolve(
            r#"{"id": 3, "unit": "A1", "ms": 20, "warmup_ms": 5, "whatif": {"dram_channels": 1}}"#,
        )
        .unwrap();
        assert_eq!(base.key, same.key, "identical requests must share a key");
        assert_ne!(base.key, delta.key, "a delta is its own scenario");
        assert_eq!(delta.cfg.dram.channels, 1);

        let extra = resolve(
            r#"{"id": 4, "unit": "A1", "ms": 20, "warmup_ms": 5, "whatif": {"extra_flows": 2}}"#,
        )
        .unwrap();
        assert_eq!(extra.flows.len(), base.flows.len() + 2);
        assert_ne!(extra.key, base.key);
    }

    #[test]
    fn resolve_rejects_malformed_requests() {
        assert!(resolve("not json").is_err());
        assert!(resolve(r#"{"id": 1}"#).is_err(), "unit is required");
        assert!(resolve(r#"{"id": 1, "unit": "Z9"}"#).is_err());
        assert!(resolve(r#"{"id": 1, "unit": "A1", "scheme": "warp"}"#).is_err());
        assert!(
            resolve(r#"{"id": 1, "unit": "A1", "ms": 10, "warmup_ms": 10}"#).is_err(),
            "warmup must precede the horizon"
        );
        // A power of two, but past the 64 channels DRAM can track: it must
        // fail here rather than panic in a worker.
        assert!(resolve(r#"{"id":1,"unit":"A1","ms":20,"whatif":{"dram_channels":128}}"#).is_err());
        // Numbers outside their field's range: a horizon that overflows
        // u64 nanoseconds, a negative warmup, a fractional channel count,
        // and fields past the caps that keep a request from allocating
        // without bound.
        for (line, field) in [
            (
                r#"{"id":1,"unit":"A1","ms":18446744073710,"warmup_ms":0}"#,
                "ms",
            ),
            (
                r#"{"id":1,"unit":"A1","ms":18446744073709,"warmup_ms":0}"#,
                "ms",
            ),
            (
                r#"{"id":1,"unit":"A1","ms":20,"whatif":{"extra_flows":9007199254740992}}"#,
                "extra_flows",
            ),
            (
                r#"{"id":1,"unit":"A1","ms":20,"whatif":{"num_cpus":9007199254740992}}"#,
                "num_cpus",
            ),
            (
                r#"{"id":1,"unit":"A1","ms":20,"warmup_ms":-1}"#,
                "warmup_ms",
            ),
            (
                r#"{"id":1,"unit":"A1","ms":20,"whatif":{"dram_channels":2.5}}"#,
                "dram_channels",
            ),
        ] {
            let (id, msg) = resolve(line).unwrap_err();
            assert_eq!(id, 1);
            assert!(msg.starts_with(field), "{line}: {msg}");
        }
        // The error carries the request id for correlation.
        assert_eq!(resolve(r#"{"id": 9}"#).unwrap_err().0, 9);
    }

    fn tiny_snapshot() -> SimSnapshot {
        let probe = resolve(r#"{"id": 0, "unit": "A1", "ms": 4, "warmup_ms": 1}"#).unwrap();
        let mut cell = SimCell::new(probe.cfg, probe.flows);
        cell.run_until(desim::SimTime::from_ms(1));
        cell.snapshot()
    }

    #[test]
    fn lru_evicts_the_coldest_entry() {
        let snap = tiny_snapshot();
        let mut cache = SnapCache::new(2);
        cache.insert(1, "a".into(), snap.clone());
        cache.insert(2, "b".into(), snap.clone());
        assert!(cache.get(1, "a").is_some(), "refreshes key 1");
        cache.insert(3, "c".into(), snap); // evicts key 2 (coldest)
        assert!(cache.get(2, "b").is_none(), "LRU kept the cold entry");
        assert!(cache.get(1, "a").is_some());
        assert!(cache.get(3, "c").is_some());
    }

    #[test]
    fn colliding_digests_miss_instead_of_sharing_a_snapshot() {
        let mut cache = SnapCache::new(2);
        cache.insert(1, "a".into(), tiny_snapshot());
        assert!(cache.get(1, "b").is_none(), "a digest collision must miss");
        assert!(cache.get(1, "a").is_some());
    }

    #[test]
    fn smoke_passes() {
        assert_eq!(smoke(), 0, "serve smoke self-check failed");
    }
}
