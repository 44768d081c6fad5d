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
//! The reader runs on the caller's thread and routes each request to a
//! worker of the crate's warm-cell pool over that worker's own bounded
//! queue (backpressure: a full queue blocks the reader, bounding
//! in-flight work). Routing is by key affinity — `worker = key %
//! workers` — so repeated requests for one triple land on one worker in
//! order, which makes hit/miss telemetry deterministic. Each worker owns
//! one warm [`SimCell`] reused across requests; responses stream through
//! a dedicated writer thread the moment they are produced.
//!
//! A line that is not UTF-8 gets an error response, like malformed JSON.
//! A failed write ends the run with that error: the writer stops, each
//! worker stops at its next response, and the reader at its next line.
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
use std::io::{self, BufRead, Write};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{mpsc, Arc, Mutex};

use desim::SimDelta;
use telemetry::json::{self, Json};
use vip_core::{Scheme, SimCell, SimSnapshot, SystemConfig};

use crate::pool;
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
    /// The response line, naming the `worker` that served it.
    fn to_ndjson(&self, worker: usize) -> String {
        match &self.body {
            Ok(ok) => format!(
                "{{\"id\": {}, \"ok\": true, \"digest\": \"{:016x}\", \"cache\": \"{}\", \
                 \"branch_depth\": {}, \"worker\": {}, \"events\": {}, \
                 \"frames_completed\": {}, \"energy_nj\": {}}}\n",
                self.id,
                ok.digest,
                if ok.hit { "hit" } else { "miss" },
                ok.branch_depth,
                worker,
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
    ///
    /// # Errors
    ///
    /// The first error reading `input` or writing `output`. A failed
    /// write stops the workers, but a blocking read cannot be
    /// interrupted: the server notices at its next input line or at EOF.
    pub fn run<R: BufRead, W: Write + Send>(
        &self,
        input: R,
        output: &mut W,
    ) -> io::Result<ServeStats> {
        let cache = Mutex::new(SnapCache::new(self.opts.cache));
        let (req_txs, req_rxs): (Vec<_>, Vec<_>) = (0..self.opts.workers)
            .map(|_| mpsc::sync_channel::<Resolved>(self.opts.queue))
            .unzip();
        let (resp_tx, resp_rx) = mpsc::channel();
        let work = |req: Resolved, warm: &mut Option<SimCell>| Response {
            id: req.id,
            body: Ok(serve_one(&req, &cache, warm)),
        };
        std::thread::scope(|scope| {
            pool::spawn(scope, req_rxs, &work, resp_tx.clone());
            let writer = scope.spawn(move || write_responses(resp_rx, output));
            let read = dispatch(input, &req_txs, &resp_tx);
            drop(req_txs);
            drop(resp_tx);
            let (stats, written) = writer.join().expect("writer thread");
            read.and(written).map(|()| stats)
        })
    }
}

/// The reader: resolves each request line and routes it by key affinity
/// to its worker's queue (a full queue blocks here, bounding in-flight
/// work), or sends the rejection straight to the writer. Returns at EOF,
/// at a read error, or once a worker or the writer has stopped.
fn dispatch(
    input: impl BufRead,
    workers: &[mpsc::SyncSender<Resolved>],
    responses: &mpsc::Sender<(usize, Response)>,
) -> io::Result<()> {
    for line in input.split(b'\n') {
        let req = match std::str::from_utf8(&line?) {
            Ok(line) if line.trim().is_empty() => continue,
            Ok(line) => resolve(line),
            Err(_) => Err((0, "request line is not UTF-8".into())),
        };
        let sent = match req {
            Ok(req) => workers[(req.key as usize) % workers.len()]
                .send(req)
                .is_ok(),
            Err((id, msg)) => responses.send((0, Response { id, body: Err(msg) })).is_ok(),
        };
        if !sent {
            break;
        }
    }
    Ok(())
}

/// The writer: streams `(worker, response)` pairs to `output` as they
/// complete, tallying stats, and stops at the first failed write.
fn write_responses<W: Write>(
    responses: mpsc::Receiver<(usize, Response)>,
    output: &mut W,
) -> (ServeStats, io::Result<()>) {
    let mut stats = ServeStats::default();
    for (w, resp) in responses {
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
        let written = output
            .write_all(resp.to_ndjson(w).as_bytes())
            .and_then(|()| output.flush());
        if written.is_err() {
            return (stats, written);
        }
    }
    (stats, Ok(()))
}

/// Answers one resolved request on this worker's warm cell.
fn serve_one(req: &Resolved, cache: &Mutex<SnapCache>, warm: &mut Option<SimCell>) -> Ok_ {
    let cached = cache
        .lock()
        .expect("snapshot cache lock")
        .get(req.key, &req.triple);
    let cell = pool::shape(warm, &req.cfg, &req.flows);
    let (hit, branch_depth, report) = match cached {
        Some(cached) => {
            // Hit: branch the warmed snapshot and simulate only the tail.
            let depth = cached.branches.fetch_add(1, Ordering::Relaxed) + 1;
            cell.restore(&cached.snap);
            (true, depth, cell.finish())
        }
        None => {
            // Miss: warm up, publish the snapshot, then run the tail.
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

    /// Request lines for `ids` over `triples` seeds, so repeats interleave.
    fn requests(ids: std::ops::RangeInclusive<u64>, triples: u64) -> String {
        ids.map(|id| {
            let seed = id % triples;
            format!("{{\"id\": {id}, \"unit\": \"A1\", \"ms\": 6, \"warmup_ms\": 2, \"seed\": {seed}}}\n")
        })
        .collect()
    }

    #[test]
    fn closed_output_ends_the_run_with_its_error() {
        struct Closed;
        impl Write for Closed {
            fn write(&mut self, _: &[u8]) -> io::Result<usize> {
                Err(io::ErrorKind::BrokenPipe.into())
            }
            fn flush(&mut self) -> io::Result<()> {
                Ok(())
            }
        }
        // More requests than the queues hold, so the reader blocks on a
        // worker that has stopped.
        let opts = ServeOptions {
            workers: 2,
            cache: 2,
            queue: 1,
        };
        let err = Server::new(opts).run(requests(1..=12, 4).as_bytes(), &mut Closed);
        assert_eq!(err.unwrap_err().kind(), io::ErrorKind::BrokenPipe);
    }

    #[test]
    fn non_utf8_line_is_answered_and_serving_goes_on() {
        let mut input = requests(1..=1, 2).into_bytes();
        input.extend_from_slice(b"\xff\n");
        input.extend_from_slice(requests(3..=4, 2).as_bytes());
        let mut out = Vec::new();
        let stats = Server::new(ServeOptions::default())
            .run(&input[..], &mut out)
            .unwrap();
        assert_eq!(String::from_utf8(out).unwrap().lines().count(), 4);
        assert_eq!((stats.ok, stats.errors), (3, 1));
    }

    /// One-slot queues block the reader and a two-entry cache evicts, yet
    /// every request is answered once, by its key's worker, with its cold
    /// run's digest. Hit counts are not checked: three workers share the
    /// LRU, so they depend on timing.
    #[test]
    fn backpressure_and_eviction_keep_every_answer_exact() {
        let input = requests(1..=12, 4);
        let mut out = Vec::new();
        let opts = ServeOptions {
            workers: 3,
            cache: 2,
            queue: 1,
        };
        Server::new(opts).run(input.as_bytes(), &mut out).unwrap();
        let mut by_id = std::collections::BTreeMap::new();
        for line in String::from_utf8(out).unwrap().lines() {
            let doc = json::parse(line).unwrap();
            let id = doc.get("id").and_then(Json::as_f64).unwrap() as u64;
            assert!(by_id.insert(id, doc).is_none(), "id {id} answered twice");
        }
        assert_eq!(by_id.len(), 12);
        for line in input.lines() {
            let req = resolve(line).unwrap();
            let resp = &by_id[&req.id];
            let field = |k: &str| resp.get(k).cloned().unwrap_or(Json::Null);
            assert_eq!(field("ok"), Json::Bool(true));
            assert_eq!(field("worker").as_f64(), Some((req.key % 3) as f64));
            let cold = vip_core::SystemSim::run(req.cfg, req.flows).digest();
            assert_eq!(field("digest").as_str(), Some(&*format!("{cold:016x}")));
        }
    }

    #[test]
    fn smoke_passes() {
        assert_eq!(smoke(), 0, "serve smoke self-check failed");
    }
}
