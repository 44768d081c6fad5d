//! The rule passes.
//!
//! Every rule is a pure function over a tokenized [`SourceFile`] producing
//! [`Finding`]s. Path scoping (which crates a rule applies to, per-rule
//! file allowlists) lives here too, expressed as workspace-relative path
//! prefixes/suffixes so the fixture tests can exercise scoping with
//! synthetic paths.

use std::fmt;

use crate::tokenizer::{SourceFile, Tok};

/// Every rule id this linter implements.
pub const RULE_IDS: [&str; 8] = [
    "D001", "D002", "D003", "H001", "H002", "G001", "G002", "U001",
];

/// One diagnostic.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Finding {
    /// Rule id, e.g. `"D001"`.
    pub rule: &'static str,
    /// Workspace-relative file path.
    pub file: String,
    /// 1-based line.
    pub line: usize,
    /// Human-readable description of the violation.
    pub message: String,
}

impl fmt::Display for Finding {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}:{}: {} {}",
            self.file, self.line, self.rule, self.message
        )
    }
}

/// Whether `path` belongs to the simulation crates (D/H/G scope).
fn in_sim_scope(path: &str) -> bool {
    crate::SIM_CRATES
        .iter()
        .any(|c| path.starts_with(&format!("{c}/")))
}

/// Files allowed to name `std::collections::HashMap`/`HashSet`: the one
/// module that wraps them with the deterministic Fx hasher.
const D001_ALLOW: [&str; 1] = ["crates/desim/src/hash.rs"];

/// Files allowed to carry `#[cfg(feature = "trace"/"audit")]` gates: the
/// declared observation/sanitizer sites. Everywhere else, feature-gated
/// divergence in sim crates is a determinism hazard.
const H002_ALLOW: [&str; 8] = [
    "crates/desim/src/engine.rs",
    "crates/desim/src/lib.rs",
    "crates/core/src/telem.rs",
    "crates/core/src/audit.rs",
    "crates/core/src/sim.rs",
    "crates/core/src/lib.rs",
    "crates/dram/src/lib.rs",
    "crates/dram/src/system.rs",
];

/// The engine dispatch loop and `SystemSim` dispatch scratch paths: the
/// functions that execute per event in steady state and must never
/// allocate. Keyed by path suffix so fixtures can impersonate the files;
/// each key is also the file's workspace-relative path, which the strict
/// workspace pass uses to check every name still names a `fn`.
pub(crate) const H001_HOT_FNS: [(&str, &[&str]); 5] = [
    (
        "crates/desim/src/engine.rs",
        &[
            "at",
            "after",
            "immediately",
            "cancel",
            "consume_tombstone",
            "pop",
            "peek",
            "step",
            "run",
            "run_until",
            "observe_dispatch",
            "reset",
        ],
    ),
    (
        "crates/core/src/sim.rs",
        &[
            "handle",
            "kick",
            "drain_kicks",
            "ensure_mem_tick",
            "alloc",
            "take",
            "alloc_tag",
            "retain_dispatch",
            "release_dispatch",
            "submit_cpu_task",
            "raise_irq",
            "doorbell_open",
            "pump_ip",
            "pump_fetch",
            "flush_output",
            "emit",
            "wake_waiters",
            "try_start_compute",
            "on_compute_done",
            "complete_frame",
            "on_mem_tick",
            "on_sa_arrival",
            "round_part",
            "stream_addr",
            "run_until",
            "reset",
            "reset_flow_rt",
            "sourced",
            "deadline",
            "push_frame",
            "mark_dispatched",
            "mark_dropped",
            "mark_finished",
            "add_cpu_ns",
            "set_span",
            "harvest_flow_times",
        ],
    ),
    (
        "crates/dram/src/system.rs",
        &["submit", "pump", "collect_completions_into", "gather_due"],
    ),
    (
        "crates/dram/src/channel.rs",
        &[
            "push",
            "front",
            "pop",
            "catch_up_refresh",
            "enqueue",
            "next_done",
            "pop_done",
            "pick",
            "try_issue",
        ],
    ),
    ("crates/dram/src/mapping.rs", &["place", "visit_bursts"]),
];

/// The H001 hot set of the file at `path`, if it is one of the hot files.
fn hot_fns(path: &str) -> Option<&'static [&'static str]> {
    H001_HOT_FNS
        .iter()
        .find(|(suffix, _)| path.ends_with(suffix))
        .map(|&(_, hot)| hot)
}

/// Applies every rule in scope for `src.path`.
pub fn apply_all(src: &SourceFile) -> Vec<Finding> {
    let mut out = Vec::new();
    if in_sim_scope(&src.path) {
        d001_std_hash(src, &mut out);
        d002_wall_clock(src, &mut out);
        d003_global_state(src, &mut out);
        h001_hot_alloc(src, &mut out);
        h002_feature_gate(src, &mut out);
    }
    // The digest rules key on content, not path, so fixtures (and any
    // future relocation of the report type) stay covered.
    g001_g002_digest_markers(src, &mut out);
    u001_unsafe_safety(src, &mut out);
    out
}

fn finding(src: &SourceFile, rule: &'static str, line: usize, message: String) -> Finding {
    Finding {
        rule,
        file: src.path.clone(),
        line,
        message,
    }
}

/// D001: `HashMap`/`HashSet` are SipHash-keyed per process — iteration
/// order varies run to run, which silently breaks golden digests the
/// moment anyone iterates one. Only the Fx-hashed wrappers in
/// `desim::hash` are deterministic.
fn d001_std_hash(src: &SourceFile, out: &mut Vec<Finding>) {
    if D001_ALLOW.iter().any(|a| src.path.ends_with(a)) {
        return;
    }
    for (tok, line) in &src.tokens {
        if tok.is_ident("HashMap") || tok.is_ident("HashSet") {
            out.push(finding(
                src,
                "D001",
                *line,
                format!(
                    "std {} is process-keyed (non-deterministic iteration); use desim::Fx{} or an ordered structure",
                    tok.ident().unwrap_or(""),
                    tok.ident().unwrap_or(""),
                ),
            ));
        }
    }
}

/// D002: wall-clock reads make results depend on host speed. Only the
/// bench harness (outside this rule's scope) may time anything.
///
/// Flags `Instant`/`SystemTime` only in wall-clock positions — a
/// `use std::time::…` import, a `time::Instant` path segment, or a
/// `::now` call — so unrelated identifiers (e.g. a telemetry
/// `EventKind::Instant` variant) stay clean.
fn d002_wall_clock(src: &SourceFile, out: &mut Vec<Finding>) {
    let toks = &src.tokens;
    let mut in_std_time_use = false;
    for i in 0..toks.len() {
        let (tok, line) = &toks[i];
        if tok.is_ident("use")
            && toks.get(i + 1).is_some_and(|(t, _)| t.is_ident("std"))
            && toks.get(i + 4).is_some_and(|(t, _)| t.is_ident("time"))
        {
            in_std_time_use = true;
        }
        if tok.is_punct(';') {
            in_std_time_use = false;
        }
        if !(tok.is_ident("Instant") || tok.is_ident("SystemTime")) {
            continue;
        }
        let after_time_path = i >= 3
            && toks[i - 1].0.is_punct(':')
            && toks[i - 2].0.is_punct(':')
            && toks[i - 3].0.is_ident("time");
        let calls_now = toks.get(i + 1).is_some_and(|(t, _)| t.is_punct(':'))
            && toks.get(i + 2).is_some_and(|(t, _)| t.is_punct(':'))
            && toks.get(i + 3).is_some_and(|(t, _)| t.is_ident("now"));
        if in_std_time_use || after_time_path || calls_now {
            out.push(finding(
                src,
                "D002",
                *line,
                format!(
                    "wall-clock type {} in a sim crate; simulated time must come from desim::SimTime",
                    tok.ident().unwrap_or(""),
                ),
            ));
        }
    }
}

/// D003: mutable global state survives across runs in one process, so two
/// `SystemSim::run` calls could observe different worlds.
fn d003_global_state(src: &SourceFile, out: &mut Vec<Finding>) {
    let toks = &src.tokens;
    for i in 0..toks.len() {
        if toks[i].0.is_ident("static") && toks.get(i + 1).is_some_and(|(t, _)| t.is_ident("mut")) {
            out.push(finding(
                src,
                "D003",
                toks[i].1,
                "`static mut` global breaks run-to-run determinism (and is unsafe)".to_string(),
            ));
        }
        if toks[i].0.is_ident("thread_local") {
            out.push(finding(
                src,
                "D003",
                toks[i].1,
                "`thread_local!` state leaks across runs within a worker thread".to_string(),
            ));
        }
    }
}

/// Tracks which named `fn` encloses each token. Returns, per token index,
/// the innermost enclosing function name (if any).
fn enclosing_fns(src: &SourceFile) -> Vec<Option<String>> {
    let toks = &src.tokens;
    let mut depth = 0usize;
    let mut pending: Option<String> = None;
    let mut await_name = false;
    let mut stack: Vec<(String, usize)> = Vec::new();
    let mut out = Vec::with_capacity(toks.len());
    for (tok, _line) in toks {
        match tok {
            Tok::Ident(s) if s == "fn" => {
                await_name = true;
            }
            Tok::Ident(s) if await_name => {
                pending = Some(s.clone());
                await_name = false;
            }
            Tok::Punct(';') => {
                // A trait method declaration: `fn name(...);` has no body.
                pending = None;
            }
            Tok::Punct('{') => {
                depth += 1;
                if let Some(name) = pending.take() {
                    stack.push((name, depth));
                }
            }
            Tok::Punct('}') => {
                if stack.last().is_some_and(|(_, d)| *d == depth) {
                    stack.pop();
                }
                depth = depth.saturating_sub(1);
            }
            _ => {}
        }
        out.push(stack.last().map(|(n, _)| n.clone()));
    }
    out
}

/// H001: allocation in the per-event hot path. The dispatch loop reuses
/// scratch buffers; any `Vec::new`/`Box::new`/`format!`-class call inside
/// it regresses the events/sec that perfbench measures.
fn h001_hot_alloc(src: &SourceFile, out: &mut Vec<Finding>) {
    let Some(hot) = hot_fns(&src.path) else {
        return;
    };
    let owners = enclosing_fns(src);
    let toks = &src.tokens;
    let is_path_call = |i: usize, ty: &str, methods: &[&str]| -> bool {
        toks[i].0.is_ident(ty)
            && toks.get(i + 1).is_some_and(|(t, _)| t.is_punct(':'))
            && toks.get(i + 2).is_some_and(|(t, _)| t.is_punct(':'))
            && toks
                .get(i + 3)
                .is_some_and(|(t, _)| methods.iter().any(|m| t.is_ident(m)))
    };
    for i in 0..toks.len() {
        let Some(owner) = owners[i].as_deref() else {
            continue;
        };
        if !hot.contains(&owner) {
            continue;
        }
        let line = toks[i].1;
        let alloc: Option<String> = if is_path_call(i, "Vec", &["new", "with_capacity"]) {
            Some("Vec allocation".into())
        } else if is_path_call(i, "Box", &["new"]) {
            Some("Box allocation".into())
        } else if is_path_call(i, "String", &["new", "from", "with_capacity"]) {
            Some("String allocation".into())
        } else if (toks[i].0.is_ident("format") || toks[i].0.is_ident("vec"))
            && toks.get(i + 1).is_some_and(|(t, _)| t.is_punct('!'))
        {
            Some(format!("{}! macro", toks[i].0.ident().unwrap_or("")))
        } else if toks[i].0.is_punct('.')
            && toks.get(i + 1).is_some_and(|(t, _)| {
                t.is_ident("to_string") || t.is_ident("to_owned") || t.is_ident("to_vec")
            })
        {
            Some(format!(
                ".{}() allocation",
                toks[i + 1].0.ident().unwrap_or("")
            ))
        } else {
            None
        };
        if let Some(what) = alloc {
            out.push(finding(
                src,
                "H001",
                line,
                format!("{what} inside hot-path fn `{owner}` (allocation-free dispatch loop)"),
            ));
        }
    }
}

/// The H001 hot-set names that `src` defines no `fn` for. A renamed or
/// deleted hot function would otherwise drop out of the allocation check
/// without a word. The workspace pass runs this in strict mode; the
/// per-file rules cannot, because their fixtures impersonate the hot files
/// with partial sources.
pub(crate) fn stale_hot_fns(src: &SourceFile) -> Vec<&'static str> {
    let Some(hot) = hot_fns(&src.path) else {
        return Vec::new();
    };
    let defines = |name: &str| {
        src.tokens
            .windows(2)
            .any(|w| w[0].0.is_ident("fn") && w[1].0.is_ident(name))
    };
    hot.iter().copied().filter(|name| !defines(name)).collect()
}

/// H002: `#[cfg(feature = "trace")]` / `"audit"` gates fork the compiled
/// hot path; each site must be a declared observation point so traced and
/// untraced builds provably dispatch the same schedule.
fn h002_feature_gate(src: &SourceFile, out: &mut Vec<Finding>) {
    if H002_ALLOW.iter().any(|a| src.path.ends_with(a)) {
        return;
    }
    let toks = &src.tokens;
    for i in 0..toks.len() {
        if !toks[i].0.is_ident("feature") {
            continue;
        }
        let gated = toks.get(i + 1).is_some_and(|(t, _)| t.is_punct('='))
            && toks
                .get(i + 2)
                .is_some_and(|(t, _)| t.is_str("trace") || t.is_str("audit"));
        if !gated {
            continue;
        }
        let near_cfg = toks[i.saturating_sub(4)..i]
            .iter()
            .any(|(t, _)| t.is_ident("cfg") || t.is_ident("cfg_attr"));
        if near_cfg {
            let feat = match &toks[i + 2].0 {
                Tok::Str(s) => s.clone(),
                _ => String::new(),
            };
            out.push(finding(
                src,
                "H002",
                toks[i].1,
                format!(
                    "cfg(feature = \"{feat}\") outside the allowlisted observation sites; \
                     add the site to vip-lint's H002 allowlist deliberately or move the hook"
                ),
            ));
        }
    }
}

/// Finds the struct body token range of `pub struct SystemReport {...}`.
/// Returns (open_index, close_index) of the braces, exclusive of nested
/// content handling (the caller walks with a depth counter).
fn struct_body(src: &SourceFile, name: &str) -> Option<(usize, usize)> {
    let toks = &src.tokens;
    for i in 0..toks.len() {
        if toks[i].0.is_ident("struct") && toks.get(i + 1).is_some_and(|(t, _)| t.is_ident(name)) {
            let open = (i + 2..toks.len()).find(|&j| toks[j].0.is_punct('{'))?;
            let mut depth = 0usize;
            for (j, (tok, _)) in toks.iter().enumerate().skip(open) {
                if tok.is_punct('{') {
                    depth += 1;
                } else if tok.is_punct('}') {
                    depth -= 1;
                    if depth == 0 {
                        return Some((open, j));
                    }
                }
            }
        }
    }
    None
}

/// Collects `self.<field>` references inside `fn digest`'s body.
fn digest_body_refs(src: &SourceFile) -> Option<Vec<String>> {
    let toks = &src.tokens;
    let mut i = 0;
    while i + 1 < toks.len() {
        if toks[i].0.is_ident("fn") && toks[i + 1].0.is_ident("digest") {
            let open = (i + 2..toks.len()).find(|&j| toks[j].0.is_punct('{'))?;
            let mut depth = 0usize;
            let mut refs = Vec::new();
            for (j, (tok, _)) in toks.iter().enumerate().skip(open) {
                match tok {
                    Tok::Punct('{') => depth += 1,
                    Tok::Punct('}') => {
                        depth -= 1;
                        if depth == 0 {
                            return Some(refs);
                        }
                    }
                    Tok::Ident(s)
                        if s == "self" && toks.get(j + 1).is_some_and(|(t, _)| t.is_punct('.')) =>
                    {
                        if let Some(Tok::Ident(field)) = toks.get(j + 2).map(|(t, _)| t.clone()) {
                            refs.push(field);
                        }
                    }
                    _ => {}
                }
            }
            return Some(refs);
        }
        i += 1;
    }
    None
}

/// G001 + G002: every `SystemReport` field carries an explicit
/// `// digest: included|excluded` marker (G001), and the marker agrees
/// with whether `digest()` actually hashes the field (G002). The golden
/// table is only as trustworthy as this mapping.
fn g001_g002_digest_markers(src: &SourceFile, out: &mut Vec<Finding>) {
    let Some((open, close)) = struct_body(src, "SystemReport") else {
        return;
    };
    let toks = &src.tokens;
    // Fields: `pub <name> :` at struct-body depth 1.
    let mut depth = 0usize;
    let mut fields: Vec<(String, usize)> = Vec::new();
    for j in open..=close {
        match &toks[j].0 {
            Tok::Punct('{') => depth += 1,
            Tok::Punct('}') => depth -= 1,
            Tok::Ident(s) if s == "pub" && depth == 1 => {
                if let (Some((Tok::Ident(name), line)), Some((t2, _))) =
                    (toks.get(j + 1), toks.get(j + 2))
                {
                    if t2.is_punct(':') {
                        fields.push((name.clone(), *line));
                    }
                }
            }
            _ => {}
        }
    }

    let digest_refs = digest_body_refs(src);
    for (name, line) in &fields {
        let raw = src.line(*line);
        let marker = if raw.contains("// digest: included") {
            Some(true)
        } else if raw.contains("// digest: excluded") {
            Some(false)
        } else {
            None
        };
        match marker {
            None => out.push(finding(
                src,
                "G001",
                *line,
                format!(
                    "SystemReport field `{name}` has no `// digest: included|excluded` marker; \
                     every field must declare its golden-digest status"
                ),
            )),
            Some(included) => {
                if let Some(refs) = &digest_refs {
                    let hashed = refs.iter().any(|r| r == name);
                    if included && !hashed {
                        out.push(finding(
                            src,
                            "G002",
                            *line,
                            format!(
                                "field `{name}` is marked `digest: included` but digest() never \
                                 reads self.{name}"
                            ),
                        ));
                    } else if !included && hashed {
                        out.push(finding(
                            src,
                            "G002",
                            *line,
                            format!(
                                "field `{name}` is marked `digest: excluded` but digest() hashes \
                                 self.{name} — changing it would silently break the golden table"
                            ),
                        ));
                    }
                }
            }
        }
    }
}

/// U001: every `unsafe` block documents its proof obligation with a
/// `// SAFETY:` comment on the same line or the comment block above.
fn u001_unsafe_safety(src: &SourceFile, out: &mut Vec<Finding>) {
    for (tok, line) in &src.tokens {
        if !tok.is_ident("unsafe") {
            continue;
        }
        let mut ok = src.line(*line).contains("SAFETY:");
        // Walk the contiguous comment block immediately above.
        let mut l = line.saturating_sub(1);
        while !ok && l >= 1 {
            let trimmed = src.line(l).trim_start();
            if trimmed.starts_with("//") {
                ok = trimmed.contains("SAFETY:");
                l -= 1;
            } else {
                break;
            }
        }
        if !ok {
            out.push(finding(
                src,
                "U001",
                *line,
                "`unsafe` without a `// SAFETY:` comment justifying the invariant".to_string(),
            ));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lint_at(path: &str, src: &str) -> Vec<Finding> {
        apply_all(&SourceFile::parse(path, src))
    }

    #[test]
    fn sim_scope_rules_skip_non_sim_crates() {
        let src = "use std::time::Instant;\nuse std::collections::HashMap;\n";
        assert!(lint_at("crates/bench/src/bin/simulate.rs", src).is_empty());
        assert!(!lint_at("crates/core/src/sim.rs", src).is_empty());
    }

    #[test]
    fn d001_allows_the_hash_module() {
        let src = "pub type FxHashMap<K, V> = std::collections::HashMap<K, V, FxBuildHasher>;\n";
        assert!(lint_at("crates/desim/src/hash.rs", src).is_empty());
        assert_eq!(lint_at("crates/desim/src/rng.rs", src)[0].rule, "D001");
    }

    #[test]
    fn d002_ignores_unrelated_instant_identifiers() {
        // A local enum variant named `Instant` is not a wall-clock read.
        let src = "let kind = EventKind::Instant { track, name };\nmatch k { EventKind::Instant { .. } => {} }\n";
        assert!(lint_at("crates/core/src/telem.rs", src).is_empty());
        // But all the real wall-clock shapes are.
        for bad in [
            "use std::time::Instant;",
            "use std::time::{Duration, SystemTime};",
            "let t = std::time::Instant::now();",
            "let t = Instant::now();",
            "let t = SystemTime::now();",
        ] {
            assert_eq!(
                lint_at("crates/core/src/sim.rs", bad)[0].rule,
                "D002",
                "{bad}"
            );
        }
    }

    #[test]
    fn fx_wrappers_are_not_flagged() {
        let src = "use desim::{FxHashMap, FxHashSet};\nlet m: FxHashMap<u64, u64> = FxHashMap::default();\n";
        assert!(lint_at("crates/core/src/sim.rs", src).is_empty());
    }

    #[test]
    fn h001_only_fires_inside_hot_fns() {
        let hot = "impl X { fn pop(&mut self) { let v = Vec::new(); } }";
        let cold = "impl X { fn build_report(&mut self) { let v = Vec::new(); } }";
        let f = lint_at("crates/desim/src/engine.rs", hot);
        assert_eq!(f.len(), 1, "{f:?}");
        assert_eq!(f[0].rule, "H001");
        assert!(lint_at("crates/desim/src/engine.rs", cold).is_empty());
        // Same code outside a hot file is fine.
        assert!(lint_at("crates/soc/src/ip.rs", hot).is_empty());
    }

    #[test]
    fn h001_tracks_nested_functions() {
        // A cold helper nested inside a hot fn body is still hot code.
        let src = "impl X { fn handle(&mut self) { fn helper() {} let s = format!(\"x\"); } }";
        let f = lint_at("crates/core/src/sim.rs", src);
        assert_eq!(f.len(), 1, "{f:?}");
    }

    #[test]
    fn h002_flags_stray_trace_gates() {
        let src = "#[cfg(feature = \"trace\")]\nfn observe() {}\n";
        let f = lint_at("crates/soc/src/ip.rs", src);
        assert_eq!(f.len(), 1);
        assert_eq!(f[0].rule, "H002");
        assert!(lint_at("crates/core/src/telem.rs", src).is_empty());
        // Other feature names are fine anywhere.
        let other = "#[cfg(feature = \"extra\")]\nfn observe() {}\n";
        assert!(lint_at("crates/soc/src/ip.rs", other).is_empty());
    }

    #[test]
    fn u001_accepts_same_line_and_block_above() {
        let same = "let x = unsafe { p.read() }; // SAFETY: p is valid\n";
        let above = "// SAFETY: p came from a live Vec\n// and stays in bounds.\nlet x = unsafe { p.read() };\n";
        let none = "let x = unsafe { p.read() };\n";
        assert!(lint_at("crates/telemetry/src/sink.rs", same).is_empty());
        assert!(lint_at("crates/telemetry/src/sink.rs", above).is_empty());
        assert_eq!(
            lint_at("crates/telemetry/src/sink.rs", none)[0].rule,
            "U001"
        );
    }

    #[test]
    fn g_rules_require_struct_and_digest() {
        let src = "pub struct SystemReport { pub a: u64, // digest: included\n}\n\
                   impl SystemReport { pub fn digest(&self) { h(self.a); } }";
        assert!(lint_at("crates/core/src/metrics.rs", src).is_empty());
        let missing = "pub struct SystemReport { pub a: u64,\n}\n\
                       impl SystemReport { pub fn digest(&self) { h(self.a); } }";
        assert_eq!(
            lint_at("crates/core/src/metrics.rs", missing)[0].rule,
            "G001"
        );
        let wrong = "pub struct SystemReport { pub a: u64, // digest: excluded\n}\n\
                     impl SystemReport { pub fn digest(&self) { h(self.a); } }";
        assert_eq!(lint_at("crates/core/src/metrics.rs", wrong)[0].rule, "G002");
    }
}
