//! # vip-lint — repo-specific correctness lints for the VIP workspace
//!
//! The simulator's value rests on properties the compiler cannot check:
//! bit-identical determinism (the golden digest table), an allocation-free
//! engine hot path, and a frozen report digest. This crate enforces those
//! properties as lint rules over the simulation crates (`desim`, `core`,
//! `soc`, `dram`, `workloads`), working at the line/token level — the
//! offline build container has no `syn` and no clippy plugin support, so
//! the analysis is a hand-rolled Rust tokenizer plus rule passes.
//!
//! ## Rule catalogue
//!
//! | ID   | Class        | What it forbids |
//! |------|--------------|-----------------|
//! | D001 | determinism  | `std::collections::HashMap`/`HashSet` (SipHash is process-keyed; iteration order varies run to run) outside `desim::hash` |
//! | D002 | determinism  | wall-clock reads (`Instant`, `SystemTime`) outside `crates/bench` |
//! | D003 | determinism  | mutable global state (`static mut`, `thread_local!`) |
//! | H001 | hot path     | allocation (`Vec::new`, `Box::new`, `format!`, …) inside the engine dispatch loop and `SystemSim` dispatch scratch paths |
//! | H002 | hot path     | `#[cfg(feature = "trace"/"audit")]` gates outside the allowlisted observation sites |
//! | G001 | digest       | a `SystemReport` field without a `// digest: included\|excluded` marker |
//! | G002 | digest       | a digest marker inconsistent with the `digest()` body |
//! | U001 | safety       | an `unsafe` block without a `// SAFETY:` comment |
//!
//! Escape hatch: a `// lint:allow(RULE)` comment on the offending line or
//! the line above suppresses one rule at that site. `--strict` mode
//! additionally rejects stale allows (ones that suppressed nothing),
//! allows naming unknown rules, and H001 hot-set names that their file no
//! longer defines.
//!
//! Diagnostics are emitted as human-readable text and, with `--json`, as
//! machine-readable JSON built on the `telemetry::json` emitter helpers.

#![deny(unsafe_code)]

use std::fmt;
use std::path::{Path, PathBuf};

pub mod rules;
pub mod tokenizer;

pub use rules::{Finding, RULE_IDS};
pub use tokenizer::{SourceFile, Tok};

/// One `// lint:allow(RULE)` escape found in a file.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Allow {
    /// Rule id named by the escape (may be unknown — strict mode checks).
    pub rule: String,
    /// File the escape lives in (workspace-relative).
    pub file: String,
    /// 1-based line of the escape comment.
    pub line: usize,
    /// Whether the escape suppressed at least one finding.
    pub used: bool,
}

/// The result of linting a set of sources.
#[derive(Debug, Default)]
pub struct LintReport {
    /// Surviving findings (after `lint:allow` suppression), in file/line
    /// order.
    pub findings: Vec<Finding>,
    /// Every escape encountered, with use tracking for stale detection.
    pub allows: Vec<Allow>,
    /// Files scanned.
    pub files_scanned: usize,
    /// `(file, name)` for every H001 hot-set name its file does not
    /// define; strict mode rejects them.
    pub stale_hot_fns: Vec<(String, &'static str)>,
}

impl LintReport {
    /// Escapes that suppressed nothing (a stale allow hides nothing and
    /// should be deleted before it masks a future regression).
    pub fn stale_allows(&self) -> impl Iterator<Item = &Allow> {
        self.allows.iter().filter(|a| !a.used)
    }

    /// Escapes naming a rule id this linter does not implement.
    pub fn unknown_rule_allows(&self) -> impl Iterator<Item = &Allow> {
        self.allows
            .iter()
            .filter(|a| !RULE_IDS.contains(&a.rule.as_str()))
    }

    /// Whether the lint pass passes under the given strictness.
    pub fn is_clean(&self, strict: bool) -> bool {
        self.findings.is_empty()
            && (!strict
                || (self.stale_allows().count() == 0
                    && self.unknown_rule_allows().count() == 0
                    && self.stale_hot_fns.is_empty()))
    }

    /// Renders the report as human-readable diagnostics, one per line.
    pub fn render(&self, strict: bool) -> String {
        let mut out = String::new();
        for f in &self.findings {
            out.push_str(&format!("{f}\n"));
        }
        if strict {
            for a in self.stale_allows() {
                out.push_str(&format!(
                    "{}:{}: strict: stale lint:allow({}) suppressed nothing\n",
                    a.file, a.line, a.rule
                ));
            }
            for a in self.unknown_rule_allows() {
                out.push_str(&format!(
                    "{}:{}: strict: lint:allow names unknown rule '{}'\n",
                    a.file, a.line, a.rule
                ));
            }
            for (file, name) in &self.stale_hot_fns {
                out.push_str(&format!(
                    "{file}: strict: H001 hot set names `{name}`, which this file does not define\n"
                ));
            }
        }
        out
    }

    /// Renders the report as a JSON document (`telemetry::json`-emitter
    /// string escaping, parseable by `telemetry::json::parse`).
    pub fn to_json(&self) -> String {
        use telemetry::json::escape;
        let mut out = String::from("{\n  \"findings\": [");
        for (i, f) in self.findings.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "\n    {{\"rule\": \"{}\", \"file\": \"{}\", \"line\": {}, \"message\": \"{}\"}}",
                escape(f.rule),
                escape(&f.file),
                f.line,
                escape(&f.message)
            ));
        }
        if !self.findings.is_empty() {
            out.push_str("\n  ");
        }
        out.push_str(&format!(
            "],\n  \"files_scanned\": {},\n  \"count\": {}\n}}\n",
            self.files_scanned,
            self.findings.len()
        ));
        out
    }
}

impl fmt::Display for LintReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.render(false))
    }
}

/// Lints one source text as if it lived at `rel_path` (workspace-relative,
/// `/`-separated). Returns surviving findings plus the escapes seen.
///
/// This is the core entry point; [`lint_workspace`] maps it over the
/// on-disk tree, and the fixture tests call it directly with synthetic
/// paths to exercise path-scoped rules.
pub fn lint_source(rel_path: &str, text: &str) -> (Vec<Finding>, Vec<Allow>) {
    let src = SourceFile::parse(rel_path, text);
    let mut findings = rules::apply_all(&src);
    findings.sort_by(|a, b| (a.line, a.rule).cmp(&(b.line, b.rule)));

    // Collect escapes and suppress findings they cover. An escape on line
    // N covers findings on line N (trailing comment) and line N+1
    // (preceding comment line).
    let mut allows: Vec<Allow> = Vec::new();
    for (idx, raw) in src.lines.iter().enumerate() {
        let line = idx + 1;
        let mut rest = raw.as_str();
        while let Some(pos) = rest.find("lint:allow(") {
            let tail = &rest[pos + "lint:allow(".len()..];
            if let Some(close) = tail.find(')') {
                allows.push(Allow {
                    rule: tail[..close].trim().to_string(),
                    file: rel_path.to_string(),
                    line,
                    used: false,
                });
                rest = &tail[close..];
            } else {
                break;
            }
        }
    }
    findings.retain(|f| {
        for a in allows.iter_mut() {
            if a.rule == f.rule && (a.line == f.line || a.line + 1 == f.line) {
                a.used = true;
                return false;
            }
        }
        true
    });
    (findings, allows)
}

/// The crates whose sources carry the determinism/hot-path/digest rules.
pub const SIM_CRATES: [&str; 5] = [
    "crates/desim",
    "crates/core",
    "crates/soc",
    "crates/dram",
    "crates/workloads",
];

/// Additional roots scanned for the safety rule (U001) only. The lint
/// crate itself is deliberately absent: its sources and tests spell out
/// the allow-escape and rule patterns as literals (which would read as
/// stale escapes), and it is covered by `#![deny(unsafe_code)]` instead.
pub const EXTRA_ROOTS: [&str; 4] = ["crates/telemetry", "crates/cacti", "crates/bench", "src"];

/// Recursively collects `.rs` files under `dir`, skipping fixture corpora
/// (intentional violations) and build output.
fn collect_rs_files(dir: &Path, out: &mut Vec<PathBuf>) {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return;
    };
    let mut entries: Vec<_> = entries.flatten().map(|e| e.path()).collect();
    entries.sort();
    for path in entries {
        let name = path.file_name().and_then(|n| n.to_str()).unwrap_or("");
        if path.is_dir() {
            if name == "fixtures" || name == "target" {
                continue;
            }
            collect_rs_files(&path, out);
        } else if name.ends_with(".rs") {
            out.push(path);
        }
    }
}

/// Lints the workspace rooted at `root` (the directory holding the
/// top-level `Cargo.toml`). Scans the sim crates with every rule and the
/// remaining crates with the safety rule, and checks the H001 hot set
/// against the files it names (a missing file leaves every name stale).
pub fn lint_workspace(root: &Path) -> std::io::Result<LintReport> {
    let mut report = LintReport::default();
    let mut files: Vec<PathBuf> = Vec::new();
    for rel in SIM_CRATES.iter().chain(EXTRA_ROOTS.iter()) {
        collect_rs_files(&root.join(rel), &mut files);
    }
    files.sort();
    files.dedup();
    for path in files {
        let rel = path
            .strip_prefix(root)
            .unwrap_or(&path)
            .to_string_lossy()
            .replace('\\', "/");
        let text = std::fs::read_to_string(&path)?;
        let (findings, allows) = lint_source(&rel, &text);
        report.findings.extend(findings);
        report.allows.extend(allows);
        report.files_scanned += 1;
    }
    for &(rel, _) in &rules::H001_HOT_FNS {
        let text = std::fs::read_to_string(root.join(rel)).unwrap_or_default();
        let stale = rules::stale_hot_fns(&SourceFile::parse(rel, &text));
        report
            .stale_hot_fns
            .extend(stale.into_iter().map(|name| (rel.to_string(), name)));
    }
    Ok(report)
}

/// Walks upward from `start` to the directory whose `Cargo.toml` declares
/// `[workspace]`.
pub fn find_workspace_root(start: &Path) -> Option<PathBuf> {
    let mut dir = start.to_path_buf();
    loop {
        let manifest = dir.join("Cargo.toml");
        if let Ok(text) = std::fs::read_to_string(&manifest) {
            if text.contains("[workspace]") {
                return Some(dir);
            }
        }
        if !dir.pop() {
            return None;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn allow_escape_suppresses_and_is_marked_used() {
        let src = "use std::collections::HashMap; // lint:allow(D001)\n";
        let (findings, allows) = lint_source("crates/core/src/x.rs", src);
        assert!(findings.is_empty(), "{findings:?}");
        assert_eq!(allows.len(), 1);
        assert!(allows[0].used);
    }

    #[test]
    fn allow_on_preceding_line_suppresses() {
        let src = "// lint:allow(D001)\nuse std::collections::HashMap;\n";
        let (findings, allows) = lint_source("crates/core/src/x.rs", src);
        assert!(findings.is_empty(), "{findings:?}");
        assert!(allows[0].used);
    }

    #[test]
    fn stale_allow_is_reported_in_strict_mode() {
        let (findings, allows) = lint_source("crates/core/src/x.rs", "// lint:allow(D001)\n");
        let report = LintReport {
            findings,
            allows,
            files_scanned: 1,
            ..LintReport::default()
        };
        assert!(report.is_clean(false));
        assert!(!report.is_clean(true), "stale allow must fail strict mode");
    }

    #[test]
    fn unknown_rule_allow_fails_strict() {
        let (findings, allows) = lint_source(
            "crates/core/src/x.rs",
            "use std::collections::HashMap; // lint:allow(D999)\n",
        );
        let report = LintReport {
            findings,
            allows,
            files_scanned: 1,
            ..LintReport::default()
        };
        assert!(!report.findings.is_empty(), "D999 must not suppress D001");
        assert!(!report.is_clean(true));
    }

    #[test]
    fn stale_hot_fn_name_fails_strict() {
        // `mapping.rs`'s hot set is `place` and `visit_bursts`; this source
        // defines only the first.
        let src = SourceFile::parse("crates/dram/src/mapping.rs", "fn place() {}\n");
        let stale = rules::stale_hot_fns(&src);
        assert_eq!(stale, vec!["visit_bursts"]);
        let report = LintReport {
            stale_hot_fns: vec![(src.path.clone(), stale[0])],
            ..LintReport::default()
        };
        assert!(report.is_clean(false));
        assert!(
            !report.is_clean(true),
            "stale hot-set name must fail strict mode"
        );
        assert!(report.render(true).contains("`visit_bursts`"));
    }

    #[test]
    fn json_output_is_parseable() {
        let (findings, allows) = lint_source(
            "crates/core/src/x.rs",
            "use std::collections::HashMap;\nuse std::time::Instant;\n",
        );
        let report = LintReport {
            findings,
            allows,
            files_scanned: 1,
            ..LintReport::default()
        };
        let doc = telemetry::json::parse(&report.to_json()).expect("valid JSON");
        let arr = doc.get("findings").and_then(|f| f.as_arr()).expect("array");
        assert_eq!(arr.len(), 2);
        assert_eq!(
            arr[0].get("rule").and_then(|r| r.as_str()),
            Some("D001"),
            "{doc:?}"
        );
        assert_eq!(doc.get("count").and_then(|c| c.as_f64()), Some(2.0));
    }

    #[test]
    fn workspace_root_is_found_from_this_crate() {
        let here = Path::new(env!("CARGO_MANIFEST_DIR"));
        let root = find_workspace_root(here).expect("workspace root");
        assert!(root.join("crates/desim").is_dir());
    }
}
