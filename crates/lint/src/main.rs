//! `vip-lint` — run the workspace lint pass.
//!
//! ```text
//! vip-lint [--strict] [--json] [--root PATH]
//! ```
//!
//! Exit codes: 0 clean, 1 findings (or, with `--strict`, stale/unknown
//! `lint:allow` escapes or stale H001 hot-set names), 2 usage or I/O
//! error.

#![deny(unsafe_code)]

use std::path::PathBuf;
use std::process::ExitCode;

fn main() -> ExitCode {
    let mut strict = false;
    let mut json = false;
    let mut root: Option<PathBuf> = None;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--strict" => strict = true,
            "--json" => json = true,
            "--root" => match args.next() {
                Some(p) => root = Some(PathBuf::from(p)),
                None => {
                    eprintln!("vip-lint: --root requires a path");
                    return ExitCode::from(2);
                }
            },
            "--help" | "-h" => {
                println!("usage: vip-lint [--strict] [--json] [--root PATH]");
                return ExitCode::SUCCESS;
            }
            other => {
                eprintln!("vip-lint: unknown argument '{other}'");
                return ExitCode::from(2);
            }
        }
    }

    let root = match root {
        Some(r) => r,
        None => {
            let cwd = std::env::current_dir().unwrap_or_else(|_| PathBuf::from("."));
            match vip_lint::find_workspace_root(&cwd) {
                Some(r) => r,
                None => {
                    eprintln!("vip-lint: no workspace root found above {}", cwd.display());
                    return ExitCode::from(2);
                }
            }
        }
    };

    let report = match vip_lint::lint_workspace(&root) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("vip-lint: {e}");
            return ExitCode::from(2);
        }
    };

    if json {
        print!("{}", report.to_json());
    } else {
        print!("{}", report.render(strict));
        let stale = report.stale_allows().count();
        let suppressed = report.allows.iter().filter(|a| a.used).count();
        println!(
            "vip-lint: {} file(s), {} finding(s), {} suppressed, {} stale allow(s){}",
            report.files_scanned,
            report.findings.len(),
            suppressed,
            stale,
            if strict { " [strict]" } else { "" }
        );
    }

    if report.is_clean(strict) {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
