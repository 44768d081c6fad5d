//! Run a custom workload file on the simulated platform.
//!
//! ```text
//! simulate --file my.flows --scheme vip --ms 500
//! simulate --file my.flows --scheme baseline --device nexus7 --timeline
//! simulate --file my.flows --metrics metrics.json
//! simulate --file my.flows --trace trace.json   # needs --features trace
//! simulate --file my.flows --audit              # needs --features audit
//! echo 'flow v fps=30 src=62500\nstage VD out=3110400\nstage DC out=0' | simulate --scheme vip
//! simulate --serve < requests.ndjson            # what-if service (see vip_bench::serve)
//! simulate --serve --smoke                      # CI self-check
//! ```
//!
//! `--metrics` writes the unified metrics snapshot (counters, rates,
//! energy accounts, flow-time percentiles) as JSON. `--trace` writes a
//! Chrome-trace-event JSON timeline loadable in <https://ui.perfetto.dev>;
//! it requires the `trace` cargo feature, which is off by default so the
//! measured binary stays on the zero-cost path. `--audit` runs the
//! incremental runtime sanitizer (event-time monotonicity, buffer
//! occupancy, EDF order, frame conservation) and prints its check
//! summary; it requires the `audit` cargo feature, off by default for the
//! same reason, and never changes the simulation result.
//!
//! The file format is documented in `workloads::specfile`.

use std::io::Read as _;

use vip_core::{Device, Scheme, SystemSim};

fn scheme_by_name(s: &str) -> Option<Scheme> {
    match s.to_ascii_lowercase().as_str() {
        "baseline" => Some(Scheme::Baseline),
        "frameburst" | "fb" => Some(Scheme::FrameBurst),
        "iptoip" | "ip-to-ip" | "chained" => Some(Scheme::IpToIp),
        "iptoipburst" | "ip-to-ip-fb" => Some(Scheme::IpToIpBurst),
        "vip" => Some(Scheme::Vip),
        _ => None,
    }
}

fn device_by_name(s: &str) -> Option<Device> {
    match s.to_ascii_lowercase().as_str() {
        "nexus7" => Some(Device::Nexus7),
        "memopad8" => Some(Device::MemoPad8),
        "galaxys4" | "s4" => Some(Device::GalaxyS4),
        "galaxys5" | "s5" => Some(Device::GalaxyS5),
        "table3" => Some(Device::Table3),
        _ => None,
    }
}

/// Runs with the sanitizer armed and prints its check summary on stderr.
#[cfg(feature = "audit")]
fn run_with_audit(
    cfg: vip_core::SystemConfig,
    flows: Vec<vip_core::FlowSpec>,
) -> (vip_core::SystemReport, Vec<vip_core::FlowTrace>) {
    let mut cell = vip_core::SimCell::new(cfg, flows);
    let out = cell.runner().audited().run();
    eprint!("{}", out.audit.expect("audited run"));
    (out.report, Vec::new())
}

/// Placeholder so the call site compiles; `--audit` bails before reaching
/// it when the feature is off.
#[cfg(not(feature = "audit"))]
fn run_with_audit(
    _cfg: vip_core::SystemConfig,
    _flows: Vec<vip_core::FlowSpec>,
) -> (vip_core::SystemReport, Vec<vip_core::FlowTrace>) {
    unreachable!("--audit is rejected without the audit feature")
}

fn main() {
    let args = vip_bench::cli::Args::from_env(
        "usage: simulate [--file <path>] [--scheme baseline|fb|chained|vip] \
         [--device nexus7|memopad8|s4|s5|table3] [--ms N] [--timeline] \
         [--metrics <out.json>] [--trace <out.json>] [--trace-capacity N] [--audit]\n\
         \x20      simulate --serve [--workers N] [--cache N] [--queue N]  \
         # what-if service on stdin/stdout\n\
         \x20      simulate --serve --smoke                                \
         # CI self-check, exit 0/1",
    );

    if args.has("--serve") {
        if args.has("--smoke") {
            std::process::exit(vip_bench::serve::smoke());
        }
        let defaults = vip_bench::ServeOptions::default();
        let opts = vip_bench::ServeOptions {
            workers: args.num("--workers", defaults.workers),
            cache: args.num("--cache", defaults.cache),
            queue: args.num("--queue", defaults.queue),
        };
        let stdin = std::io::stdin();
        let mut stdout = std::io::stdout();
        match vip_bench::Server::new(opts).run(stdin.lock(), &mut stdout) {
            Ok(stats) => {
                eprintln!(
                    "serve: {} ok / {} err, {} cache hits / {} misses",
                    stats.ok, stats.errors, stats.hits, stats.misses
                );
                std::process::exit(0);
            }
            Err(e) => {
                eprintln!("serve: I/O failed: {e}");
                std::process::exit(1);
            }
        }
    }

    let text = match args.get("--file") {
        Some(path) => std::fs::read_to_string(&path)
            .unwrap_or_else(|e| args.bail(&format!("cannot read {path}: {e}"))),
        None => {
            let mut buf = String::new();
            std::io::stdin()
                .read_to_string(&mut buf)
                .unwrap_or_else(|e| args.bail(&format!("cannot read stdin: {e}")));
            buf
        }
    };
    let flows = workloads::parse_specfile(&text)
        .unwrap_or_else(|e| args.bail(&format!("workload parse error: {e}")));

    let scheme = args.get("--scheme").map_or(Scheme::Vip, |s| {
        scheme_by_name(&s).unwrap_or_else(|| args.bail(&format!("unknown scheme '{s}'")))
    });
    let device = args.get("--device").map_or(Device::Table3, |d| {
        device_by_name(&d).unwrap_or_else(|| args.bail(&format!("unknown device '{d}'")))
    });
    let ms = args.ms("--ms", 500);
    let mut cfg = device.config(scheme);
    cfg.duration = desim::SimDelta::from_ms(ms);

    let trace_out = args.get("--trace");
    #[cfg(not(feature = "trace"))]
    if trace_out.is_some() {
        args.bail(
            "--trace requires the `trace` feature: \
             cargo run -p vip-bench --features trace --bin simulate -- ...",
        );
    }

    let audit_on = args.has("--audit");
    #[cfg(not(feature = "audit"))]
    if audit_on {
        args.bail(
            "--audit requires the `audit` feature: \
             cargo run -p vip-bench --features audit --bin simulate -- ...",
        );
    }
    if audit_on && trace_out.is_some() {
        args.bail("--audit and --trace are mutually exclusive; pick one observer per run");
    }

    #[cfg(feature = "trace")]
    let (report, traces) = if let Some(path) = &trace_out {
        let capacity = args.num("--trace-capacity", 1 << 20);
        let mut cell = vip_core::SimCell::new(cfg, flows);
        let out = cell.runner().traced(capacity).run();
        let (report, session) = (out.report, out.trace.expect("traced run"));
        std::fs::write(path, session.export_chrome_json())
            .unwrap_or_else(|e| args.bail(&format!("cannot write {path}: {e}")));
        eprintln!(
            "trace: {} events kept of {} recorded ({} engine dispatches) -> {path} \
             (open in https://ui.perfetto.dev)",
            session.len(),
            session.events_written(),
            session.engine_dispatches(),
        );
        (report, Vec::new())
    } else if audit_on {
        run_with_audit(cfg, flows)
    } else {
        SystemSim::run_detailed(cfg, flows)
    };
    #[cfg(not(feature = "trace"))]
    let (report, traces) = if audit_on {
        run_with_audit(cfg, flows)
    } else {
        SystemSim::run_detailed(cfg, flows)
    };

    if let Some(path) = args.get("--metrics") {
        std::fs::write(&path, report.metrics().to_json())
            .unwrap_or_else(|e| args.bail(&format!("cannot write {path}: {e}")));
    }

    println!(
        "{} on {} for {} ms: {} flows, {} frames sourced, {} completed, \
         {} violated, {} dropped at source",
        scheme.label(),
        device.name(),
        ms,
        report.flows.len(),
        report.frames_sourced,
        report.frames_completed,
        report.frames_violated,
        report.frames_dropped_at_source,
    );
    println!(
        "energy {:.3} mJ/frame ({}); {:.1} interrupts/100ms; DRAM {:.2} GB/s avg; \
         flow time avg {:.2} ms / p50 {:.2} / p95 {:.2} / p99 {:.2} ms",
        report.energy_per_frame_mj(),
        report.energy,
        report.irq_per_100ms(),
        report.mem_avg_gbps,
        report.avg_flow_time.as_ms(),
        report.p50_flow_time.as_ms(),
        report.p95_flow_time.as_ms(),
        report.p99_flow_time.as_ms(),
    );
    for f in &report.flows {
        println!(
            "  {:<20} {:>4} frames  {:>5.1}% violated  flow {:>7.2} ms (p95 {:>7.2})",
            f.name,
            f.frames_sourced,
            f.violation_rate() * 100.0,
            f.avg_flow_time.as_ms(),
            f.p95_flow_time.as_ms(),
        );
    }
    if args.has("--timeline") {
        println!();
        for t in &traces {
            print!("{}", t.render(12));
        }
        if traces.is_empty() {
            eprintln!("note: --timeline is unavailable in the same run as --trace or --audit");
        }
    }
}
