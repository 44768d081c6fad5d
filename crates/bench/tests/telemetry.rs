//! End-to-end checks of the telemetry surface exposed by the `simulate`
//! binary: the unified metrics snapshot (always available) and the
//! Chrome-trace export (behind the `trace` feature).

use std::io::Write as _;
use std::process::{Command, Stdio};

/// A minimal but real two-stage flow: bitstream -> VD -> DC.
const SPEC: &str = "\
flow video fps=30 src=62500
stage VD out=3110400
stage DC out=0
";

fn run_simulate(args: &[&str]) -> std::process::Output {
    let mut child = Command::new(env!("CARGO_BIN_EXE_simulate"))
        .args(args)
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn simulate");
    child
        .stdin
        .as_mut()
        .expect("stdin")
        .write_all(SPEC.as_bytes())
        .expect("write spec");
    child.wait_with_output().expect("simulate exits")
}

/// Hash of the `--metrics` file that `simulate --scheme vip --ms 200`
/// writes for [`SPEC`] (see [`bytes_digest`]). Pins the snapshot byte for
/// byte: names, order, number formatting and every value. Regenerate it
/// only when a change is *supposed* to alter the metrics output, and say
/// so in the commit.
const METRICS_DIGEST: u64 = 0x5d42d42ee7d6db36;

/// Length-prefixed FxHash of a byte string, like the golden digest table.
fn bytes_digest(bytes: &[u8]) -> u64 {
    use std::hash::Hasher as _;
    let mut h = desim::hash::FxHasher::default();
    h.write_u64(bytes.len() as u64);
    h.write(bytes);
    h.finish()
}

#[test]
fn metrics_flag_writes_a_parseable_snapshot() {
    let dir = std::env::temp_dir();
    let path = dir.join(format!("vip-metrics-{}.json", std::process::id()));
    let path_s = path.to_str().expect("utf8 tmp path");

    let out = run_simulate(&["--scheme", "vip", "--ms", "200", "--metrics", path_s]);
    assert!(
        out.status.success(),
        "simulate failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );

    let text = std::fs::read_to_string(&path).expect("metrics file written");
    std::fs::remove_file(&path).ok();
    assert_eq!(
        bytes_digest(text.as_bytes()),
        METRICS_DIGEST,
        "--metrics bytes changed (got {:#018x}):\n{text}",
        bytes_digest(text.as_bytes())
    );
    let doc = telemetry::json::parse(&text).expect("metrics JSON parses");

    let counters = doc.get("counters").expect("counters object");
    let completed = counters
        .get("frames.completed")
        .and_then(|v| v.as_f64())
        .expect("frames.completed counter");
    assert!(completed > 0.0, "no frames completed: {text}");

    // The flow-time distribution summary carries the run's real extremes
    // around its percentiles.
    let hist = doc
        .get("histograms")
        .and_then(|h| h.get("flow_time_ns"))
        .expect("flow_time_ns summary");
    let [min, p50, p95, p99, max] =
        ["min", "p50", "p95", "p99", "max"].map(|k| hist.get(k).and_then(|v| v.as_f64()).expect(k));
    assert!(
        min > 0.0 && min <= p50 && p50 <= p95 && p95 <= p99 && p99 <= max,
        "{text}"
    );
}

/// Unparsable, zero or overflowing horizons exit 2 with a usage error
/// instead of silently running some other horizon; `campaign` also
/// rejects zero workers, and fails before it creates its journal.
#[test]
fn bad_ms_flag_is_a_usage_error() {
    for ms in ["abc", "0", "18446744073710"] {
        let out = run_simulate(&["--scheme", "vip", "--ms", ms]);
        assert_eq!(out.status.code(), Some(2), "--ms {ms} was accepted");
        let err = String::from_utf8_lossy(&out.stderr);
        assert!(err.contains("--ms"), "unhelpful error for --ms {ms}: {err}");
    }
    let tmp = std::env::temp_dir().join(format!("vip-bad-flag-{}", std::process::id()));
    let (journal, agg) = (tmp.with_extension("ndjson"), tmp.with_extension("json"));
    for [flag, value] in [
        ["--ms", "18446744073710"],
        ["--ms", "abc"],
        ["--workers", "0"],
    ] {
        let out = Command::new(env!("CARGO_BIN_EXE_campaign"))
            .args(["--cells", "2", flag, value])
            .args(["--out".as_ref(), journal.as_os_str()])
            .args(["--aggregate".as_ref(), agg.as_os_str()])
            .output()
            .expect("campaign exits");
        assert_eq!(out.status.code(), Some(2), "{flag} {value} accepted");
        let err = String::from_utf8_lossy(&out.stderr);
        assert!(err.contains(flag), "{flag} {value}: {err}");
        assert!(!journal.exists(), "{flag} {value} created the journal");
    }
}

#[cfg(feature = "trace")]
#[test]
fn trace_flag_emits_valid_chrome_trace_json() {
    let dir = std::env::temp_dir();
    let path = dir.join(format!("vip-trace-{}.json", std::process::id()));
    let path_s = path.to_str().expect("utf8 tmp path");

    // A bounded ring keeps the exported file small enough to parse quickly
    // in a debug-build test; the capacity still holds thousands of events.
    let out = run_simulate(&[
        "--scheme",
        "vip",
        "--ms",
        "200",
        "--trace",
        path_s,
        "--trace-capacity",
        "65536",
    ]);
    assert!(
        out.status.success(),
        "simulate --trace failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );

    let text = std::fs::read_to_string(&path).expect("trace file written");
    std::fs::remove_file(&path).ok();
    let summary = telemetry::validate_chrome_trace(&text).expect("valid chrome trace-event JSON");
    assert!(summary.spans > 0, "no spans in trace");
    assert!(summary.counters > 0, "no counter samples in trace");
    assert!(summary.metadata > 0, "no track-name metadata in trace");

    // Spot-check naming: the VD lane and a DRAM channel must be labeled.
    assert!(text.contains("\"VD lane 0\""), "missing VD lane track");
    assert!(text.contains("\"channel 0\""), "missing DRAM channel track");
    assert!(text.contains("\"video\""), "missing flow track");
}

#[cfg(not(feature = "trace"))]
#[test]
fn trace_flag_without_feature_fails_with_guidance() {
    let out = run_simulate(&[
        "--scheme",
        "vip",
        "--ms",
        "50",
        "--trace",
        "/tmp/never.json",
    ]);
    assert!(!out.status.success(), "--trace must be rejected");
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("--features trace"), "unhelpful error: {err}");
}
