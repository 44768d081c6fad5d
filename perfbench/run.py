#!/usr/bin/env python3
"""Builds and runs the VIP simulator benchmark for one workload.

    python3 perfbench/run.py --workload matrix --seed 7 --seconds 10 --trace 0

Run from the repository root. Builds two binaries of the `perfbench`
package: the measuring build, and a counting build with vip-core's
`trace` feature in a target directory of its own, so the feature never
reaches the measuring build. `--trace 0` prints the end-to-end metrics;
`--trace 1` prints the per-layer metrics, merging in the per-event-kind
dispatch counts of the counting build. The last stdout line is one JSON
object: {"correct", "attempted", "failed", "metrics"}. The metric names
are those `BENCHMARK.json` lists. Build or run failures exit non-zero
without printing a result.
"""

import argparse
import json
import os
import re
import subprocess
import sys
import tomllib

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("matrix", "campaign", "serve")
# Counts both builds report; they must agree exactly.
SHARED_COUNTS = (
    "desim.events",
    "dram.bytes",
    "soc.sa_bytes",
    "soc.interrupts",
    "soc.ctx_switches",
    "core.frames_sourced",
    "core.frames_completed",
)


def toml_key(part):
    return part if re.fullmatch(r"[A-Za-z0-9_-]+", part) else json.dumps(part)


def toml_value(v):
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, (int, float)):
        return str(v)
    return json.dumps(v)


def profile_flags(root):
    """The root manifest's [profile.release] as cargo --config flags, so the
    benchmark is built as the repository builds its release binaries."""
    with open(os.path.join(root, "Cargo.toml"), "rb") as f:
        release = tomllib.load(f).get("profile", {}).get("release", {})
    flags = []

    def walk(keys, table):
        for k, v in table.items():
            if isinstance(v, dict):
                walk(keys + [k], v)
            else:
                dotted = ".".join(toml_key(p) for p in keys + [k])
                flags.extend(["--config", f"profile.release.{dotted}={toml_value(v)}"])

    walk([], release)
    return flags


def build(root, target, features):
    cmd = [
        "cargo", "build", "--release", "--offline", "--quiet",
        "--manifest-path", os.path.join(HERE, "Cargo.toml"),
        "--target-dir", target,
    ] + features + profile_flags(root)
    subprocess.run(cmd, check=True, stdout=sys.stderr)
    return os.path.join(target, "release", "perfbench")


def run(cmd):
    """Runs one benchmark binary, echoes its report, returns its result."""
    proc = subprocess.run(cmd, check=True, stdout=subprocess.PIPE, text=True, timeout=900)
    lines = proc.stdout.rstrip("\n").split("\n")
    print("\n".join(lines[:-1]), flush=True)
    return json.loads(lines[-1])


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=int)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    root = os.getcwd()
    with open(os.path.join(root, "BENCHMARK.json")) as f:
        spec = json.load(f)
    target = os.path.abspath(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    measuring = build(root, target, [])
    counting = build(root, os.path.join(target, "trace"), ["--features", "trace"])

    base = [args.workload, "--seed", str(args.seed), "--seconds", str(args.seconds)]
    if args.trace:
        spans = os.path.join(target, "spans", f"{args.workload}-{args.seed}.ndjson")
        result = run([measuring] + base + ["--trace", "--spans", spans])
        counts = run([counting, "counts"] + base)
        for name in SHARED_COUNTS:
            if counts["metrics"][name]["value"] != result["metrics"][name]["value"]:
                print(f"NONDETERMINISM: {name} differs between the replay and the counting build")
                result["correct"] = False
                result["failed"] += 1
        result["metrics"].update(counts["metrics"])
        names = [m["name"] for m in spec["per_layer"]]
    else:
        result = run([measuring] + base)
        names = [m["name"] for m in spec["end_to_end"]]

    metrics = result["metrics"]
    missing = [n for n in names if n not in metrics]
    if missing:
        sys.exit(f"perfbench: not measured: {', '.join(missing)}")
    result["metrics"] = {n: metrics[n] for n in names}
    print(json.dumps(result))


if __name__ == "__main__":
    try:
        main()
    except (subprocess.CalledProcessError, subprocess.TimeoutExpired, OSError) as e:
        sys.exit(f"perfbench: {e}")
