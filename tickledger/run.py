#!/usr/bin/env python3
"""Tick ledger: the gamedb workspace's end-to-end and per-layer benchmark.

Run from the root of a checkout:

    python3 tickledger/run.py --workload scripted_combat --seed 1 --seconds 20 --trace 0

Builds the `tickledger` package (release, offline) into $CARGO_TARGET_DIR
(default `.bench_build`), then runs one workload in its own process.

--trace 0  prints every end-to-end metric named in BENCHMARK.json,
           measured with tracing off.
--trace 1  runs the same inputs twice, each in its own process: untraced
           first, then traced for exactly as many ticks. It checks that
           both end in the same world state (row digest) and prints every
           per-layer metric, with the tracing overhead as the traced minus
           the untraced median tick time.

Human-readable lines come first; the last stdout line is one JSON object
with the keys correct, attempted, failed and metrics. The exit code is 0
only when every output check passed.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
WORKLOADS = ("scripted_combat", "shard_churn", "query_mix")
# Both workload processes of a run must end within this many seconds
# after the build, well inside the 180 s a run may take.
RUN_BUDGET_S = 170


def fail(msg):
    print(f"tickledger: {msg}", file=sys.stderr)
    sys.exit(1)


def build(target_dir):
    env = dict(os.environ, CARGO_TARGET_DIR=str(target_dir))
    cmd = ["cargo", "build", "--release", "--offline", "--quiet",
           "--manifest-path", str(BENCH_DIR / "Cargo.toml")]
    proc = subprocess.run(cmd, env=env, stdout=sys.stderr, stderr=sys.stderr)
    if proc.returncode != 0:
        fail("build failed")
    binary = target_dir / "release" / "tickledger"
    if not binary.is_file():
        fail(f"no binary at {binary}")
    return binary


def run_workload(binary, data_dir, args, deadline, traced, ticks=None):
    """Run one workload process; returns (report dict, human lines)."""
    cmd = [str(binary), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", "1" if traced else "0",
           "--data-dir", str(data_dir)]
    if ticks is not None:
        cmd += ["--ticks", str(ticks)]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=sys.stderr,
                              text=True, timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        fail(f"{args.workload} did not finish within {RUN_BUDGET_S} s")
    lines = proc.stdout.strip().splitlines()
    if not lines:
        fail(f"{args.workload} printed nothing (exit {proc.returncode})")
    try:
        report = json.loads(lines[-1])
    except json.JSONDecodeError:
        fail(f"{args.workload} ended without a report line (exit {proc.returncode})")
    if proc.returncode != 0 and report.get("correct", False):
        fail(f"{args.workload} exited {proc.returncode}")
    return report, lines[:-1]


def select(report, specs, checks):
    out = {}
    for spec in specs:
        got = report["metrics"].get(spec["name"])
        if got is None:
            checks.append(f"metric {spec['name']} missing")
            continue
        out[spec["name"]] = {"value": got["value"], "unit": spec["unit"]}
    return out


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    bench_json = ROOT / "BENCHMARK.json"
    if not (ROOT / "Cargo.toml").is_file() or not (ROOT / "crates").is_dir():
        fail(f"{ROOT} holds no gamedb workspace to build")
    spec = json.loads(bench_json.read_text())
    target_dir = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build")).resolve()
    binary = build(target_dir)
    deadline = time.monotonic() + RUN_BUDGET_S

    data_dir = target_dir / "tickledger-runs" / f"{args.workload}-{args.seed}-{os.getpid()}"
    spans_dir = target_dir / "tickledger-spans"
    checks = []
    try:
        untraced, lines = run_workload(binary, data_dir, args, deadline, traced=False)
        for line in lines:
            print(line)
        reports = [untraced]
        if args.trace:
            traced, lines = run_workload(binary, data_dir, args, deadline, traced=True,
                                         ticks=untraced["ticks"])
            for line in lines:
                print(f"[traced] {line}")
            reports.append(traced)
            if traced["digest"] != untraced["digest"]:
                checks.append("traced run ended in a different world state")
            overhead = (traced["metrics"]["tick.traced_p50_ms"]["value"]
                        - untraced["metrics"]["tick_p50_ms"]["value"])
            traced["metrics"]["tick.trace_overhead_ms"] = {"value": overhead, "unit": "ms"}
            metrics = select(traced, spec["per_layer"], checks)
            spans_dir.mkdir(parents=True, exist_ok=True)
            for tsv in data_dir.glob("*.spans.tsv"):
                shutil.copy(tsv, spans_dir / f"{args.workload}-seed{args.seed}.spans.tsv")
        else:
            metrics = select(untraced, spec["end_to_end"], checks)
    finally:
        shutil.rmtree(data_dir, ignore_errors=True)

    for msg in checks:
        print(f"CHECK FAILED: {msg}", file=sys.stderr)
    correct = all(r["correct"] for r in reports) and not checks
    result = {
        "correct": correct,
        "attempted": sum(r["attempted"] for r in reports),
        "failed": sum(r["failed"] for r in reports),
        "metrics": metrics,
    }
    print(json.dumps(result))
    sys.exit(0 if correct else 1)


if __name__ == "__main__":
    main()
