#!/usr/bin/env python3
"""Run the tick ledger over many seeds and summarise each metric.

Run from the root of a checkout:

    python3 tickledger/spread.py --seeds 1-10 [--workload NAME ...] [--json OUT]

For every workload (all of BENCHMARK.json's by default) and seed, runs
`run.py --trace 0` once with BENCHMARK.json's run_seconds, one run at a
time. Prints, per workload and end-to-end metric, the median, the first
and third quartiles (`statistics.quantiles(values, n=4)`) and the spread
(third minus first quartile, as a share of the median) next to the
metric's bound. `--json` also writes every value. Exits non-zero when a
run fails.
"""

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def seeds(text):
    out = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        out.extend(range(int(lo), int(hi or lo) + 1))
    return out


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=seeds, required=True, help="e.g. 1-10 or 3,5,8")
    parser.add_argument("--workload", action="append", help="default: every workload")
    parser.add_argument("--json", help="write every value to this file")
    args = parser.parse_args()

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = args.workload or [w["name"] for w in spec["workloads"]]
    values = {w: {} for w in workloads}
    ok = True
    for w in workloads:
        for seed in args.seeds:
            t0 = time.monotonic()
            proc = subprocess.run(
                [sys.executable, str(ROOT / "tickledger" / "run.py"), "--workload", w,
                 "--seed", str(seed), "--seconds", str(spec["run_seconds"]), "--trace", "0"],
                cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True)
            lines = proc.stdout.strip().splitlines()
            result = json.loads(lines[-1]) if lines else {"correct": False, "metrics": {}}
            wall = time.monotonic() - t0
            print(f"{w} seed {seed}: exit {proc.returncode}, correct {result['correct']}, "
                  f"{wall:.1f} s", flush=True)
            ok &= proc.returncode == 0 and result["correct"]
            for name, m in result["metrics"].items():
                values[w].setdefault(name, []).append(m["value"])

    for w in workloads:
        print(f"\n{w}")
        print(f"  {'metric':<22} {'median':>12} {'q1':>12} {'q3':>12} {'spread':>7} {'bound':>6}")
        for m in spec["end_to_end"]:
            v = values[w].get(m["name"], [])
            if len(v) < 2:
                continue
            q1, _, q3 = statistics.quantiles(v, n=4)
            med = statistics.median(v)
            print(f"  {m['name']:<22} {med:>12.5g} {q1:>12.5g} {q3:>12.5g} "
                  f"{(q3 - q1) / med:>7.3f} {m['bound']:>6}")
    if args.json:
        Path(args.json).write_text(json.dumps({"seeds": args.seeds, "values": values}, indent=1))
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
