#!/usr/bin/env python3
"""Steadiness check: the evidence for the bounds in BENCHMARK.json.

    python3 fcperf/steady.py [--runs 10] [--sets 1] [--workloads a,b]

Runs every workload --runs times, each with another seed and for
BENCHMARK.json's run_seconds, through fcperf/run.py, and prints for
each end-to-end metric its median, first and third quartile (Python's
statistics.quantiles(values, n=4)), the quartile spread as a share of
the median, and the metric's bound. A spread above the bound is marked
and makes the check fail; the benchmark aims for spreads below a third
of the bound. With --sets 2 a second set of runs with its own seeds is
taken alternately with the first (run i of set 1, then run i of set 2),
so that slow drift of the host falls on both sets alike, and each
metric's second median is compared with the first against the bound.
The failed share of every run is printed too; it must be identical
across runs. Run it from the repository root.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run_once(workload, seed, seconds):
    out = subprocess.run(
        [sys.executable, str(ROOT / "fcperf" / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, stdout=subprocess.PIPE, text=True, check=True)
    return json.loads(out.stdout.strip().splitlines()[-1])


def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--sets", type=int, default=1)
    ap.add_argument("--workloads", default=",".join(w["name"] for w in bench["workloads"]))
    args = ap.parse_args()

    bounds = {m["name"]: m for m in bench["end_to_end"]}
    ok = True
    seed = 1
    for workload in args.workloads.split(","):
        sets = [[] for _ in range(args.sets)]
        for _ in range(args.runs):
            for runs in sets:
                runs.append(run_once(workload, seed, bench["run_seconds"]))
                seed += 1
        medians = []
        for s, runs in enumerate(sets):
            shares = sorted({r["failed"] / r["attempted"] for r in runs})
            correct = all(r["correct"] for r in runs)
            ok &= correct and len(shares) == 1
            print(f"\n{workload} set {s + 1}: {args.runs} runs, correct={correct}, "
                  f"failed shares {shares}, attempted {[r['attempted'] for r in runs]}")
            print(f"  {'metric':18} {'median':>14} {'q1':>14} {'q3':>14} {'spread':>8} {'bound':>6}")
            med = {}
            for name, m in bounds.items():
                values = [r["metrics"][name]["value"] for r in runs]
                q1, q2, q3 = statistics.quantiles(values, n=4)
                spread = (q3 - q1) / q2
                med[name] = q2
                flag = ""
                if spread > m["bound"]:
                    flag = "  OVER BOUND"
                    ok = False
                elif spread > m["bound"] / 3:
                    flag = "  above bound/3"
                print(f"  {name:18} {q2:14.4f} {q1:14.4f} {q3:14.4f} {spread:8.4f} {m['bound']:6.2f}{flag}")
            medians.append(med)
        for s in range(1, len(medians)):
            for name, m in bounds.items():
                a, b = medians[0][name], medians[s][name]
                worse = (b - a) / a if m["better"] == "lower" else (a - b) / a
                flag = "  WORSE THAN BOUND" if worse > m["bound"] else ""
                ok &= not flag
                print(f"  set {s + 1} vs set 1 {name:18} {worse:+.4f} (bound {m['bound']}){flag}")
    print("\nsteady" if ok else "\nNOT steady")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
