#!/usr/bin/env python3
"""Regenerates the reference figures in fcperf/README.md.

    python3 fcperf/figures.py

Runs every workload once untraced and once traced with seed 1, for
BENCHMARK.json's run_seconds, through fcperf/run.py and prints: each
run's checks and notes (modeled figures, success rates, gaps to the
paper, device match rates, counts), the per-layer metrics of the traced
runs, and the tracing overhead as the traced run's end-to-end figures
against the untraced ones. Run it from the repository root.
"""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SEED = 1
# Every workload the benchmark runs, including the two that
# BENCHMARK.json leaves out for their run-to-run spread.
WORKLOADS = ["fleet-sweep", "serve-batch", "device-exec", "daemon-replay"]


def run(workload, seconds, trace):
    out = subprocess.run(
        [sys.executable, str(ROOT / "fcperf" / "run.py"), "--workload", workload,
         "--seed", str(SEED), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, stdout=subprocess.PIPE, text=True, check=True).stdout.strip().splitlines()
    return out[:-1], json.loads(out[-1])


def e2e(lines):
    """The run's throughput, p50 and p90, from its `e2e {...}` line."""
    figures = json.loads(next(l for l in lines if l.startswith("e2e "))[4:])
    return [figures[k] for k in ("throughput_per_s", "latency_p50_us", "latency_p90_us")]


def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    overhead = []
    for w in WORKLOADS:
        plain_lines, plain = run(w, bench["run_seconds"], 0)
        traced_lines, traced = run(w, bench["run_seconds"], 1)
        print(f"\n== {w} (seed {SEED}) correct={plain['correct'] and traced['correct']} "
              f"attempted={plain['attempted']} failed={plain['failed']}")
        for l in plain_lines:
            print("  " + l)
        for name, m in plain["metrics"].items():
            print(f"  e2e   {name} = {m['value']:.4f} {m['unit']}")
        for l in traced_lines:
            if l.startswith("layer "):
                print("  " + l)
        overhead.append((w, e2e(plain_lines), e2e(traced_lines)))
    print("\n== tracing overhead (traced / untraced, same seed)")
    print(f"  {'workload':14} {'throughput':>22} {'p50 us':>22} {'p90 us':>22}")
    for w, a, b in overhead:
        cells = [f"{x:.1f}->{y:.1f} ({y / x:.2f}x)" for x, y in zip(a, b)]
        print(f"  {w:14} " + " ".join(f"{c:>22}" for c in cells))
    return 0


if __name__ == "__main__":
    sys.exit(main())
