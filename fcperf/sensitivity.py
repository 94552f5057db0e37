#!/usr/bin/env python3
"""Sensitivity record: does each layer's delay show where the README says?

    python3 fcperf/sensitivity.py --copy DIR [--layers a,b] [--workloads a,b]
                                  [--pairs 3]

For every layer, a throwaway copy of the working tree under DIR (never
inside the repository) gets a fixed busy-wait delay at the top of one
of that layer's public functions. The benchmark is built from the
unpatched copy and from each patched copy, and every workload runs
--pairs times on each for SECONDS, alternating unpatched and patched
runs with the same seed (SEED_BASE, SEED_BASE + 1, ...). For each
workload and end-to-end metric the script prints
the patched median's change against the unpatched median, marks
changes beyond the metric's bound in BENCHMARK.json, and compares them
with the prediction: the README-named metric moves beyond its bound on
its workload, and the workloads the layer does not reach stay within
bounds. Run it from the repository root.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
# Shorter than BENCHMARK.json's run_seconds: each delay is large
# against the noise, and a full record is 96 pairs of runs.
SECONDS = 8
SEED_BASE = 100
# Every workload the benchmark runs, including the two that
# BENCHMARK.json leaves out for their run-to-run spread: the layers
# they stress are named on them.
WORKLOADS = ["fleet-sweep", "serve-batch", "device-exec", "daemon-replay"]

# layer: (file, function anchor, delay µs, named (workload, metric),
#         workloads whose every metric must stay within bounds)
LAYERS = {
    "dram-core/fcdram": ("crates/core/src/mapping.rs", "    pub fn discover(", 30000,
                         ("fleet-sweep", "latency_p50_us"), ["serve-batch", "daemon-replay"]),
    "bender": ("crates/bender/src/executor.rs", "    pub fn execute(&mut self, chip: ChipId", 20,
               ("device-exec", "throughput_per_s"), ["serve-batch", "daemon-replay"]),
    "characterize": ("crates/characterize/src/sweep.rs", "pub fn chip_sweep(", 30000,
                     ("fleet-sweep", "throughput_per_s"), ["serve-batch", "device-exec", "daemon-replay"]),
    "fcexec": ("crates/exec/src/prepared.rs", "pub fn run_prepared<B: ExecBackend>(", 60,
               ("device-exec", "throughput_per_s"), ["fleet-sweep", "serve-batch", "daemon-replay"]),
    "fcsynth": ("crates/synth/src/lib.rs", "pub fn compile(text: &str", 300,
                ("serve-batch", "latency_p50_us"), ["fleet-sweep"]),
    "fcsched": ("crates/sched/src/planner.rs", "    pub fn plan(&self, batch: &Batch)", 2000,
                ("serve-batch", "latency_p50_us"), ["fleet-sweep", "device-exec"]),
    "fcserve": ("crates/serve/src/daemon.rs", "    pub fn step(&mut self, tick: usize", 300,
                ("daemon-replay", "throughput_per_s"), ["fleet-sweep", "serve-batch", "device-exec"]),
    "fcobs": ("crates/obs/src/chrome.rs", "pub fn to_chrome(", 15000,
              ("daemon-replay", "latency_p50_us"), ["fleet-sweep", "serve-batch", "device-exec"]),
}


def copy_tree(dst: Path):
    # Fresh modification times on every copy: cargo decides what to
    # rebuild by mtime, and a file restored with its original mtime
    # after the previous layer's patch would keep that patch compiled in.
    files = subprocess.run(["git", "ls-files", "-co", "--exclude-standard"], cwd=ROOT,
                           stdout=subprocess.PIPE, text=True, check=True).stdout.split()
    for f in files:
        src = ROOT / f
        if src.is_file():
            (dst / f).parent.mkdir(parents=True, exist_ok=True)
            shutil.copy(src, dst / f)


def patch(tree: Path, file: str, anchor: str, delay_us: int):
    path = tree / file
    lines = path.read_text().splitlines(keepends=True)
    start = next(i for i, l in enumerate(lines) if l.startswith(anchor))
    body = next(i for i in range(start, len(lines)) if lines[i].rstrip().endswith("{"))
    spin = ("        { let t0 = std::time::Instant::now(); "
            f"while t0.elapsed() < std::time::Duration::from_micros({delay_us}) "
            "{ std::hint::spin_loop(); } }\n")
    lines.insert(body + 1, spin)
    path.write_text("".join(lines))


def build(tree: Path, target: Path) -> Path:
    subprocess.run(["cargo", "build", "--release", "--offline", "--quiet",
                    "--manifest-path", str(tree / "fcperf" / "Cargo.toml")],
                   env={**os.environ, "CARGO_TARGET_DIR": str(target)}, check=True)
    return target / "release" / "fcperf"


def run(binary: Path, cwd: Path, workload: str, seed: int, seconds: float):
    out = subprocess.run([str(binary), "--workload", workload, "--seed", str(seed),
                          "--seconds", str(seconds), "--trace", "0"],
                         cwd=cwd, stdout=subprocess.PIPE, text=True, check=True)
    res = json.loads(out.stdout.strip().splitlines()[-1])
    return {k: v["value"] for k, v in res["metrics"].items()}


def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--copy", required=True, type=Path)
    ap.add_argument("--layers", default=",".join(LAYERS))
    ap.add_argument("--workloads", default=",".join(WORKLOADS))
    ap.add_argument("--pairs", type=int, default=3)
    args = ap.parse_args()
    copy = args.copy.resolve()
    if ROOT in copy.parents or copy == ROOT:
        sys.exit("--copy must be outside the repository")
    bounds = {m["name"]: m for m in bench["end_to_end"]}
    workloads = args.workloads.split(",")

    base_tree = copy / "base"
    shutil.rmtree(base_tree, ignore_errors=True)
    copy_tree(base_tree)
    base_bin = copy / "fcperf-base"
    shutil.copy2(build(base_tree, copy / "target"), base_bin)

    all_ok = True
    for layer in args.layers.split(","):
        file, anchor, delay, (named_w, named_m), unchanged = LAYERS[layer]
        tree = copy / "patched"
        shutil.rmtree(tree, ignore_errors=True)
        copy_tree(tree)
        patch(tree, file, anchor, delay)
        patched_bin = copy / "fcperf-patched"
        shutil.copy2(build(tree, copy / "target"), patched_bin)
        print(f"\n== {layer}: +{delay} us busy-wait in {file} `{anchor.strip()}`")
        for w in workloads:
            base, pat = [], []
            for i in range(args.pairs):
                seed = SEED_BASE + i
                base.append(run(base_bin, base_tree, w, seed, SECONDS))
                pat.append(run(patched_bin, base_tree, w, seed, SECONDS))
            cells = []
            for name, m in bounds.items():
                a = statistics.median(r[name] for r in base)
                b = statistics.median(r[name] for r in pat)
                worse = (b - a) / a if m["better"] == "lower" else (a - b) / a
                beyond = worse > m["bound"]
                mark = "*" if beyond else ""
                cells.append(f"{name} {worse:+.3f}{mark}")
                if w == named_w and name == named_m and not beyond:
                    all_ok = False
                    cells[-1] += " (NAMED, NOT MOVED)"
                if w in unchanged and abs(worse) > m["bound"]:
                    all_ok = False
                    cells[-1] += " (PREDICTED UNCHANGED)"
            role = "named" if w == named_w else ("unchanged" if w in unchanged else "may move")
            print(f"  {w:14} [{role:9}] " + ", ".join(cells))
    print("\nall predictions held" if all_ok else "\nsome predictions failed")
    return 0 if all_ok else 1


if __name__ == "__main__":
    sys.exit(main())
