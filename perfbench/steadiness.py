#!/usr/bin/env python3
"""Steadiness report: run the benchmark twice over the same seeds.

Usage (from the repository root)::

    python3 perfbench/steadiness.py --seeds 10

For every workload in ``BENCHMARK.json``, each of two sets runs the
benchmark command once per seed (seeds 1..N, ``--trace 0``,
``run_seconds`` from ``BENCHMARK.json``).
For each end-to-end metric the report prints, per set, the median, the
first and third quartiles (``statistics.quantiles(values, n=4)``) and the
spread ``(q3 - q1) / median``; then the spread against the metric's
bound, and how far the second set's median moved from the first's, also
against the bound.  Raw results go to ``.perfbench_out/steadiness.json``.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
import time
from pathlib import Path
from statistics import median, quantiles

ROOT = Path(__file__).resolve().parents[1]

#: Sets of runs over the same seeds; the second set's medians are compared
#: with the first's.
SETS = 2


def run_once(command, workload, seed, seconds):
    cmd = list(command) + ["--workload", workload, "--seed", str(seed),
                           "--seconds", str(seconds), "--trace", "0"]
    t0 = time.perf_counter()
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=180)
    wall = time.perf_counter() - t0
    if proc.returncode != 0:
        raise SystemExit(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr}")
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    if not result["correct"]:
        raise SystemExit(f"{workload} seed {seed}: incorrect outputs")
    result["log"] = lines[:-1]
    return result, wall


def summarize(values):
    q1, _, q3 = quantiles(values, n=4)
    med = median(values)
    return med, q1, q3, (q3 - q1) / med if med else float("inf")


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seeds", type=int, default=10)
    args = ap.parse_args()
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in bench["workloads"]]
    metrics = bench["end_to_end"]
    out_dir = ROOT / ".perfbench_out"
    out_dir.mkdir(exist_ok=True)
    raw = {}
    worst = (0.0, "", "")
    for name in names:
        sets = []
        for s in range(SETS):
            runs = []
            for seed in range(1, args.seeds + 1):
                result, wall = run_once(bench["command"], name, seed,
                                        bench["run_seconds"])
                runs.append({"seed": seed, "wall_s": wall, **result})
                print(f"{name} set {s + 1} seed {seed}: {wall:.1f} s", flush=True)
            sets.append(runs)
        raw[name] = sets
        (out_dir / "steadiness.json").write_text(json.dumps(raw, indent=1))
        print(f"\n== {name} ==")
        print(f"{'metric':<26} {'set':>3} {'median':>12} {'q1':>12} {'q3':>12} "
              f"{'spread':>7} {'bound':>6} {'spread/bound':>12}")
        for m in metrics:
            medians = []
            for s, runs in enumerate(sets):
                vals = [r["metrics"][m["name"]]["value"] for r in runs]
                med, q1, q3, spread = summarize(vals)
                medians.append(med)
                ratio = spread / m["bound"]
                worst = max(worst, (ratio, name, m["name"]))
                print(f"{m['name']:<26} {s + 1:>3} {med:>12.6g} {q1:>12.6g} "
                      f"{q3:>12.6g} {spread:>7.3f} {m['bound']:>6.2f} {ratio:>12.2f}")
            sign = 1 if m["better"] == "lower" else -1
            worse = sign * (medians[1] - medians[0]) / medians[0]
            print(f"{'':<26} second median vs first: {worse:+.3f} worse "
                  f"(bound {m['bound']:.2f}, {worse / m['bound']:+.2f} of it)")
    print(f"\nlargest spread/bound: {worst[0]:.2f} ({worst[1]} {worst[2]})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
