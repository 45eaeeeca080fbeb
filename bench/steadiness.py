"""Run the benchmark on several seeds and report each metric's spread.

Usage, from the repository root::

    python3 bench/steadiness.py --runs 10 [--first-seed 1]

Runs ``bench/run.py --trace 0`` once per seed and workload, one run at a
time, and prints for every workload and metric the median, the quartiles
(``statistics.quantiles`` with n=4) and the spread: the distance between the
quartiles over the median.
Each spread should stay below a third of the metric's bound in
``BENCHMARK.json``.  The table goes to standard output as Markdown and, with
every run's values, to ``bench-out/steadiness.json``.
"""

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

import inputs

ROOT = Path(__file__).resolve().parent.parent


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    args = parser.parse_args()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"]}
    record = {}
    print("| workload | metric | median | Q1 | Q3 | spread | bound/3 |")
    print("| --- | --- | --- | --- | --- | --- | --- |")
    for workload in inputs.WORKLOADS:
        runs = []
        for seed in range(args.first_seed, args.first_seed + args.runs):
            cmd = [sys.executable, str(ROOT / "bench" / "run.py"), "--workload", workload,
                   "--seed", str(seed), "--seconds", str(spec["run_seconds"]),
                   "--trace", "0"]
            t0 = time.perf_counter()
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=180,
                                  check=True)
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            runs.append({"seed": seed, "wall_s": time.perf_counter() - t0,
                         "correct": result["correct"],
                         "attempted": result["attempted"], "failed": result["failed"],
                         **{k: v["value"] for k, v in result["metrics"].items()}})
            print(proc.stderr.strip().splitlines()[0], file=sys.stderr, flush=True)
        record[workload] = runs
        for metric in runs[0]:
            if metric in ("seed", "wall_s", "correct", "attempted", "failed"):
                continue
            values = [r[metric] for r in runs]
            q1, med, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / med if med else float("nan")
            third = f"{bounds[metric] / 3:.3f}" if bounds.get(metric) else "-"
            print(f"| {workload} | {metric} | {med:.6g} | {q1:.6g} | {q3:.6g} | "
                  f"{spread:.3f} | {third} |", flush=True)
    out = ROOT / "bench-out" / "steadiness.json"
    out.parent.mkdir(exist_ok=True)
    out.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")


if __name__ == "__main__":
    main()
