"""Self-test of the benchmark: deterministic inputs and repeatable traces.

Usage, from the repository root::

    python3 bench/selftest.py

Checks, for every workload:

* one seed gives byte-identical input files;
* two seeds give the same number of patches, edges and vertices, the same
  degrees and orientations, and the same cycle of operations;
* every join the inputs claim to be smooth closes to rounding (G0 gap and
  normal angle from the benchmark's own evaluation);
* two traced runs with one seed give identical ``.calls`` counts and
  ``cli.vertex_found_ratio``.

Finally it copies ``BENCHMARK.json`` and ``bench/`` alone into a scratch
directory and checks that the benchmark refuses to run there.  Exits 1 if
any check fails.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import checks
import geom
import inputs

ROOT = Path(__file__).resolve().parent.parent
SCRATCH = ROOT / "bench-out" / "selftest"
TRACE_SECONDS = "6"


def shape_of(pool):
    files = {}
    for name, path in pool.files.items():
        doc = json.loads(path.read_text())
        files[name] = (sorted((p["degree_u"], p["degree_v"]) for p in doc["patches"]),
                       len(doc["edges"]))
    ops = [(op.kind, op.metric, len(op.expect.get("vertices") or ())) for op in pool.cycle]
    return {"files": files, "ops": ops, **pool.shape}


def smooth_joins_close(pool):
    """Largest G0 gap and normal angle over the joins built to be smooth."""
    worst = [0.0, 0.0]
    for op in pool.cycle:
        rows = op.expect.get("rows")
        if not rows:
            continue
        nets = checks.doc_nets(json.loads(Path(op.argv[1]).read_text()))
        for a, sa, b, sb, rev, ok in rows:
            if ok:
                gap, angle = geom.edge_joint(nets[a], sa, nets[b], sb, rev)
                worst = [max(worst[0], gap), max(worst[1], angle)]
    return worst


def traced(workload, seed):
    proc = subprocess.run(
        [sys.executable, str(ROOT / "bench" / "run.py"), "--workload", workload, "--seed",
         str(seed), "--seconds", TRACE_SECONDS, "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=180, check=True)
    metrics = json.loads(proc.stdout.strip().splitlines()[-1])["metrics"]
    return {k: v["value"] for k, v in metrics.items()
            if k.endswith(".calls") or k == "cli.vertex_found_ratio"}, metrics


def main():
    failures = []

    def expect(cond, what):
        print(f"{'ok  ' if cond else 'FAIL'} {what}", flush=True)
        if not cond:
            failures.append(what)

    shutil.rmtree(SCRATCH, ignore_errors=True)
    for workload in inputs.WORKLOADS:
        a = inputs.build(workload, 1, SCRATCH / f"{workload}-1a")
        b = inputs.build(workload, 1, SCRATCH / f"{workload}-1b")
        c = inputs.build(workload, 2, SCRATCH / f"{workload}-2")
        same = all(a.files[n].read_bytes() == b.files[n].read_bytes() for n in a.files)
        expect(same and a.files.keys() == b.files.keys(),
               f"{workload}: seed 1 twice gives byte-identical inputs ({len(a.files)} files)")
        expect(any(a.files[n].read_bytes() != c.files[n].read_bytes() for n in a.files),
               f"{workload}: seeds 1 and 2 give different geometry")
        expect(shape_of(a) == shape_of(c),
               f"{workload}: seeds 1 and 2 give the same counts, degrees and orientations")
        for pool, seed in ((a, 1), (c, 2)):
            gap, angle = smooth_joins_close(pool)
            expect(gap < 1e-12 and angle < 1e-9,
                   f"{workload} seed {seed}: smooth joins close (gap {gap:.1e}, angle {angle:.1e})")

    for workload in inputs.WORKLOADS:
        first, metrics = traced(workload, 3)
        second, _ = traced(workload, 3)
        expect(first == second, f"{workload}: two traced runs give identical counts "
                                f"({len(first)} values, overhead "
                                f"{metrics['trace.overhead_frac']['value']:.3f})")
        expect(first["cli.vertex_found_ratio"] == 1.0, f"{workload}: all vertices found")

    bare = SCRATCH / "bare"
    shutil.copytree(ROOT / "bench", bare / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    proc = subprocess.run([sys.executable, "bench/run.py", "--workload", "grid-smooth", "--seed",
                           "1", "--seconds", "2", "--trace", "0"],
                          cwd=bare, capture_output=True, text=True, timeout=180)
    expect(proc.returncode != 0 and not proc.stdout.strip(),
           f"without the program the benchmark exits {proc.returncode} and prints no result")
    shutil.rmtree(SCRATCH, ignore_errors=True)
    print(f"{len(failures)} check(s) failed" if failures else "all checks passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
