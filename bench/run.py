"""Per-command latency of smoothpatch's CLI over many short operations.

Usage, from the repository root::

    python3 bench/run.py --workload grid-smooth --seed 1 --seconds 55 --trace 0

One process runs one closed-loop client: each operation calls
``smoothpatch.cli.main(argv)`` in-process on documents generated from the
seed, and the next starts when the last returns.  Outputs are checked after
each operation, outside the timed region.  Workloads repeat a fixed cycle of
operations (see ``inputs``) until the time is up.  After the last cycle,
``check-g1`` runs once on each constructed document, untimed and not counted
in ``attempted``, to report the known defect named in ``checks``.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` alternates
untraced and traced cycles and reports per-layer metrics from spans around
the program's public functions (see ``tracing``), plus the tracing overhead.
The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; details, samples and
spans go to ``bench-out/``.  Notes and measured noise floor: ``NOTES.md``.
"""

import os

# One BLAS thread: set before numpy is first imported.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import gc  # noqa: E402
import importlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from dataclasses import dataclass, field  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

import checks  # noqa: E402
import inputs  # noqa: E402
import tracing  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / "bench-out"

# End-to-end latencies are 90th percentiles.  This host switches between a
# fast and a slow state about 1.4x apart, so a run's median lands in either
# state; the 90th percentile stays in the slow one whenever at least 10% of
# a run is slow (see NOTES.md).
LATENCY = ("check_g1", "check_g2", "complete_4patch", "fill_hole", "fill_hole_deg6", "fillet",
           "export")
LAYER_TIMES = [
    "bezier.eval_grid", "bezier.tessellate", "continuity.check_g1_edge",
    "continuity.check_g2_edge", "continuity.CornerConfig.from_patches",
    "continuity.CornerConfig.solve_g2", "continuity.check_vertex", "cli.find_corner_configs",
    "construct.NinePatchRing.from_patches", "construct.fill_hole", "construct.fill_hole_deg6",
    "construct.complete_fourth_patch", "construct.build_fillet", "surfio.load_surface",
    "surfio.save_surface", "surfio.export_obj",
]
LAYER_SELF_TIMES = ["cli.find_corner_configs", "cli.main", "surfio.export_obj"]
LAYER_CALLS = ["bezier.bernstein_basis", "bezier.eval_grid", "bezier.derivative_net",
               "continuity.solve_edge_link", "continuity.solve_g2_link"]
REORIENT = ("bezier.flip_u", "bezier.flip_v", "bezier.transpose_patch")


@dataclass
class Tally:
    attempted: int = 0
    failed: int = 0
    known_defects: int = 0
    failures: list = field(default_factory=list)
    samples: dict = field(default_factory=dict)  # series -> seconds per op


def _program_modules():
    return {m: sys.modules.pop(m) for m in list(sys.modules)
            if m == "smoothpatch" or m.startswith("smoothpatch.")}


def setup(workload, seed, work, keep):
    """Time a fresh import of smoothpatch plus writing the input pool.

    With ``keep`` the new import stays for the run; otherwise the modules the
    run already uses are put back, so operations keep their warm state.
    """
    saved = _program_modules()
    shutil.rmtree(work, ignore_errors=True)
    try:
        t0 = time.perf_counter()
        cli = importlib.import_module("smoothpatch.cli")
        pool = inputs.build(workload, seed, work)
        seconds = time.perf_counter() - t0
    finally:
        if not keep:
            _program_modules()
            sys.modules.update(saved)
    if not Path(cli.__file__).resolve().is_relative_to(ROOT / "src"):
        raise ImportError(f"smoothpatch imported from {cli.__file__}, not from {ROOT / 'src'}")
    return seconds, cli, pool


def run_ops(cli, ops, tally, record, tracer=None):
    """Run each op once; return (seconds timed, per-op outcomes)."""
    total, outcomes = 0.0, []
    for idx, op in enumerate(ops):
        for path in checks.outputs_of(op):
            path.unlink(missing_ok=True)
        if tracer is not None:
            tracer.current_op = idx
        sink = io.StringIO()
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            t0 = time.perf_counter()
            try:
                rc = cli.main(op.argv)
            except Exception as exc:  # a crash fails this operation, not the run
                rc = f"{type(exc).__name__}: {exc}"
            dt = time.perf_counter() - t0
        outcome = checks.check(op, rc)
        total += dt
        outcomes.append(outcome)
        tally.attempted += 1
        if not outcome.ok:
            tally.failed += 1
            tally.known_defects += outcome.known_defect
            if len(tally.failures) < 20:
                tally.failures.append(f"{op.kind} {' '.join(op.argv[1:2])}: {outcome.why}")
        if record and op.metric:
            tally.samples.setdefault(op.metric, []).append(dt)
    return total, outcomes


def end_to_end(tally, setup_times):
    metrics = {}
    for series in LATENCY:
        metrics[f"{series}_s.p90"] = (float(np.percentile(tally.samples[series], 90)), "s")
    metrics["setup_s"] = (statistics.median(setup_times), "s")
    metrics["peak_rss_mb"] = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB")
    return metrics


def per_layer(pool, traced, untraced_s):
    """Layer metrics per cycle: counts from the first traced cycle, times as medians.

    ``traced`` holds (tracer, outcomes, seconds timed) per traced cycle.
    """
    summaries = [tracing.summarize(t) for t, _, _ in traced]
    first_tracer, first_outcomes, _ = traced[0]
    first = summaries[0]

    def median(name, key):
        return statistics.median(s.get(name, {}).get(key, 0.0) for s in summaries)

    metrics = {}
    for name in LAYER_CALLS:
        metrics[f"{name}.calls"] = (first.get(name, {}).get("calls", 0), "count")
    metrics["bezier.reorient.calls"] = (sum(first.get(n, {}).get("calls", 0) for n in REORIENT),
                                        "count")
    for name in LAYER_TIMES:
        metrics[f"{name}.s"] = (median(name, "s"), "s")
    for name in LAYER_SELF_TIMES:
        metrics[f"{name}.self_s"] = (median(name, "self_s"), "s")
    check_ops = [i for i, op in enumerate(pool.cycle) if op.kind.startswith("check-")]
    rows = sum(first_outcomes[i].edge_rows for i in check_ops)
    solves = tracing.ops_calls(first_tracer, "continuity.solve_edge_link", check_ops)
    metrics["continuity.link_solves_per_edge"] = (solves / rows, "ratio")
    found = sum(first_outcomes[i].vertex_rows for i in check_ops)
    known = sum(first_outcomes[i].vertices_expected for i in check_ops)
    metrics["cli.vertex_found_ratio"] = (found / known, "ratio")
    metrics["surfio.bytes_written"] = (first_tracer.bytes_written, "bytes")
    traced_s = statistics.median(s for _, _, s in traced)
    metrics["trace.overhead_frac"] = (traced_s / statistics.median(untraced_s) - 1.0, "ratio")
    repeat = all({n: v["calls"] for n, v in s.items() if "calls" in v}
                 == {n: v["calls"] for n, v in first.items() if "calls" in v} for s in summaries)
    return metrics, repeat


def environment():
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
        "uncontrolled": "CPU pinning and frequency scaling are not controlled",
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=inputs.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    sys.path.insert(0, str(ROOT / "src"))
    work = OUT / f"work-{os.getpid()}"
    try:
        seconds, cli, pool = setup(args.workload, args.seed, work / "pool", keep=True)
    except ImportError as exc:
        print(f"error: cannot import smoothpatch from {ROOT / 'src'}: {exc}", file=sys.stderr)
        shutil.rmtree(work, ignore_errors=True)
        return 2
    try:
        tally = Tally()
        setup_times = [seconds]
        gc.collect()
        gc.disable()
        run_ops(cli, pool.cycle, tally, record=False)  # warm-up, checked but not timed
        gc.collect()
        start = time.perf_counter()
        untraced_s, traced = [], []
        while True:
            t0 = time.perf_counter()
            seconds, _ = run_ops(cli, pool.cycle, tally, record=not args.trace)
            untraced_s.append(seconds)
            if args.trace:
                tracer = tracing.Tracer()
                tracer.install()
                try:
                    seconds, outcomes = run_ops(cli, pool.cycle, tally, record=False,
                                                tracer=tracer)
                finally:
                    tracer.uninstall()
                traced.append((tracer, outcomes, seconds))
            # Set-up repeats between cycles, so its samples span the run.
            setup_times.append(setup(args.workload, args.seed, work / "setup", keep=False)[0])
            gc.collect()  # once per cycle, outside every timed region
            now = time.perf_counter()
            if now - start + (now - t0) > args.seconds:
                break
        gc.enable()
        probes = Tally()
        run_ops(cli, pool.probes, probes, record=False)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    detail = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "environment": environment(),
              "cycles": len(untraced_s), "attempted": tally.attempted, "failed": tally.failed,
              "failures": tally.failures, "known_defect": checks.KNOWN_DEFECT,
              "defect_probes": {"run": probes.attempted, "known_defect": probes.known_defects,
                                "other_failures": probes.failed - probes.known_defects,
                                "failures": probes.failures}}
    if args.trace:
        metrics, repeat = per_layer(pool, traced, untraced_s)
        detail["calls_repeat_across_cycles"] = repeat
        # Counts repeat exactly from cycle to cycle, so the first traced
        # cycle's spans stand for all of them and keep the file small.
        first = traced[0][0]
        OUT.mkdir(exist_ok=True)
        np.savez_compressed(OUT / f"spans-{args.workload}-seed{args.seed}.npz",
                            names=np.array(first.names), **first.arrays())
    else:
        metrics = end_to_end(tally, setup_times)
        detail["samples"] = tally.samples
        detail["setup_s"] = setup_times
    detail["metrics"] = {k: v for k, (v, _) in metrics.items()}
    OUT.mkdir(exist_ok=True)
    (OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(detail, indent=1) + "\n", encoding="utf-8")
    print(f"{args.workload} seed {args.seed}: {len(untraced_s)} cycles, "
          f"{tally.failed}/{tally.attempted} ops failed; known defect in "
          f"{probes.known_defects} of {probes.attempted} untimed check-g1 probes of "
          f"constructed documents", file=sys.stderr)
    for line in tally.failures[:5]:
        print(f"  failed: {line}", file=sys.stderr)
    for line in probes.failures:
        print(f"  probe: {line}", file=sys.stderr)
    result = {
        "correct": tally.failed == 0 and probes.failed == probes.known_defects,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
