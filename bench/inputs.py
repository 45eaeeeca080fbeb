"""Seeded input pools and the expected result of every operation.

Each workload is one fixed cycle of CLI operations on documents generated
from the seed.  The seed moves geometry and placement, not the size of the
inputs: cell counts, degrees, orientations and the number of defects are
the same for every seed.  Expected check rows follow from how the inputs were
built, never from running the program:

* split cells of one polynomial surface join with G2 continuity;
* a control point moved off the surface at distance 1 from a side breaks
  G1 (and G2) across that side, at distance 2 only G2, farther away neither;
* every interior vertex of a K x K grid joins four cells.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import geom

WORKLOADS = ("grid-smooth", "grid-mixed")

GRID_K = 4  # cells per side; K*K must be a multiple of 8 (orientations)
FILLET_ROWS = 4
GRID_EXPORT_SAMPLES = "24,24"
CONSTRUCTION_REPEATS = 2  # each construction runs this often per cycle: they are short
N_CREASES = 2  # grid-mixed: sides with a G1 crease
N_G2_DEFECTS = 2  # grid-mixed: sides with a G2-only defect


@dataclass
class Op:
    """One CLI call; ``metric`` names the latency series it is timed in."""

    kind: str
    argv: list
    metric: str | None
    expect: dict = field(default_factory=dict)


@dataclass
class Pool:
    files: dict  # name -> path
    cycle: list  # of Op
    shape: dict  # counts that must not depend on the seed
    probes: list  # of Op: check-g1 of each constructed document, run once untimed


# --- surface generators -------------------------------------------------------

def smooth_net(rng, span=1.0, z_scale=0.15, xy_noise=0.0, shift=(0.0, 0.0, 0.0)):
    """Graph-like bi-cubic net over a [0, span]^2 footprint."""
    xs = np.linspace(0.0, span, 4)
    net = np.zeros((4, 4, 3))
    net[:, :, 0] = xs[:, None]
    net[:, :, 1] = xs[None, :]
    net[:, :, 2] = rng.normal(scale=z_scale, size=(4, 4))
    if xy_noise:
        net[:, :, :2] += rng.normal(scale=xy_noise, size=(4, 4, 2))
    return net + np.asarray(shift)


def _extend(net, rng, axis, scale=0.05):
    """Continue the first two rows (axis 0) or columns (axis 1) smoothly."""
    pts = np.moveaxis(net, axis, 0)
    for k in (2, 3):
        pts[k] = 2 * pts[k - 1] - pts[k - 2] + rng.normal(scale=scale, size=(4, 3))
    return net


def join_up(base, rng, lam):
    """Bi-cubic above ``base`` (across its v1 side): constant lambda, zero kappa."""
    net = np.zeros((4, 4, 3))
    net[:, 0] = base[:, 3]
    net[:, 1] = base[:, 3] + lam * (base[:, 3] - base[:, 2])
    return _extend(net, rng, 1)


def join_right(base, rng, lam):
    """Bi-cubic right of ``base`` (across its u1 side): constant lambda, zero kappa."""
    net = np.zeros((4, 4, 3))
    net[0] = base[3]
    net[1] = base[3] + lam * (base[3] - base[2])
    return _extend(net, rng, 0)


def ring(rng):
    """Eight bi-cubics around a hole, with an independent lambda on each join.

    Position p = 1 + 3 * column + row.  Patches 8 and 9 are adjusted so that
    the last corner closes.
    """
    lam = {k: rng.uniform(0.5, 2.0) for k in ("12", "32", "14", "74", "78", "98", "36", "96")}
    p1 = smooth_net(rng)
    p2 = join_up(p1, rng, lam["12"])
    p3 = join_up(p2, rng, 1.0 / lam["32"])
    p4 = join_right(p1, rng, lam["14"])
    p7 = join_right(p4, rng, 1.0 / lam["74"])
    p6 = join_right(p3, rng, lam["36"])
    p8 = join_up(p7, rng, lam["78"])
    lam69, lam89 = 1.0 / lam["96"], 1.0 / lam["98"]
    q6 = p6
    p8[0, 3] = q6[3, 0]
    p8[0, 2] = p8[0, 3] - (q6[3, 1] - q6[3, 0]) / lam89
    p8[1, 3] = q6[3, 0] + lam69 * (q6[3, 0] - q6[2, 0])
    q9_11 = q6[3, 1] + lam69 * (q6[3, 1] - q6[2, 1])
    p8[1, 2] = p8[1, 3] - (q9_11 - p8[1, 3]) / lam89
    p9 = np.zeros((4, 4, 3))
    p9[0] = q6[3]
    p9[1] = q6[3] + lam69 * (q6[3] - q6[2])
    p9[:, 0] = p8[:, 3]
    p9[:, 1] = p8[:, 3] + lam89 * (p8[:, 3] - p8[:, 2])
    for i in (2, 3):
        step = p9[i, 1] - p9[i, 0]
        p9[i, 2] = p9[i, 1] + step + rng.normal(scale=0.05, size=3)
        p9[i, 3] = p9[i, 2] + step + rng.normal(scale=0.05, size=3)
    return {f"r{p}": net for p, net in
            ((1, p1), (2, p2), (3, p3), (4, p4), (6, p6), (7, p7), (8, p8), (9, p9))}


RING_EDGES = [("r1", "v1", "r2", "v0"), ("r2", "v1", "r3", "v0"), ("r1", "u1", "r4", "u0"),
              ("r4", "u1", "r7", "u0"), ("r7", "v1", "r8", "v0"), ("r8", "v1", "r9", "v0"),
              ("r3", "u1", "r6", "u0"), ("r6", "u1", "r9", "u0")]
RING_VERTICES = [("r1", "r2", "r4", "r5"), ("r2", "r3", "r5", "r6"),
                 ("r4", "r5", "r7", "r8"), ("r5", "r6", "r8", "r9")]


def strip(rng, n, shift):
    """n bi-cubics stacked in v with constant-lambda, zero-kappa joins."""
    nets = [smooth_net(rng, shift=shift)]
    for _ in range(n - 1):
        nets.append(join_up(nets[-1], rng, rng.uniform(0.6, 1.6)))
    return nets


def split_corner(rng):
    """Three quadrants of one bi-cubic split at a seeded point: exactly G2.

    In the canonical corner arrangement: r1 lower-left, r2 right, r4 above;
    the fourth quadrant, r3, is left for complete-4patch to build.
    """
    net = smooth_net(rng, span=2.0, z_scale=0.3, xy_noise=0.03)
    cells = geom.split_grid(net, [rng.uniform(0.4, 0.6)], [rng.uniform(0.4, 0.6)])
    return {"r1": cells[0][0], "r2": cells[1][0], "r4": cells[0][1]}


CORNER_EDGES = [("r1", "u1", "r2", "u0"), ("r1", "v1", "r4", "v0")]


def grid_cells(rng, k):
    """k x k split of one seeded bi-cubic at jittered breaks."""
    net = smooth_net(rng, span=float(k), z_scale=0.15 * k, xy_noise=0.02 * k)
    u_breaks = [(b + rng.uniform(-0.2, 0.2)) / k for b in range(1, k)]
    v_breaks = [(b + rng.uniform(-0.2, 0.2)) / k for b in range(1, k)]
    return geom.split_grid(net, u_breaks, v_breaks)


# --- grid documents ---------------------------------------------------------

def cell_name(i, j):
    return f"c{i}_{j}"


def _grid_edges(k):
    """Canonical interior edges (cell a, side, cell b, side) of a k x k grid."""
    out = []
    for i in range(k):
        for j in range(k):
            if i + 1 < k:
                out.append(((i, j), "u1", (i + 1, j), "u0"))
            if j + 1 < k:
                out.append(((i, j), "v1", (i, j + 1), "v0"))
    return out


def _side_distance(point, degrees, side):
    """Rows between control point (i, j) and a side of its net."""
    (i, j), (n, m) = point, degrees
    return {"u0": i, "u1": n - i, "v0": j, "v1": m - j}[side]


def grid_doc(rng, k, mixed):
    """A k x k grid document and its expected edge and vertex verdicts.

    ``mixed`` elevates half the cells to (4,4)/(5,5), reorients every cell
    (each of the eight orientations equally often) and seeds creases and
    G2-only defects on elevated cells.
    """
    cells = grid_cells(rng, k)
    nets = {(i, j): cells[i][j] for i in range(k) for j in range(k)}
    keys = sorted(nets)
    orient = {key: (False, False, False) for key in keys}
    defects = []  # (cell, control point, degrees)
    if mixed:
        order = [keys[n] for n in rng.permutation(len(keys))]
        quarter = len(keys) // 4
        for n, key in enumerate(order[: 2 * quarter]):
            nets[key] = geom.elevate(nets[key], 4 if n < quarter else 5)
        elevated = order[: 2 * quarter]
        picks = [elevated[n] for n in rng.permutation(len(elevated))[: N_CREASES + N_G2_DEFECTS]]
        for n, key in enumerate(picks):
            i, j = key
            sides = [s for s, inside in (("u0", i > 0), ("u1", i < k - 1),
                                         ("v0", j > 0), ("v1", j < k - 1)) if inside]
            side = sides[rng.integers(len(sides))]
            deg = nets[key].shape[0] - 1
            dist = 1 if n < N_CREASES else 2
            mid = deg // 2
            point = {"u0": (dist, mid), "u1": (deg - dist, mid),
                     "v0": (mid, dist), "v1": (mid, deg - dist)}[side]
            net = nets[key].copy()
            diag = np.linalg.norm(np.ptp(net.reshape(-1, 3), axis=0))
            net[point] += (0.05 + 0.05 * rng.uniform()) * diag * np.array([0.0, 0.0, 1.0])
            nets[key] = net
            defects.append((key, point, (deg, deg)))
        ops = list(geom.ORIENTATIONS) * (len(keys) // len(geom.ORIENTATIONS))
        for n, key in zip(rng.permutation(len(keys)), keys):
            orient[key] = ops[n]

    def worst(key, side):
        dists = [_side_distance(p, d, side) for c, p, d in defects if c == key]
        return min(dists, default=float("inf"))

    edges, expect_g1, expect_g2 = [], [], []
    for a, sa, b, sb in _grid_edges(k):
        d = min(worst(a, sa), worst(b, sb))
        side_a, back_a = geom.reoriented_side(sa, orient[a])
        side_b, back_b = geom.reoriented_side(sb, orient[b])
        edges.append((cell_name(*a), side_a, cell_name(*b), side_b, back_a != back_b))
        expect_g1.append(d > 1)
        expect_g2.append(d > 2)
    perturbed = {c for c, _, _ in defects}
    vertices = {}
    for i in range(1, k):
        for j in range(1, k):
            around = [(i - 1, j - 1), (i, j - 1), (i - 1, j), (i, j)]
            names = frozenset(cell_name(*c) for c in around)
            vertices[names] = None if perturbed & set(around) else True
    patches = {cell_name(*key): geom.reorient(nets[key], orient[key]) for key in keys}
    shape = {
        "patches": len(patches), "edges": len(edges), "vertices": len(vertices),
        "degrees": sorted(p.shape[0] - 1 for p in patches.values()),
        "orientations": sorted(orient.values()),
        "g1_failing_sides": N_CREASES if mixed else 0,
        "g2_defects": N_G2_DEFECTS if mixed else 0,
    }
    return patches, edges, expect_g1, expect_g2, vertices, shape


# --- documents on disk --------------------------------------------------------

def write_doc(path: Path, patches: dict, edges=()):
    doc = {
        "version": 1,
        "patches": [
            {"name": name, "degree_u": net.shape[0] - 1, "degree_v": net.shape[1] - 1,
             "net": net.reshape(-1, 3).tolist()}
            for name, net in patches.items()
        ],
        "edges": [{"a": e[0], "a_side": e[1], "b": e[2], "b_side": e[3],
                   "reversed": bool(e[4]) if len(e) > 4 else False} for e in edges],
    }
    path.write_text(json.dumps(doc) + "\n", encoding="utf-8")


def _check(kind, doc, report, rows, vertices):
    """A check op and its expected rows: [(a, a_side, b, b_side, reversed, ok)]."""
    argv = [kind, str(doc), "--report", str(report)]
    return argv, {"report": report, "rows": rows, "vertices": vertices}


def _construction_ops(d: Path, rng):
    """complete-4patch, fill-hole (both degrees) and fillet, plus their documents."""
    corner = split_corner(rng)
    write_doc(d / "corner.json", corner, CORNER_EDGES)
    ring_nets = ring(rng)
    write_doc(d / "ring.json", ring_nets, RING_EDGES)
    strip_a = strip(rng, FILLET_ROWS, (0.0, 0.0, 0.0))
    strip_b = strip(rng, FILLET_ROWS, (2.5, 0.0, 0.0))
    write_doc(d / "strip_a.json", {f"a{n}": p for n, p in enumerate(strip_a)})
    write_doc(d / "strip_b.json", {f"b{n}": p for n, p in enumerate(strip_b)})

    n = FILLET_ROWS
    fillet_inputs = {}
    for r in range(n):
        fillet_inputs[f"r{1 + 3 * r}"] = strip_a[r]
        fillet_inputs[f"r{3 + 3 * r}"] = strip_b[r]
    # even rows get bi-cubic bridges, odd rows (5,5) hole fills
    fillet_new = {f"r{2 + 3 * r}": 3 if r % 2 == 0 else 5 for r in range(n)}
    fillet_vertices = [
        tuple(f"r{c + 3 * r}" for c in (1 + col, 2 + col, 1 + col + 3, 2 + col + 3))
        for r in range(n - 1) for col in (0, 1)
    ]
    constructions = {
        "complete-4patch": ([str(d / "corner.json")], corner, {"r3": 5},
                            [("r1", "r2", "r3", "r4")], 4),
        "fill-hole": ([str(d / "ring.json")], ring_nets, {"r5": 5}, RING_VERTICES, 12),
        "fill-hole-deg6": ([str(d / "ring.json"), "--deg6"], ring_nets, {"r5": 6},
                           RING_VERTICES, 12),
        "fillet": ([str(d / "strip_a.json"), str(d / "strip_b.json"), "-n", str(n)],
                   fillet_inputs, fillet_new, fillet_vertices, 2 * n + 3 * (n - 1)),
    }
    ops = []
    for kind, (args, given, new, vertices, n_edges) in constructions.items():
        out = d / f"out-{kind}.json"
        cmd = "fill-hole" if kind.startswith("fill-hole") else kind
        ops.append(Op(kind, [cmd, *args, "-o", str(out)], kind.replace("-", "_"), {
            "output": out, "inputs": given, "new": new,
            "vertices": [frozenset(v) for v in vertices], "n_edges": n_edges,
        }))
    return ops


def defect_probes(constructions):
    """check-g1 of each constructed document, where the known defect shows.

    Every join of a constructed document is G1 by construction, so every row
    must pass; see ``checks.KNOWN_DEFECT`` for what the program reports.
    """
    probes = []
    for op in constructions:
        out = op.expect["output"]
        argv, expect = _check("check-g1", out, out.with_suffix(".report.json"), None,
                              {v: True for v in op.expect["vertices"]})
        expect.update(n_edges=op.expect["n_edges"], constructed=op.kind)
        probes.append(Op("check-g1", argv, None, expect))
    return probes


def build(workload: str, seed: int, d: Path) -> Pool:
    """Generate and write the input pool of one workload; return its cycle."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}; choose from {WORKLOADS}")
    d.mkdir(parents=True, exist_ok=True)
    rng = np.random.default_rng([seed, WORKLOADS.index(workload)])
    cycle = []
    patches, edges, ok1, ok2, vertices, shape = grid_doc(rng, GRID_K, workload == "grid-mixed")
    write_doc(d / "grid.json", patches, edges)
    for order, oks in ((1, ok1), (2, ok2)):
        kind = f"check-g{order}"
        rows = [(*e, ok) for e, ok in zip(edges, oks)]
        argv, expect = _check(kind, d / "grid.json", d / f"report-g{order}.json", rows, vertices)
        cycle.append(Op(kind, argv, f"check_g{order}", expect))
    constructions = _construction_ops(d, rng)
    for op in constructions:
        cycle.extend([op] * CONSTRUCTION_REPEATS)
    obj = d / "export.obj"
    cycle.append(Op("export", ["export", str(d / "grid.json"), "--obj", str(obj), "--samples",
                               GRID_EXPORT_SAMPLES], "export",
                    {"obj": obj, "doc": d / "grid.json", "patches": patches,
                     "samples": GRID_EXPORT_SAMPLES}))
    files = {p.name: p for p in sorted(d.iterdir()) if p.suffix == ".json" and not
             p.name.startswith(("out-", "report"))}
    return Pool(files, cycle, shape, defect_probes(constructions))
