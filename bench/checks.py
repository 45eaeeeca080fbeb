"""Verify each operation's output against how its input was built.

A check returns an ``Outcome``.  Nothing here calls smoothpatch: reports are
compared with the expected rows of ``inputs``, constructions are tested with
the benchmark's own Bezier evaluation (``geom``), and exported meshes are
compared point by point with that evaluation.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

import geom

# Own thresholds for constructed joins, as in the program's defaults: G0 gap
# over the joint net diagonal, and the angle between normal lines in radians.
G0_TOL = 1e-9
ANGLE_TOL = 1e-7
EXPORT_TOL = 1e-12

# Known defect: check-g1 reports FAIL on vertex rows of some valid
# constructed documents, with residuals of about 1e-8 to 1e-5 against a
# tolerance of 1e-8 while every edge row passes.  It shows on nearly every
# fill-hole --deg6 result and on some (5,5) fill-hole and fillet results.
KNOWN_DEFECT = "check-g1 false vertex FAIL on a valid constructed document"
_DEFECT_RESIDUAL_MAX = 1e-4


@dataclass
class Outcome:
    ok: bool
    why: str = ""
    known_defect: bool = False
    edge_rows: int = 0
    vertex_rows: int = 0
    vertices_expected: int = 0


def _load(path):
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def doc_nets(doc):
    """Control nets of a surface document's patches, by name."""
    return {p["name"]: np.array(p["net"], dtype=float).reshape(p["degree_u"] + 1,
                                                                p["degree_v"] + 1, 3)
            for p in doc["patches"]}


def check_report(op, rc) -> Outcome:
    exp = op.expect
    try:
        report = _load(exp["report"])
    except (OSError, ValueError) as exc:
        return Outcome(False, f"no report ({exc}); exit {rc}")
    rows, vrows = report["edges"], report["vertices"]
    counts = dict(edge_rows=len(rows), vertex_rows=len(vrows),
                  vertices_expected=len(exp["vertices"]))
    if exp["rows"] is not None:
        expected = exp["rows"]
    else:  # a constructed document: every join is G1 by construction
        expected = [(r["a"], r["a_side"], r["b"], r["b_side"], r["reversed"], True) for r in rows]
        if len(rows) != exp["n_edges"]:
            return Outcome(False, f"{len(rows)} edge rows, expected {exp['n_edges']}", **counts)
    got = [(r["a"], r["a_side"], r["b"], r["b_side"], r["reversed"], r["ok"]) for r in rows]
    if got != [tuple(e) for e in expected]:
        bad = [g for g, e in zip(got, expected) if g != tuple(e)] or got[len(expected):]
        return Outcome(False, f"edge rows differ from construction: {bad[:3]}", **counts)
    by_names = {frozenset(v["patches"]): v for v in vrows}
    if set(by_names) != set(exp["vertices"]) or len(vrows) != len(by_names):
        return Outcome(False, "vertex rows differ from the grid's valence-4 vertices", **counts)
    wrong = [v for names, v in by_names.items()
             if exp["vertices"][names] is not None and v["ok"] != exp["vertices"][names]]
    all_ok = all(r["ok"] for r in rows) and all(v["ok"] for v in vrows)
    if rc != (0 if all_ok else 2) or report["overall"] != ("pass" if all_ok else "fail"):
        return Outcome(False, f"exit {rc} and overall {report['overall']!r} disagree with rows",
                       **counts)
    if wrong:
        residuals = [max(v["g1_residuals"] + [v["lambda_product_residual"]]
                         + v.get("g2_residuals", [])) for v in wrong]
        known = exp.get("constructed") is not None and max(residuals) < _DEFECT_RESIDUAL_MAX
        why = KNOWN_DEFECT if known else "vertex verdicts differ from construction"
        return Outcome(False, f"{why} (max residual {max(residuals):.2e})", known, **counts)
    return Outcome(True, **counts)


def check_construction(op, rc) -> Outcome:
    exp = op.expect
    if rc != 0:
        return Outcome(False, f"exit {rc}")
    try:
        doc = _load(exp["output"])
    except (OSError, ValueError) as exc:
        return Outcome(False, f"no output ({exc})")
    nets = doc_nets(doc)
    if set(nets) != set(exp["inputs"]) | set(exp["new"]):
        return Outcome(False, f"patches {sorted(nets)}")
    for name, net in exp["inputs"].items():
        if not np.array_equal(nets[name], net):
            return Outcome(False, f"input patch {name} changed")
    for name, degree in exp["new"].items():
        if nets[name].shape[:2] != (degree + 1, degree + 1):
            return Outcome(False, f"{name} has shape {nets[name].shape}, expected degree {degree}")
    if len(doc["edges"]) != exp["n_edges"]:
        return Outcome(False, f"{len(doc['edges'])} edges, expected {exp['n_edges']}")
    for e in doc["edges"]:
        if e["a"] in exp["new"] or e["b"] in exp["new"]:
            gap, angle = geom.edge_joint(nets[e["a"]], e["a_side"], nets[e["b"]], e["b_side"],
                                         e["reversed"])
            if not (gap <= G0_TOL and angle <= ANGLE_TOL):
                return Outcome(False, f"join {e['a']}:{e['a_side']} ~ {e['b']}:{e['b_side']} "
                                      f"gap {gap:.2e} angle {angle:.2e}")
    return Outcome(True)


def check_export(op, rc) -> Outcome:
    exp = op.expect
    if rc != 0:
        return Outcome(False, f"exit {rc}")
    nu, nv = (int(x) for x in exp["samples"].split(","))
    nets = exp["patches"] if exp["patches"] is not None else doc_nets(_load(exp["doc"]))
    try:
        with open(exp["obj"], encoding="utf-8") as fh:
            lines = fh.read().split("\n")
    except OSError as exc:
        return Outcome(False, f"no OBJ ({exc})")
    names = [ln[2:] for ln in lines if ln.startswith("o ")]
    verts = np.array(" ".join(ln[2:] for ln in lines if ln.startswith("v ")).split(), dtype=float)
    faces = np.array(" ".join(ln[2:] for ln in lines if ln.startswith("f ")).split(), dtype=int)
    if names != list(nets):
        return Outcome(False, "OBJ objects differ from the document's patches")
    us, vs = np.linspace(0.0, 1.0, nu + 1), np.linspace(0.0, 1.0, nv + 1)
    want = np.concatenate([geom.evaluate(net, us, vs).reshape(-1, 3) for net in nets.values()])
    if verts.size != want.size or faces.size != 6 * nu * nv * len(nets):
        return Outcome(False, f"{verts.size // 3} vertices, {faces.size // 3} faces")
    scale = float(np.abs(want).max()) or 1.0
    if np.max(np.abs(verts.reshape(-1, 3) - want)) > EXPORT_TOL * scale:
        return Outcome(False, "OBJ vertices are off the surface")
    if faces.min() < 1 or faces.max() > len(want):
        return Outcome(False, "OBJ face index out of range")
    return Outcome(True)


def check(op, rc) -> Outcome:
    if op.kind.startswith("check-"):
        return check_report(op, rc)
    if op.kind == "export":
        return check_export(op, rc)
    return check_construction(op, rc)


def outputs_of(op):
    """Files an op writes, removed before it runs so a stale one cannot pass."""
    return [op.expect[k] for k in ("report", "output", "obj") if k in op.expect]
