"""Command-line interface.

Subcommands::

    smoothpatch check-g1 surface.json [--report out.json]
    smoothpatch check-g2 surface.json [--report out.json]
    smoothpatch complete-4patch surface.json -o out.json [--alpha23 X ...]
    smoothpatch fill-hole surface.json -o out.json [--deg6] [--alpha A45 A25 A65 A85]
    smoothpatch fillet a.json b.json -n N -o out.json
    smoothpatch export surface.json --obj out.obj --samples nu,nv

Exit codes: 0 = pass/success, 2 = continuity failure, 1 = usage or input
error.  Check commands print a residual table and optionally write a JSON
report; reports are byte-stable for identical inputs and flags.
"""

from __future__ import annotations

import argparse
import functools
import math
import sys

import numpy as np

from .bezier import SIDES, _side_view
from .continuity import (
    CornerConfig,
    EdgeCorrespondence,
    GeometryError,
    check_edges,
    check_vertex_g1,
    check_vertex_g2,
)
from .construct import NinePatchRing, build_fillet, complete_fourth_patch, fill_hole, fill_hole_deg6, solve_hole_params
from .surfio import (
    FORMAT_VERSION,
    SurfaceDocument,
    SurfaceFormatError,
    dumps_json,
    export_obj,
    load_surface,
    save_surface,
)

__all__ = ["main"]


# --- corner detection -------------------------------------------------------

# the corners at edge parameter 0 and 1 of each side, as (iu, jv), by side and reversal
_CORNERS = np.stack(np.indices((2, 2)), -1)  # _CORNERS[iu, jv] is (iu, jv)
_SIDE_ENDS = {(side, rev): [tuple(c) for c in _side_view(_CORNERS, side, rev)[0].tolist()]
              for side in SIDES for rev in (False, True)}


def find_corner_configs(doc: SurfaceDocument, checks):
    """Detect 4-patch vertices and return (names-in-role-order, CornerConfig).

    ``checks`` is the ``check_edges`` result of ``doc.edges``, in order.
    Each edge record glues the end corners of its two sides (b's ends
    swapped when ``reversed``); the glued corners form the vertices.  A
    vertex qualifies when it joins four corners of four distinct patches and
    each of those corners' two sides is glued by exactly one record; the
    records then close a 4-cycle through the four patches.  r1 is the
    smallest name, r2 and r4 its neighbours in sorted order, r3 the last
    one.  Each canonical link ("12" is r1 -> r2, and so on) is the record
    joining its two roles, read at V by ``CornerConfig.from_links`` in the
    record's own orientation: swapped when the record's a is the canonical
    b, at the record's parameter of V.  No link is solved here; order-2
    checks give configs with second-order values.
    """
    roots = {(name, corner): (name, corner) for name in doc.patches
             for corner in ((0, 0), (0, 1), (1, 0), (1, 1))}

    def find(key):
        while roots[key] != key:  # a chain stays within one vertex's corners
            key = roots[key]
        return key

    glued: dict[tuple, list] = {key: [] for key in roots}  # corner -> [(side, other patch, record)]
    for k, corr in enumerate(doc.edges):
        for ca, cb in zip(_SIDE_ENDS[corr.a_side, False], _SIDE_ENDS[corr.b_side, corr.reversed]):
            roots[find((corr.a, ca))] = find((corr.b, cb))
            glued[corr.a, ca].append((corr.a_side, corr.b, k))
            glued[corr.b, cb].append((corr.b_side, corr.a, k))
    vertices: dict[tuple, list] = {}
    for key in roots:
        vertices.setdefault(find(key), []).append(key)
    found = []
    for corners in vertices.values():
        corner_of = dict(corners)
        if len(corners) != 4 or len(corner_of) != 4 or any(
            sorted(side for side, *_ in glued[name, (iu, jv)]) != [f"u{iu}", f"v{jv}"]
            for name, (iu, jv) in corners
        ):
            continue
        record = {name: {other: k for _, other, k in glued[name, c]} for name, c in corners}
        r1 = min(corner_of)
        r2, r4 = sorted(record[r1])
        (r3,) = set(corner_of) - {r1, r2, r4}
        links = {}
        for key, a, b in (("12", r1, r2), ("14", r1, r4), ("23", r2, r3), ("43", r4, r3)):
            k = record[a][b]
            corr = doc.edges[k]
            links[key] = (checks, k, _SIDE_ENDS[corr.a_side, False].index(corner_of[corr.a]),
                          corr.a != a)
        found.append(((r1, r2, r3, r4), CornerConfig.from_links(links)))
    return found


# --- check commands ---------------------------------------------------------

def _fmt(x: float) -> str:
    return format(float(x), ".3e")


def _run_checks(doc: SurfaceDocument, order: int):
    oracle_name = "normal_angle" if order == 1 else "curvature_gap"
    checks = check_edges([(doc.patch(c.a), doc.patch(c.b), c) for c in doc.edges], order)
    columns = (getattr(checks, name).tolist()
               for name in ("link_residual", "oracle_residual", "link_ok", "oracle_ok", "ok"))
    edge_rows = [{
        "a": corr.a, "a_side": corr.a_side, "b": corr.b, "b_side": corr.b_side,
        "reversed": bool(corr.reversed), "link_residual": residual, oracle_name: oracle,
        "link_ok": link_ok, "oracle_ok": oracle_ok, "ok": ok,
    } for corr, residual, oracle, link_ok, oracle_ok, ok in zip(doc.edges, *columns)]
    all_ok = all(row["ok"] for row in edge_rows)
    vertex_rows = []
    for names, config in find_corner_configs(doc, checks):
        rep = check_vertex_g2(config) if order == 2 else check_vertex_g1(config)
        row = {
            "patches": list(names),
            "g1_residuals": [float(r) for r in rep.g1_residuals],
            "lambda_product_residual": float(rep.lambda_product_residual),
            "ok": bool(rep.ok),
        }
        if rep.g2_residuals is not None:
            row["g2_residuals"] = [float(r) for r in rep.g2_residuals]
        vertex_rows.append(row)
        all_ok &= rep.ok
    vertex_rows.sort(key=lambda r: r["patches"])
    return edge_rows, vertex_rows, all_ok


def _print_table(edge_rows, vertex_rows, overall_ok, order, out=None):
    out = out if out is not None else sys.stdout
    label = "G1" if order == 1 else "G2"
    for row in edge_rows:
        oracle_key = "normal_angle" if order == 1 else "curvature_gap"
        out.write(
            f"edge {row['a']}:{row['a_side']} ~ {row['b']}:{row['b_side']}  "
            f"link {_fmt(row['link_residual'])}  {oracle_key} {_fmt(row[oracle_key])}  "
            f"{'PASS' if row['ok'] else 'FAIL'}\n"
        )
    for row in vertex_rows:
        residuals = row["g1_residuals"] + [row["lambda_product_residual"]]
        residuals += row.get("g2_residuals", [])
        out.write(
            f"vertex ({', '.join(row['patches'])})  max residual "
            f"{_fmt(max(residuals))}  {'PASS' if row['ok'] else 'FAIL'}\n"
        )
    out.write(f"{label} overall: {'PASS' if overall_ok else 'FAIL'}\n")


def _cmd_check(args, order: int) -> int:
    from .continuity import G0_TOL, G1_TOL, G2_TOL, NORMAL_ANGLE_TOL

    doc = load_surface(args.surface)
    edge_rows, vertex_rows, ok = _run_checks(doc, order)
    _print_table(edge_rows, vertex_rows, ok, order)
    if args.report:
        tolerances = {"g0": G0_TOL, "g1": G1_TOL, "normal_angle": NORMAL_ANGLE_TOL}
        if order == 2:
            tolerances["g2"] = G2_TOL
        report = {
            "command": "check-g1" if order == 1 else "check-g2",
            "surface": str(args.surface),
            "tolerances": tolerances,
            "edges": edge_rows,
            "vertices": vertex_rows,
            "overall": "pass" if ok else "fail",
        }
        with open(args.report, "w", encoding="utf-8") as fh:
            fh.write(dumps_json(report))
            fh.write("\n")
    return 0 if ok else 2


# --- construction commands --------------------------------------------------

def _edges_off(edges, name: str, sides) -> list:
    """The edge records gluing none of ``sides`` of patch ``name``, which a command rebuilds."""
    return [c for c in edges
            if not ((c.a == name and c.a_side in sides) or (c.b == name and c.b_side in sides))]


def _cmd_complete(args) -> int:
    doc = load_surface(args.surface)
    kwargs = {}
    for flag in ("alpha23", "alpha43", "lambda23_1", "lambda43_1"):
        value = getattr(args, flag)
        if value is not None:
            kwargs[flag] = value
    kwargs.update(
        kappa23_1=args.kappa23_1, kappa43_1=args.kappa43_1,
        beta2_23=args.beta2_23, beta2_43=args.beta2_43, degree=args.degree,
    )
    r3 = complete_fourth_patch(doc.patch("r1"), doc.patch("r2"), doc.patch("r4"), **kwargs)
    patches = dict(doc.patches)
    patches["r3"] = r3
    edges = _edges_off(doc.edges, "r3", ("u0", "v0"))
    # the construction verified both corner joins: record them when missing,
    # so that check commands see (and check) the vertex it closes
    glued = {(c.a, c.a_side) for c in edges} | {(c.b, c.b_side) for c in edges}
    for corr in (EdgeCorrespondence("u1", "u0", False, "r1", "r2"),
                 EdgeCorrespondence("v1", "v0", False, "r1", "r4")):
        if not {(corr.a, corr.a_side), (corr.b, corr.b_side)} & glued:
            edges.append(corr)
    edges += [
        EdgeCorrespondence("v1", "v0", False, "r2", "r3"),
        EdgeCorrespondence("u1", "u0", False, "r4", "r3"),
    ]
    save_surface(SurfaceDocument(patches, edges, FORMAT_VERSION), args.output)
    print(f"wrote {args.output} (r3 bi-degree ({r3.degree_u}, {r3.degree_v}))")
    return 0


_RING_NAMES = {pos: f"r{pos}" for pos in (1, 2, 3, 4, 6, 7, 8, 9)}


def _cmd_fill_hole(args) -> int:
    doc = load_surface(args.surface)
    patches = {pos: doc.patch(name) for pos, name in _RING_NAMES.items()}
    ring = NinePatchRing.from_patches(patches)
    if args.deg6:
        if args.alpha is not None:
            raise SurfaceFormatError("--alpha has no effect with --deg6 (all ordinates pinned)")
        r5 = fill_hole_deg6(ring)
    else:
        params = solve_hole_params(ring, args.alpha)
        r5 = fill_hole(ring, params)
    out_patches = dict(doc.patches)
    out_patches["r5"] = r5
    edges = _edges_off(doc.edges, "r5", SIDES) + [
        EdgeCorrespondence("v1", "v0", False, "r4", "r5"),
        EdgeCorrespondence("u1", "u0", False, "r2", "r5"),
        EdgeCorrespondence("v1", "v0", False, "r5", "r6"),
        EdgeCorrespondence("u1", "u0", False, "r5", "r8"),
    ]
    save_surface(SurfaceDocument(out_patches, edges, FORMAT_VERSION), args.output)
    print(f"wrote {args.output} (r5 bi-degree ({r5.degree_u}, {r5.degree_v}))")
    return 0


def _cmd_fillet(args) -> int:
    doc_a = load_surface(args.strip_a)
    doc_b = load_surface(args.strip_b)
    strip_a = list(doc_a.patches.values())
    strip_b = list(doc_b.patches.values())
    n = args.rows
    if n < 1 or len(strip_a) < n or len(strip_b) < n:
        raise SurfaceFormatError(
            f"both strips need at least {n} patches (got {len(strip_a)}, {len(strip_b)})"
        )
    middle = build_fillet(strip_a, strip_b, n,
                          bridge_lambdas=(args.lambda_left, args.lambda_right))
    strip_a, strip_b = strip_a[:n], strip_b[:n]
    patches = {}
    edges = []
    for r in range(n):
        patches[f"r{1 + 3 * r}"] = strip_a[r]
        patches[f"r{2 + 3 * r}"] = middle[r]
        patches[f"r{3 + 3 * r}"] = strip_b[r]
    for r in range(n):
        edges.append(EdgeCorrespondence("u1", "u0", False, f"r{1 + 3 * r}", f"r{2 + 3 * r}"))
        edges.append(EdgeCorrespondence("u1", "u0", False, f"r{2 + 3 * r}", f"r{3 + 3 * r}"))
    for r in range(n - 1):
        for c in range(3):
            edges.append(EdgeCorrespondence("v1", "v0", False, f"r{1 + c + 3 * r}",
                                            f"r{1 + c + 3 * (r + 1)}"))
    save_surface(SurfaceDocument(patches, edges, FORMAT_VERSION), args.output)
    print(f"wrote {args.output} ({len(middle)} fillet patches)")
    return 0


def _cmd_export(args) -> int:
    doc = load_surface(args.surface)
    try:
        nu, nv = (int(x) for x in args.samples.split(","))
    except ValueError:
        raise SurfaceFormatError("--samples expects 'nu,nv' with two integers") from None
    if nu < 1 or nv < 1:
        raise SurfaceFormatError(f"--samples expects nu, nv >= 1, got {nu},{nv}")
    export_obj(doc, nu, nv, args.obj)
    print(f"wrote {args.obj}")
    return 0


# --- entry point -------------------------------------------------------------

def _finite_float(text: str) -> float:
    """The argument type of every float flag: a number that is neither infinite nor NaN."""
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"expected a finite number, got {text!r}")
    return value


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built on first use and kept for the process."""
    parser = argparse.ArgumentParser(
        prog="smoothpatch",
        description="Verify and construct G1/G2-smooth multi-patch Bezier surfaces.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    for name, order in (("check-g1", 1), ("check-g2", 2)):
        p = sub.add_parser(name, help=f"check G{order} continuity of a surface document")
        p.add_argument("surface")
        p.add_argument("--report", help="write a JSON report to this path")
        p.set_defaults(func=lambda a, order=order: _cmd_check(a, order))

    p = sub.add_parser("complete-4patch", help="construct the diagonal patch of a G1 corner")
    p.add_argument("surface", help="document containing patches r1, r2, r4")
    p.add_argument("-o", "--output", required=True)
    p.add_argument("--alpha23", type=_finite_float, default=None)
    p.add_argument("--alpha43", type=_finite_float, default=None)
    p.add_argument("--lambda23-1", dest="lambda23_1", type=_finite_float, default=None)
    p.add_argument("--lambda43-1", dest="lambda43_1", type=_finite_float, default=None)
    p.add_argument("--kappa23-1", dest="kappa23_1", type=_finite_float, default=0.0)
    p.add_argument("--kappa43-1", dest="kappa43_1", type=_finite_float, default=0.0)
    p.add_argument("--beta2-23", dest="beta2_23", type=_finite_float, default=0.0)
    p.add_argument("--beta2-43", dest="beta2_43", type=_finite_float, default=0.0)
    p.add_argument("--degree", type=int, choices=(4, 5), default=5)
    p.set_defaults(func=_cmd_complete)

    p = sub.add_parser("fill-hole", help="fill the centre of a nine-patch ring")
    p.add_argument("surface", help="document containing patches r1..r9 except r5")
    p.add_argument("-o", "--output", required=True)
    p.add_argument("--deg6", action="store_true", help="bi-degree (6,6) fill (cubic lambdas)")
    p.add_argument("--alpha", type=_finite_float, nargs=4, metavar=("A45", "A25", "A65", "A85"),
                   default=None, help="free alpha ordinates for the (5,5) fill")
    p.set_defaults(func=_cmd_fill_hole)

    p = sub.add_parser("fillet", help="bridge two strips with a smooth fillet")
    p.add_argument("strip_a")
    p.add_argument("strip_b")
    p.add_argument("-n", "--rows", type=int, required=True)
    p.add_argument("-o", "--output", required=True)
    p.add_argument("--lambda-left", dest="lambda_left", type=_finite_float, default=1.0)
    p.add_argument("--lambda-right", dest="lambda_right", type=_finite_float, default=1.0)
    p.set_defaults(func=_cmd_fillet)

    p = sub.add_parser("export", help="tessellate all patches to a Wavefront OBJ")
    p.add_argument("surface")
    p.add_argument("--obj", required=True)
    p.add_argument("--samples", default="16,16", help="grid resolution 'nu,nv'")
    p.set_defaults(func=_cmd_export)
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 1 if exc.code not in (0, None) else 0
    try:
        return args.func(args)
    except SurfaceFormatError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except GeometryError as exc:
        print(f"continuity failure: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
