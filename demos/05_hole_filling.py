"""Filling the centre of a nine-patch ring at bi-degree (5,5) and (6,6).

A ring of eight bi-cubics with an independent lambda constant on each join
surrounds a missing centre patch.  With quadratic lambdas and cubic kappas
on the hole edges, four free alpha ordinates remain; one least-squares
solve pins the eight beta ordinates so that the points two edges both
determine agree, and a (5,5) patch closes the hole G1-smoothly.  With kappa
forced to zero the lambdas must become cubic and the patch bi-degree (6,6).
A ring lambda delta away from the ring's join leaves a gap at a hole corner
that grows linearly in delta.

Run:  python3 demos/05_hole_filling.py
"""

import pathlib
import re
import sys

import numpy as np

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent / "tests"))
from helpers import random_ring  # noqa: E402

from smoothpatch import (  # noqa: E402
    CornerConsistencyError,
    EdgeCorrespondence,
    NinePatchRing,
    check_edges,
    fill_hole,
    fill_hole_deg6,
)


def show(labels, edges):
    checks = check_edges(edges)  # one batch: arrays indexed by edge
    for label, residual, ok in zip(labels, checks.link_residual, checks.ok):
        print(f"  {label:6s} edge: residual {residual:.2e}  {'PASS' if ok else 'FAIL'}")


rng = np.random.default_rng(5)
patches, lam_true = random_ring(rng)
ring = NinePatchRing.from_patches(patches)
print("ring edge constants:")
for key in sorted(ring.lambdas):
    print(f"  lambda_{key} = {ring.lambdas[key]:.4f}")

fill = fill_hole(ring)  # each alpha the mean of its edge's end lambdas
print("\n(5,5) fill constructed")
show(("bottom", "left", "top", "right"), [
    (patches[4], fill, EdgeCorrespondence("v1", "v0")),
    (patches[2], fill, EdgeCorrespondence("u1", "u0")),
    (fill, patches[6], EdgeCorrespondence("v1", "v0")),
    (fill, patches[8], EdgeCorrespondence("u1", "u0")),
])

fill6 = fill_hole_deg6(ring)
print(f"\n(6,6) fill constructed (kappa-free, cubic lambdas):")
show(("bottom", "right"), [
    (patches[4], fill6, EdgeCorrespondence("v1", "v0")),
    (fill6, patches[8], EdgeCorrespondence("u1", "u0")),
])

print("\nthe (5,5) fill with ring lambda (12) prescribed delta away from its join:")
for delta in (1e-3, 1e-2, 1e-1):
    lambdas = {**ring.lambdas, "12": ring.lambdas["12"] + delta}
    off = NinePatchRing(ring.patches, lambdas, ring.scale)
    try:
        fill_hole(off)
        print(f"  delta = {delta:6.3f}   no gap above the tolerance")
    except CornerConsistencyError as exc:
        where, gap = re.search(r"control point (\S+) doubly determined with gap (\S+) ",
                               str(exc)).groups()
        print(f"  delta = {delta:6.3f}   gap at {where} = {gap} (relative to the ring's size)")
