"""Filling the centre of a nine-patch ring at bi-degree (5,5) and (6,6).

A ring of eight bi-cubics with an independent lambda constant on each join
surrounds a missing centre patch.  With quadratic lambdas and cubic kappas
on the hole edges, four free alpha ordinates remain; the eight beta
ordinates then follow from the corner compatibility constraints and a
(5,5) patch closes the hole G1-smoothly.  With kappa forced to zero the
lambdas must become cubic and the patch bi-degree (6,6).

Run:  python3 demos/05_hole_filling.py
"""

import pathlib
import sys

import numpy as np

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent / "tests"))
from helpers import random_ring  # noqa: E402

from smoothpatch import (  # noqa: E402
    EdgeCorrespondence,
    NinePatchRing,
    check_edges,
    fill_hole,
    fill_hole_deg6,
    hole_constraint_residuals,
    hole_twist_checks,
    solve_hole_params,
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

params = solve_hole_params(ring)
print("\nresolved free coefficients (alpha / beta1 / beta2 per edge):")
for i, side in ((4, "bottom"), (2, "left"), (6, "top"), (8, "right")):
    print(f"  {side:6s}: {params.alpha[i]:+.4f} / {params.beta1[i]:+.4f} / "
          f"{params.beta2[i]:+.4f}")
print("constraint residuals:", f"{hole_constraint_residuals(ring, params).max():.2e}")

fill = fill_hole(ring, params)
print(f"\n(5,5) fill constructed; corner twist gaps:")
for corner, twist in hole_twist_checks(ring, params).items():
    print(f"  {corner:12s} {twist.difference:.2e}")

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
