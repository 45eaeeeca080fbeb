"""Bezier patch basics: evaluation, derivatives, degree elevation, splitting.

Run:  python3 demos/01_bezier_basics.py
"""

import numpy as np

from smoothpatch import BezierPatch, elevate_row, eval_grid, split_patch

# A bi-cubic patch: a gently waving sheet over the unit square.
rng = np.random.default_rng(0)
net = np.zeros((4, 4, 3))
net[:, :, 0] = np.linspace(0, 1, 4)[:, None]
net[:, :, 1] = np.linspace(0, 1, 4)[None, :]
net[:, :, 2] = 0.25 * np.sin(np.linspace(0, np.pi, 4))[:, None] * np.cos(
    np.linspace(0, np.pi, 4))[None, :]
patch = BezierPatch.from_net(net)


def at(p, u, v):
    """The point of p at (u, v): eval_grid on a one-point grid."""
    return eval_grid(p, [u], [v])[0, 0]


print("corner (0,0):", at(patch, 0.0, 0.0))
print("midpoint    :", at(patch, 0.5, 0.5))

# A partial derivative is a patch too: difference the net along u, times
# the degree, for r_u, and that net along v for r_uv.
r_u = BezierPatch.from_net(3 * np.diff(net, axis=0))
r_uv = BezierPatch.from_net(3 * np.diff(r_u.net, axis=1))
print("r_u at mid  :", at(r_u, 0.5, 0.5))
print("r_uv at mid :", at(r_uv, 0.5, 0.5))

# Degree elevation rewrites a cubic row exactly at degree five.  The curve
# does not move; only its control polygon gains points.
row = net[:, 0]
quintic = elevate_row(row, 5)
print("\ncubic row   :", np.round(row[:, 0], 3))
print("quintic row :", np.round(quintic[:, 0], 3))

# De Casteljau subdivision is exact: both halves re-trace the original.
left, right = split_patch(patch, u=0.5)
print("\noriginal at (0.25, 0.7): ", at(patch, 0.25, 0.7))
print("left half at (0.5, 0.7): ", at(left, 0.5, 0.7))

# export samples every patch on a grid like this and writes two triangles per cell.
grid = eval_grid(patch, np.linspace(0, 1, 9), np.linspace(0, 1, 9))
print(f"\n9 x 9 grid: {grid.shape[0] * grid.shape[1]} vertices, {2 * 8 * 8} triangles")
