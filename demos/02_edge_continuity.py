"""Checking tangent-plane (G1) and curvature (G2) continuity across an edge.

Three pairs of patches share a boundary curve:

  1. two halves of one smooth surface           -> G1 and G2 pass
  2. a planar patch and a faster-moving planar
     neighbour (different parametric speeds)    -> G1 passes anyway
  3. the same pair folded by 30 degrees         -> both tests fail

Each one-edge check is a batch of one: its result holds arrays whose first
index is the edge, as ``check_edges`` returns them for many edges, and its
link columns ``lam`` and ``kap`` are the edge's link functions, sampled.

Run:  python3 demos/02_edge_continuity.py
"""

import numpy as np

from smoothpatch import (
    BezierPatch,
    EdgeCorrespondence,
    check_g1_edge,
    check_g2_edge,
    split_patch,
)

corr = EdgeCorrespondence("u1", "u0")


def show(label, checks):
    print(f"{label:34s} link {checks.link_residual[0]:9.2e}   "
          f"oracle {checks.oracle_residual[0]:9.2e}   "
          f"{'PASS' if checks.ok[0] else 'FAIL'}")


# 1. split halves: the link solver recovers lambda == 1, kappa == 0
rng = np.random.default_rng(1)
net = np.zeros((4, 4, 3))
net[:, :, 0] = np.linspace(0, 2, 4)[:, None]
net[:, :, 1] = np.linspace(0, 2, 4)[None, :]
net[:, :, 2] = rng.normal(scale=0.3, size=(4, 4))
left, right = split_patch(BezierPatch.from_net(net), u=0.5)
g1 = check_g1_edge(left, right, corr)
print("split halves: lambda =", np.round(g1.lam[0, 0], 12),
      " kappa =", np.round(g1.kap[0, 0], 12))
show("split halves, G1", g1)
show("split halves, G2", check_g2_edge(left, right, corr))

# 2. geometric continuity is parametrization independent: the neighbour
# crosses the edge three times faster and shears sideways, yet the tangent
# planes agree
flat = BezierPatch.from_net([[[0, 0, 0], [0, 1, 0]], [[1, 0, 0], [1, 1, 0]]])
fast = BezierPatch.from_net([[[1, 0, 0], [1, 1, 0]], [[4, 1, 0], [4, 2, 0]]])
g1 = check_g1_edge(flat, fast, corr)
print("\nmismatched speeds: lambda =", g1.lam[0, 0], " kappa =", g1.kap[0, 0])
show("coplanar, mismatched speeds", g1)

# 3. a 30 degree crease breaks both the link test and the normal oracle
angle = np.pi / 6
c, s = np.cos(angle), np.sin(angle)
folded = BezierPatch.from_net(
    [[[1, 0, 0], [1, 1, 0]], [[1 + c, 0, s], [1 + c, 1, s]]])
show("creased by 30 degrees", check_g1_edge(flat, folded, corr))
