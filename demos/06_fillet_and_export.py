"""Bridging two surfaces with a fillet, then exporting everything to OBJ.

Two four-patch strips are cut from the outer thirds of one smooth surface;
the middle band is discarded and rebuilt: bridge patches on even rows,
hole fills in between.  The result is G1 across every interior edge.  The
composite is finally written as a Wavefront OBJ (one object per patch).

Run:  python3 demos/06_fillet_and_export.py
"""

import numpy as np

from smoothpatch import (
    BezierPatch,
    EdgeCorrespondence,
    SurfaceDocument,
    build_fillet,
    check_edges,
    export_obj,
    split_grid,
)

rng = np.random.default_rng(9)
net = np.zeros((4, 4, 3))
net[:, :, 0] = np.linspace(0, 3, 4)[:, None]
net[:, :, 1] = np.linspace(0, 4, 4)[None, :]
net[:, :, 2] = rng.normal(scale=0.5, size=(4, 4))
surface = BezierPatch.from_net(net)

columns = split_grid(surface, [1 / 3, 2 / 3], [0.25, 0.5, 0.75])
strip_a, removed, strip_b = columns

middle = build_fillet(strip_a, strip_b)
print("fillet column bi-degrees:", [(p.degree_u, p.degree_v) for p in middle])

across = EdgeCorrespondence("u1", "u0")
joins = ([(strip_a[r], middle[r], across) for r in range(4)]
         + [(middle[r], strip_b[r], across) for r in range(4)]
         + [(middle[r], middle[r + 1], EdgeCorrespondence("v1", "v0")) for r in range(3)])
# one batched check of all 11 interior edges: one residual per edge
worst = check_edges(joins).link_residual.max()
print(f"worst interior-edge residual: {worst:.2e}")

# for the uniform cut the bridges even reproduce the removed patches
gap = max(np.abs(middle[r].net - removed[r].net).max() for r in (0, 2))
print(f"bridge vs removed patch, control-point gap: {gap:.2e}")

patches = {}
for r in range(4):
    patches[f"r{1 + 3 * r}"] = strip_a[r]
    patches[f"r{2 + 3 * r}"] = middle[r]
    patches[f"r{3 + 3 * r}"] = strip_b[r]
doc = SurfaceDocument(patches=patches)
export_obj(doc, 12, 12, "fillet_demo.obj")
print("wrote fillet_demo.obj")
