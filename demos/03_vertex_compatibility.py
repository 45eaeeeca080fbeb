"""Compatibility conditions where four patches meet at a vertex.

Four patches cut from one smooth bi-quartic along a slanted interior cross
are reassembled into the canonical corner arrangement.  Their link
functions are genuinely non-constant and the vertex kappas non-zero, yet
the first- and second-order compatibility residuals vanish; nudging the
boundary control point next to the vertex on one shared edge breaks them
immediately.

Run:  python3 demos/03_vertex_compatibility.py
(the configuration generator is borrowed from the test-suite oracles)
"""

import pathlib
import sys

import numpy as np

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent / "tests"))
from helpers import quad_split_config  # noqa: E402  (oracle generator)

from smoothpatch import BezierPatch, CornerConfig, check_vertex_g1, check_vertex_g2  # noqa: E402

rng = np.random.default_rng(7)
_, p1, p2, p3, p4 = quad_split_config(rng)

config = CornerConfig.from_patches(p1, p2, p3, p4)
report = check_vertex_g1(config)
values = report.vertex_values
print("link values at the vertex:")
for key in ("12", "14", "23", "43"):
    entry = values[key]
    print(f"  edge {key}: lambda = {entry['lam']:+.4f}   kappa = {entry['kap']:+.4f}")
print("first-order residuals :", np.array2string(report.g1_residuals, precision=2))
print("lambda-product residual:", f"{report.lambda_product_residual:.2e}")
print("verdict:", "PASS" if report.ok else "FAIL")

report2 = check_vertex_g2(config)  # from_patches already gives the second-order values
print("\nsecond-order residuals:", np.array2string(report2.g2_residuals, precision=2))
print("verdict:", "PASS" if report2.g2_ok else "FAIL")

# move the shared boundary point next to V on the 1-2 edge by 0.01 in both
# patches: the boundaries still meet, but the tangent plane at V tilts
du, dv = p1.degree_u, p1.degree_v
net1, net2 = p1.net.copy(), p2.net.copy()
net1[du, dv - 1] += np.array([0.0, 0.0, 1e-2])
net2[0, dv - 1] += np.array([0.0, 0.0, 1e-2])
broken = CornerConfig.from_patches(BezierPatch.from_net(net1), BezierPatch.from_net(net2),
                                   p3, p4)
report3 = check_vertex_g1(broken)
print("\nafter a 1e-2 boundary perturbation:")
print("first-order residuals :", np.array2string(report3.g1_residuals, precision=2))
print("verdict:", "PASS" if report3.ok else "FAIL")
