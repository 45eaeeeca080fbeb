"""Completing a G1 corner: three bi-cubics in, one (5,5) patch out.

The three given patches join with constant lambdas and zero kappa.  The
construction elevates the two facing boundaries and propagates the
transverse control rows through the link polynomials.  The corner control
point (1,1) lies on both bands, and one least-squares solve pins the inner
kappa ordinates that make the two agree.  Prescribing such an ordinate
delta away from its pin instead leaves a gap there that the assembler
reports, and it grows linearly in delta.

Run:  python3 demos/04_fourth_patch.py
"""

import numpy as np

import re

from smoothpatch import (
    BezierPatch,
    CornerConsistencyError,
    EdgeCorrespondence,
    check_edges,
    complete_fourth_patch,
)
from smoothpatch.construct import _Side, _assemble  # the assembler every construction uses

rng = np.random.default_rng(3)


def wavy_patch():
    net = np.zeros((4, 4, 3))
    net[:, :, 0] = np.linspace(0, 1, 4)[:, None]
    net[:, :, 1] = np.linspace(0, 1, 4)[None, :]
    net[:, :, 2] = rng.normal(scale=0.15, size=(4, 4))
    return BezierPatch.from_net(net)


def extend(net, axis):
    # continue the two known rows/columns smoothly at random
    for k in (2, 3):
        if axis == "v":
            net[:, k] = 2 * net[:, k - 1] - net[:, k - 2] + rng.normal(scale=0.05, size=(4, 3))
        else:
            net[k] = 2 * net[k - 1] - net[k - 2] + rng.normal(scale=0.05, size=(4, 3))
    return net


# r2 right of r1 and r4 above r1, both joined with a constant lambda
r1 = wavy_patch()
lam12, lam14 = 1.4, 0.7
net2 = np.zeros((4, 4, 3))
net2[0] = r1.net[3]
net2[1] = net2[0] + lam12 * (r1.net[3] - r1.net[2])
r2 = BezierPatch.from_net(extend(net2, "u"))
net4 = np.zeros((4, 4, 3))
net4[:, 0] = r1.net[:, 3]
net4[:, 1] = net4[:, 0] + lam14 * (r1.net[:, 3] - r1.net[:, 2])
r4 = BezierPatch.from_net(extend(net4, "v"))
print(f"corner lambdas: lam12 = {lam12}, lam14 = {lam14}")

r3 = complete_fourth_patch(r1, r2, r4, alpha23=1.2 * lam14, alpha43=0.9 * lam12)
print(f"fourth patch bi-degree: ({r3.degree_u}, {r3.degree_v})")
checks = check_edges([(r2, r3, EdgeCorrespondence("v1", "v0")),
                      (r4, r3, EdgeCorrespondence("u1", "u0"))])
for label, residual, ok in zip(("r2 ~ r3", "r4 ~ r3"), checks.link_residual, checks.ok):
    print(f"  {label}: residual {residual:.2e}  {'PASS' if ok else 'FAIL'}")

print("\ncorner gap with beta1 of the (2,3)-link prescribed delta from its pin (0 here):")
left = _Side(r4, "u1", [lam12] * 3, [0.0] * 4)  # r4's join, lambda = lam12, kappa = 0
for delta in (0.0, 1e-3, 1e-2, 1e-1):
    bottom = _Side(r2, "v1", [lam14] * 3, [0.0, delta, 0.0, 0.0])  # r2's join
    try:
        _assemble(5, 1.0, [left, bottom])
        gap = "below the 1e-9 tolerance"
    except CornerConsistencyError as exc:
        gap = re.search(r"with gap (\S+) ", str(exc)).group(1)
    print(f"  delta = {delta:7.4f}   gap at (1,1) = {gap}")
