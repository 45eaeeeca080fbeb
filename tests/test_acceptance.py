"""Acceptance suite: one test per criterion, tolerances pinned.

Each test prints a single pass line on success (visible with ``pytest -v``
through the test outcome, and with ``-s`` through the printed line).
"""

import re
from fractions import Fraction

import numpy as np

from smoothpatch.bezier import (
    BezierPatch,
    bernstein_basis,
    elevation_matrix,
    elevate_row,
    split_grid,
    split_patch,
)
from smoothpatch.continuity import (
    CornerConfig,
    CornerConsistencyError,
    EdgeCorrespondence,
    check_edges,
    check_g1_edge,
    check_vertex_g1,
    check_vertex_g2,
    theorem1_residuals,
)
from smoothpatch.construct import (
    NinePatchRing,
    build_fillet,
    complete_fourth_patch,
    fill_hole,
    fill_hole_deg6,
)
from smoothpatch.construct import _Side, _assemble

from helpers import (
    assembled_sides,
    constructive_corner,
    creased_pair,
    g1_pair,
    quad_split_config,
    random_ring,
    smooth_patch,
    uniform_ring,
    write_gaps,
)


def _report(n, text):
    print(f"[acceptance] criterion {n:2d}: PASS - {text}")


def test_criterion_01_degree_elevation_table():
    mat = elevation_matrix(3, 5)
    exact = {
        (0, 0): Fraction(1),
        (1, 0): Fraction(2, 5), (1, 1): Fraction(3, 5),
        (2, 0): Fraction(1, 10), (2, 1): Fraction(6, 10), (2, 2): Fraction(3, 10),
        (3, 1): Fraction(3, 10), (3, 2): Fraction(6, 10), (3, 3): Fraction(1, 10),
        (4, 2): Fraction(3, 5), (4, 3): Fraction(2, 5),
        (5, 3): Fraction(1),
    }
    for i in range(6):
        for j in range(4):
            assert mat[i, j] == float(exact.get((i, j), Fraction(0)))
    rng = np.random.default_rng(2024)
    t = np.linspace(0.0, 1.0, 101)
    b3 = bernstein_basis(3, t)
    b5 = bernstein_basis(5, t)
    worst = 0.0
    for _ in range(100):
        row = rng.normal(size=(4, 3))
        deviation = np.abs(b3 @ row - b5 @ elevate_row(row, 5)).max()
        worst = max(worst, deviation)
    assert worst < 1e-12
    _report(1, f"elevation coefficients exact, max curve deviation {worst:.2e} < 1e-12")


def test_criterion_02_theorem1_soundness():
    worst = 0.0
    weakest_perturbed = np.inf
    for seed in range(5):
        rng = np.random.default_rng(3000 + seed)
        _, p1, p2, p3, p4 = quad_split_config(rng)
        config = CornerConfig.from_patches(p1, p2, p3, p4)
        rep = check_vertex_g1(config)
        assert rep.ok
        worst = max(worst, rep.g1_residuals.max(), rep.lambda_product_residual)
        # move the boundary point next to V on the 1-2 edge in both patches:
        # G0 holds, the tangent plane at V tilts
        du, dv = p1.degree_u, p1.degree_v
        net1, net2 = p1.net.copy(), p2.net.copy()
        net1[du, dv - 1] += np.array([0.0, 0.0, 1e-2])
        net2[0, dv - 1] += np.array([0.0, 0.0, 1e-2])
        perturbed = CornerConfig.from_patches(
            BezierPatch.from_net(net1), BezierPatch.from_net(net2), p3, p4)
        prep = check_vertex_g1(perturbed)
        moved = max(prep.g1_residuals.max(), prep.lambda_product_residual)
        assert moved > 1e-4
        weakest_perturbed = min(weakest_perturbed, moved)
    assert worst < 1e-8
    _report(2, f"vertex residuals {worst:.2e} < 1e-8; perturbed >= "
               f"{weakest_perturbed:.2e} > 1e-4")


def test_criterion_03_theorem2_soundness():
    worst = 0.0
    for seed in range(5):
        rng = np.random.default_rng(4000 + seed)
        _, p1, p2, p3, p4 = quad_split_config(rng)
        config = CornerConfig.from_patches(p1, p2, p3, p4)
        config = config.solve_g2()
        rep = check_vertex_g2(config)
        assert rep.ok
        worst = max(worst, rep.g2_residuals.max())
    assert worst < 1e-6
    # kappa == 0 / constant lambda reduction on plain de Casteljau splits
    worst_reduction = 0.0
    for seed in range(5):
        rng = np.random.default_rng(4100 + seed)
        g = smooth_patch(rng, 4, 4)
        ll, hl, lh, hh = split_patch(g, u=0.4 + 0.2 * rng.uniform(), v=0.5)
        config = CornerConfig.from_patches(ll, hl, hh, lh)
        config = config.solve_g2()
        rep = check_vertex_g2(config)
        vals = rep.vertex_values
        reductions = [
            vals["12"]["nu"] - vals["43"]["nu"] * vals["14"]["lam"],
            vals["14"]["nu"] - vals["23"]["nu"] * vals["12"]["lam"],
            vals["12"]["mu"] - vals["43"]["mu"],
            vals["14"]["mu"] - vals["23"]["mu"],
        ]
        worst_reduction = max(worst_reduction, max(abs(r) for r in reductions),
                              rep.g2_residuals.max())
    assert worst_reduction < 1e-10
    _report(3, f"six residuals {worst:.2e} < 1e-6; affine reduction "
               f"{worst_reduction:.2e} < 1e-10")


def test_criterion_04_lambda_product_identity():
    rng = np.random.default_rng(5000)
    worst = 0.0
    count = 0
    while count < 1000:
        lam43 = rng.uniform(-3, 3)
        kap43 = rng.uniform(-1.5, 1.5)
        kap23 = rng.uniform(-1.5, 1.5)
        lam14 = rng.uniform(-3, 3)
        if abs(1.0 - kap23 * kap43) < 1e-2:
            continue
        lam12 = lam43 / (1.0 - kap23 * kap43)
        kap12 = lam14 * kap43
        kap14 = lam12 * kap23
        lam23 = lam14 - kap12 * kap23
        vals = (lam12, kap12, lam14, kap14, lam23, kap23, lam43, kap43)
        if max(abs(v) for v in vals) > 3.0:
            continue
        res, product = theorem1_residuals(*vals)
        assert res.max() < 1e-12  # the construction satisfies the conditions
        assert product < 1e-12
        worst = max(worst, product)
        count += 1
    _report(4, f"1000 solutions, lambda-product residual {worst:.2e} < 1e-12")


def test_criterion_05_fourth_patch_completion():
    worst_edge = 0.0
    worst_corner = 0.0
    rng = np.random.default_rng(6000)
    for _ in range(50):
        r1, r2, r4, lam12, lam14 = constructive_corner(rng)
        alpha23 = rng.uniform(0.5, 2.0)
        alpha43 = rng.uniform(0.5, 2.0)
        with assembled_sides() as seen:
            r3 = complete_fourth_patch(r1, r2, r4, alpha23=alpha23, alpha43=alpha43)
        assert (r3.degree_u, r3.degree_v) == (5, 5)
        checks = check_edges([(r2, r3, EdgeCorrespondence("v1", "v0")),
                              (r4, r3, EdgeCorrespondence("u1", "u0"))])
        assert checks.ok.all() and (checks.link_residual < 1e-9).all()
        worst_edge = max(worst_edge, checks.link_residual.max())
        # the corner point (1,1), as the two bands write it with the pinned ordinates
        ((m, sides),) = seen
        q11_gap = write_gaps(m, sides)[1, 1]
        assert q11_gap < 1e-12
        worst_corner = max(worst_corner, q11_gap)
    _report(5, f"50 corners: edge residual {worst_edge:.2e} < 1e-9, "
               f"corner point gap {worst_corner:.2e} < 1e-12")


def _hole_edge_residuals(patches, fill):
    checks = check_edges([
        (patches[4], fill, EdgeCorrespondence("v1", "v0")),
        (patches[2], fill, EdgeCorrespondence("u1", "u0")),
        (fill, patches[6], EdgeCorrespondence("v1", "v0")),
        (fill, patches[8], EdgeCorrespondence("u1", "u0")),
    ])
    return list(zip(checks.ok.tolist(), checks.link_residual.tolist()))


def test_criterion_06_hole_filling_deg5():
    rng = np.random.default_rng(7000)
    patches, center = uniform_ring(rng)
    ring = NinePatchRing.from_patches(patches)
    fill = fill_hole(ring, (1, 1, 1, 1))
    up = elevation_matrix(3, 5)
    elevated = np.einsum("ik,klc,jl->ijc", up, center.net, up)
    band_gap = np.abs(fill.net[:, :2] - elevated[:, :2]).max()
    assert band_gap < 1e-11
    for ok, residual in _hole_edge_residuals(patches, fill):
        assert ok and residual < 1e-9
    worst_edge = 0.0
    worst_constraint = 0.0
    for seed in range(20):
        patches, _ = random_ring(np.random.default_rng(7100 + seed))
        ring = NinePatchRing.from_patches(patches)
        with assembled_sides() as seen:
            fill = fill_hole(ring)
        # the compatibility constraints hold where the doubly determined points agree
        ((m, sides),) = seen
        worst_constraint = max(worst_constraint, max(write_gaps(m, sides).values()) / ring.scale)
        assert worst_constraint < 1e-14
        for ok, residual in _hole_edge_residuals(patches, fill):
            assert ok and residual < 1e-8
            worst_edge = max(worst_edge, residual)
    _report(6, f"uniform ring band gap {band_gap:.2e} < 1e-11; 20 random rings: "
               f"edges {worst_edge:.2e} < 1e-8, constraints {worst_constraint:.2e} < 1e-14")


def test_criterion_07_hole_filling_deg6():
    worst_edge = 0.0
    for seed in range(20):
        patches, lam = random_ring(np.random.default_rng(7200 + seed))
        ring = NinePatchRing.from_patches(patches)
        fill = fill_hole_deg6(ring)
        assert (fill.degree_u, fill.degree_v) == (6, 6)
        for ok, residual in _hole_edge_residuals(patches, fill):
            assert ok and residual < 1e-8
            worst_edge = max(worst_edge, residual)
        # the inner cubic ordinates are pinned to the ring constants exactly
        link = check_g1_edge(patches[4], fill, EdgeCorrespondence("v1", "v0"))
        np.testing.assert_allclose(
            link.lam[0],
            bernstein_basis(3, link.ts) @ [lam["12"], lam["12"], lam["78"], lam["78"]],
            atol=1e-8)
    _report(7, f"20 rings at (6,6): edges {worst_edge:.2e} < 1e-8, pinning exact")


def test_criterion_08_corner_gap_linearity():
    # beta1 of the (2,3)-link prescribed delta away from its pin: the assembler
    # reports the corner point's gap, which grows linearly in delta
    rng = np.random.default_rng(8000)
    r1, r2, r4, lam12, lam14 = constructive_corner(rng)
    left = _Side(r4, "u1", [lam12] * 3, [0.0] * 4)
    gaps = []
    for delta in (1e-3, 1e-2, 1e-1):
        bottom = _Side(r2, "v1", [lam14] * 3, [0.0, delta, 0.0, 0.0])
        try:
            _assemble(5, 1.0, [left, bottom])
        except CornerConsistencyError as exc:
            gap = float(re.search(r"\(1,1\) doubly determined with gap (\S+) ", str(exc)).group(1))
        else:
            gap = 0.0
        assert gap > 0.0
        gaps.append(gap)
    r1_ratio = gaps[1] / gaps[0]
    r2_ratio = gaps[2] / gaps[1]
    assert abs(r1_ratio - 10.0) < 0.5
    assert abs(r2_ratio - 10.0) < 0.5
    _report(8, f"corner gap grows linearly in delta (ratios {r1_ratio:.3f}, {r2_ratio:.3f})")


def test_criterion_09_fillet():
    rng = np.random.default_rng(9000)
    g = smooth_patch(rng, span=3.0, z_scale=0.4)
    cols = split_grid(g, [1 / 3, 2 / 3], [0.25, 0.5, 0.75])
    strip_a, strip_b = cols[0], cols[2]
    middle = build_fillet(strip_a, strip_b)
    grid = [strip_a, middle, strip_b]
    checks = check_edges(
        [(grid[c][r], grid[c + 1][r], EdgeCorrespondence("u1", "u0"))
         for r in range(4) for c in range(2)]
        + [(grid[c][r], grid[c][r + 1], EdgeCorrespondence("v1", "v0"))
           for r in range(3) for c in range(3)])
    assert checks.ok.all() and (checks.link_residual < 1e-9).all()
    worst_edge = checks.link_residual.max()
    worst_vertex = 0.0
    for c in range(2):
        for r in range(3):
            config = CornerConfig.from_patches(
                grid[c][r], grid[c + 1][r], grid[c + 1][r + 1], grid[c][r + 1])
            rep = check_vertex_g1(config)
            assert rep.ok
            worst_vertex = max(worst_vertex, rep.g1_residuals.max(),
                               rep.lambda_product_residual)
    assert worst_vertex < 1e-8
    _report(9, f"N=4 fillet: 17 interior edges {worst_edge:.2e} < 1e-9, "
               f"6 interior vertices {worst_vertex:.2e} < 1e-8")


def test_criterion_10_oracle_agreement():
    disagreements = 0
    for seed in range(100):
        a, b, _, _ = g1_pair(np.random.default_rng(10_000 + seed))
        rep = check_g1_edge(a, b, EdgeCorrespondence("u1", "u0"))
        assert rep.link_ok[0] and rep.oracle_ok[0]  # both say pass
        disagreements += rep.link_ok[0] != rep.oracle_ok[0]
        a, b = creased_pair(np.random.default_rng(20_000 + seed))
        rep = check_g1_edge(a, b, EdgeCorrespondence("u1", "u0"))
        assert (not rep.link_ok[0]) and (not rep.oracle_ok[0])  # both say fail
        disagreements += rep.link_ok[0] != rep.oracle_ok[0]
    assert disagreements == 0
    _report(10, "link and normal oracles agree on 100 pass + 100 crease instances")
