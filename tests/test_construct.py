"""Tests for the constructive algorithms: bands, fourth patch, holes, fillets."""

import contextlib
import functools
import io
import json
import re
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import smoothpatch.construct as construct
from smoothpatch.bezier import (
    BezierPatch,
    bernstein_basis,
    bounding_diagonal,
    elevate_row,
    elevation_matrix,
    split_grid,
    transform_patch,
)
from smoothpatch.cli import main
from smoothpatch.continuity import (
    CornerConfig,
    CornerConsistencyError,
    DegenerateLinkError,
    EdgeCorrespondence,
    PreconditionError,
    check_edges,
    check_g1_edge,
    check_vertex_g1,
)
from smoothpatch.construct import (
    HoleFillParams,
    LinkCoefficients,
    NinePatchRing,
    build_fillet,
    complete_fourth_patch,
    default_interior,
    fill_hole,
    fill_hole_deg6,
    fourth_patch_twist_check,
    g1_band_offsets,
    hole_constraint_residuals,
    hole_twist_checks,
    solve_hole_params,
)
from smoothpatch.construct import _Side, _assemble, _hole_sides, _pinned_endpoints

from helpers import (
    assemble_reference,
    constructive_corner,
    flat_crease_pair,
    kappa_corner,
    random_ring,
    random_strips,
    rigid_motion,
    scaled_by_power_of_two,
    smooth_patch,
    split_corner,
    uniform_ring,
)


def ring_from(patches):
    return NinePatchRing.from_patches(patches)


def hole_edge_checks(patches, fill):
    return check_edges([
        (patches[4], fill, EdgeCorrespondence("v1", "v0", a="4", b="5")),
        (patches[2], fill, EdgeCorrespondence("u1", "u0", a="2", b="5")),
        (fill, patches[6], EdgeCorrespondence("v1", "v0", a="5", b="6")),
        (fill, patches[8], EdgeCorrespondence("u1", "u0", a="5", b="8")),
    ])


# --- row propagation ---------------------------------------------------------

def test_row_from_link_uniform_first_relation():
    rng = np.random.default_rng(60)
    p = smooth_patch(rng)
    coeffs = LinkCoefficients(1.0, 1.0, 1.0)  # lambda == 1, kappa == 0
    offsets = g1_band_offsets(p.net[:, 3], p.net[:, 2],
                              coeffs.lambda_ordinates, coeffs.kappa_ordinates)
    np.testing.assert_allclose(offsets[0], 3.0 * (p.net[0, 3] - p.net[0, 2]), atol=1e-14)


def test_row_from_link_zero_cross_derivative():
    rng = np.random.default_rng(61)
    p = smooth_patch(rng)
    coeffs = LinkCoefficients(rng.uniform(0.5, 2), rng.uniform(0.5, 2), rng.uniform(0.5, 2))
    offsets = g1_band_offsets(p.net[:, 3], p.net[:, 3],
                              coeffs.lambda_ordinates, coeffs.kappa_ordinates)
    np.testing.assert_allclose(offsets, 0.0, atol=1e-14)


def test_row_from_link_matches_displayed_relations():
    # independent oracle: the six displayed relations, transcribed literally
    rng = np.random.default_rng(62)
    bnd = rng.normal(size=(4, 3))
    inr = rng.normal(size=(4, 3))
    l0, a, l1 = rng.uniform(0.5, 2.0, size=3)
    k0, b1, b2, k1 = rng.uniform(-0.5, 0.5, size=4)
    d = bnd - inr
    e = bnd[1:] - bnd[:-1]
    expected = 3.0 * np.array([
        l0 * d[0] + k0 * e[0],
        3 * l0 / 5 * d[1] + 2 * a / 5 * d[0] + 2 * k0 / 5 * e[1] + 3 * b1 / 5 * e[0],
        3 * l0 / 10 * d[2] + 6 * a / 10 * d[1] + l1 / 10 * d[0]
        + k0 / 10 * e[2] + 6 * b1 / 10 * e[1] + 3 * b2 / 10 * e[0],
        l0 / 10 * d[3] + 6 * a / 10 * d[2] + 3 * l1 / 10 * d[1]
        + 3 * b1 / 10 * e[2] + 6 * b2 / 10 * e[1] + k1 / 10 * e[0],
        2 * a / 5 * d[3] + 3 * l1 / 5 * d[2] + 3 * b2 / 5 * e[2] + 2 * k1 / 5 * e[1],
        l1 * d[3] + k1 * e[2],
    ])
    coeffs = LinkCoefficients(l0, a, l1, k0, b1, b2, k1)
    got = g1_band_offsets(bnd, inr, coeffs.lambda_ordinates, coeffs.kappa_ordinates)
    np.testing.assert_allclose(got, expected, atol=1e-13)


def test_row_from_link_satisfies_derivative_identity():
    # assembled rows reproduce lambda * r_v + kappa * r_u along the edge
    rng = np.random.default_rng(63)
    for _ in range(5):
        p = smooth_patch(rng)
        coeffs = LinkCoefficients(*rng.uniform(0.5, 2.0, size=3),
                                  *rng.uniform(-0.5, 0.5, size=4))
        m = 5
        row0 = elevate_row(p.net[:, 3], 5)
        row1 = row0 + g1_band_offsets(p.net[:, 3], p.net[:, 2], coeffs.lambda_ordinates,
                                      coeffs.kappa_ordinates) / m
        t = np.linspace(0.0, 1.0, 101)
        lhs = m * bernstein_basis(5, t) @ (row1 - row0)
        lam = bernstein_basis(2, t) @ coeffs.lambda_ordinates
        kap = bernstein_basis(3, t) @ coeffs.kappa_ordinates
        r_v = 3.0 * bernstein_basis(3, t) @ (p.net[:, 3] - p.net[:, 2])
        r_u = 3.0 * bernstein_basis(2, t) @ (p.net[1:, 3] - p.net[:-1, 3])
        rhs = lam[:, None] * r_v + kap[:, None] * r_u
        assert np.abs(lhs - rhs).max() < 1e-11


def test_row_from_link_validates_arguments():
    rng = np.random.default_rng(64)
    p = smooth_patch(rng)
    with pytest.raises(ValueError):
        g1_band_offsets(p.net[:, 3], p.net[:, 2], [1.0, 1.0], [0.0, 0.0])


# --- fourth patch ------------------------------------------------------------

def test_fourth_patch_subdivision_corner():
    rng = np.random.default_rng(65)
    _, p1, p2, p4, _ = split_corner(rng)
    r3 = complete_fourth_patch(p1, p2, p4)
    assert (r3.degree_u, r3.degree_v) == (5, 5)
    for a, b, corr in (
        (p2, r3, EdgeCorrespondence("v1", "v0")),
        (p4, r3, EdgeCorrespondence("u1", "u0")),
    ):
        rep = check_g1_edge(a, b, corr)
        assert rep.ok and rep.link_residual < 1e-9


def test_fourth_patch_default_betas_vanish_for_uniform_corner():
    # alpha defaults equal the corner lambdas, so the coefficient constraints
    # force both inner kappa ordinates to zero and the link stays kappa-free
    rng = np.random.default_rng(66)
    _, p1, p2, p4, _ = split_corner(rng)
    r3 = complete_fourth_patch(p1, p2, p4, alpha23=1.0, alpha43=1.0)
    link = check_g1_edge(p2, r3, EdgeCorrespondence("v1", "v0"))
    np.testing.assert_allclose(link.kap[0], 0.0, atol=1e-11)


def test_fourth_patch_beta_algebra():
    # alpha43 = lam12 + 1.5 * lam12 * b forces beta1_23 = b exactly; verify
    # that the resulting link's kappa is the cubic with ordinates (0, b, 0, 0)
    rng = np.random.default_rng(67)
    b = 0.37
    r1, r2, r4, lam12, lam14 = constructive_corner(rng)
    r3 = complete_fourth_patch(r1, r2, r4, alpha43=lam12 + 1.5 * lam12 * b)
    link = check_g1_edge(r2, r3, EdgeCorrespondence("v1", "v0"))
    np.testing.assert_allclose(
        link.kap[0], bernstein_basis(3, link.ts) @ [0.0, b, 0.0, 0.0], atol=1e-9)


def test_fourth_patch_vertex_compatibility():
    rng = np.random.default_rng(68)
    r1, r2, r4, _, _ = constructive_corner(rng)
    r3 = complete_fourth_patch(r1, r2, r4)
    config = CornerConfig.from_patches(r1, r2, r3, r4)
    rep = check_vertex_g1(config)
    assert rep.ok and rep.g1_residuals.max() < 1e-8


def test_fourth_patch_nonzero_kappa_corner_variant():
    rng = np.random.default_rng(69)
    r1, r2, r4, _, _ = kappa_corner(rng, kap12_0=0.35, kap14_0=-0.25)
    r3 = complete_fourth_patch(r1, r2, r4)
    for a, b, corr in (
        (r2, r3, EdgeCorrespondence("v1", "v0")),
        (r4, r3, EdgeCorrespondence("u1", "u0")),
    ):
        assert check_g1_edge(a, b, corr).ok


def test_fourth_patch_rejects_creased_corner():
    a, b = flat_crease_pair(np.pi / 7)
    # grow the flat pieces to bi-cubic via degree elevation
    up = elevation_matrix(1, 3)
    r1 = BezierPatch(3, 3, np.einsum("ik,klc,jl->ijc", up, a.net, up))
    r2 = BezierPatch(3, 3, np.einsum("ik,klc,jl->ijc", up, b.net, up))
    rng = np.random.default_rng(70)
    from helpers import g1_join_up
    r4 = g1_join_up(r1, rng, 1.0)
    with pytest.raises(PreconditionError):
        complete_fourth_patch(r1, r2, r4)


def test_fourth_patch_degree44_mode():
    rng = np.random.default_rng(71)
    r1, r2, r4, lam12, lam14 = constructive_corner(rng)
    lam43_1 = lam12 * 1.4
    lam23_1 = lam14 * 0.8
    r3 = complete_fourth_patch(r1, r2, r4, degree=4,
                               lambda23_1=lam23_1, lambda43_1=lam43_1)
    assert (r3.degree_u, r3.degree_v) == (4, 4)
    for a, b, corr in (
        (r2, r3, EdgeCorrespondence("v1", "v0")),
        (r4, r3, EdgeCorrespondence("u1", "u0")),
    ):
        assert check_g1_edge(a, b, corr).ok


def test_fourth_patch_degree44_rejects_kappa_corner():
    rng = np.random.default_rng(72)
    r1, r2, r4, _, _ = kappa_corner(rng)
    with pytest.raises(PreconditionError):
        complete_fourth_patch(r1, r2, r4, degree=4)


def test_twist_check_zero_when_constraints_hold():
    rng = np.random.default_rng(73)
    r1, r2, r4, lam12, lam14 = constructive_corner(rng)
    alpha23, alpha43 = lam14 * 1.2, lam12 * 0.9
    c23 = LinkCoefficients(lam14, alpha23, lam14, 0.0,
                           2 * (alpha43 - lam12) / (3 * lam12), 0.0, 0.0)
    c43 = LinkCoefficients(lam12, alpha43, lam12, 0.0,
                           2 * (alpha23 - lam14) / (3 * lam14), 0.0, 0.0)
    t = fourth_patch_twist_check(r2, r4, c23, c43)
    assert t.difference < 1e-10


def test_twist_check_linear_in_violation():
    rng = np.random.default_rng(74)
    r1, r2, r4, lam12, lam14 = constructive_corner(rng)
    c43 = LinkCoefficients(lam12, lam12, lam12)
    diffs = []
    for delta in (1e-3, 1e-2, 1e-1):
        c23 = LinkCoefficients(lam14, lam14, lam14, 0.0, delta, 0.0, 0.0)
        t = fourth_patch_twist_check(r2, r4, c23, c43)
        predicted = 9.0 * abs(lam12 * delta) * np.linalg.norm(r1.net[3, 3] - r1.net[2, 3])
        assert abs(t.difference - predicted) < 0.05 * predicted
        diffs.append(t.difference)
    assert abs(diffs[1] / diffs[0] - 10.0) < 0.5
    assert abs(diffs[2] / diffs[1] - 10.0) < 0.5


def _corner_sides(r2, r4, lam12, lam14):
    """The fourth patch's two joins with ordinates that meet the corner constraint."""
    alpha23, alpha43 = lam14 * 1.2, lam12 * 0.9
    c23 = LinkCoefficients(lam14, alpha23, lam14, 0.0,
                           2 * (alpha43 - lam12) / (3 * lam12), 0.0, 0.0)
    c43 = LinkCoefficients(lam12, alpha43, lam12, 0.0,
                           2 * (alpha23 - lam14) / (3 * lam14), 0.0, 0.0)
    return [_Side(r4, "u1", c43.lambda_ordinates, c43.kappa_ordinates),
            _Side(r2, "v1", c23.lambda_ordinates, c23.kappa_ordinates)]


def test_assemble_rejects_a_doubly_determined_point_and_names_it():
    rng = np.random.default_rng(96)
    r1, r2, r4, lam12, lam14 = constructive_corner(rng)
    scale = bounding_diagonal(r1, r2, r4)
    left, bottom = _corner_sides(r2, r4, lam12, lam14)
    net = _assemble(5, scale, [left, bottom])
    assert not np.isnan(net[:2]).any() and not np.isnan(net[:, :2]).any()
    assert np.isnan(net[2:, 2:]).all()
    # beta1 of the (2,3)-link off by 0.1 breaks the corner constraint at (1,1).
    # With kappa0 off, its band disagrees with the left boundary at (0,1): as
    # boundaries are written before bands, the band is reported, in either order.
    for shift, message in (([0.0, 0.1, 0.0, 0.0], r"control point \(1,1\) "),
                           ([0.1, 0.0, 0.0, 0.0], r"control point \(0,1\) .*\(band across v1\)")):
        bad = bottom._replace(kap=np.add(bottom.kap, shift))
        for order in ([left, bad], [bad, left]):
            with pytest.raises(CornerConsistencyError, match=message):
                _assemble(5, scale, order)


@functools.cache
def _assembly_cases():
    """(degree, scale, sides) of a fourth patch and of (5,5), (6,6) and open-top hole fills."""
    r1, r2, r4, lam12, lam14 = constructive_corner(np.random.default_rng(98))
    cases = [(5, bounding_diagonal(r1, r2, r4), _corner_sides(r2, r4, lam12, lam14))]
    ring = ring_from(random_ring(np.random.default_rng(99))[0])
    ends = _pinned_endpoints(ring)
    deg6 = HoleFillParams(mode="deg6", alpha={}, alpha1={i: ends[i][0] for i in ends},
                          alpha2={i: ends[i][1] for i in ends})
    open_top = NinePatchRing({k: ring.patches[k] for k in (2, 4, 8)}, ring.lambdas, ring.scale)
    for r, params in ((ring, solve_hole_params(ring)), (ring, deg6),
                      (open_top, solve_hole_params(ring))):
        m, sides = _hole_sides(r, params)
        cases.append((m, r.scale, sides))
    return cases


@settings(max_examples=200, deadline=None)
@given(case=st.integers(0, 3), data=st.data())
def test_assemble_matches_the_point_by_point_reference(case, data):
    # any side order, one link ordinate moved by nothing, round-off, a gap
    # near the tolerance, a large gap or NaN: the same bits or the same error
    m, scale, sides = _assembly_cases()[case]
    sides = list(data.draw(st.permutations(sides)))
    k, name = data.draw(st.integers(0, len(sides) - 1)), data.draw(st.sampled_from(["lam", "kap"]))
    ordinates = np.array(getattr(sides[k], name), dtype=float)
    ordinates[data.draw(st.integers(0, len(ordinates) - 1))] += data.draw(
        st.sampled_from([0.0, 1e-15, 1e-11, 1e-9, 1e-6, 0.1, np.nan]))
    sides[k] = sides[k]._replace(**{name: ordinates})
    try:
        want = assemble_reference(m, scale, sides)
    except CornerConsistencyError as exc:
        with pytest.raises(CornerConsistencyError) as got:
            _assemble(m, scale, sides)
        assert str(got.value) == str(exc)
        return
    got = _assemble(m, scale, sides)
    assert got.shape == want.shape and got.tobytes() == want.tobytes()


def test_fourth_patch_names_both_routes_on_a_corner_mismatch(monkeypatch):
    rng = np.random.default_rng(97)
    r1, r2, r4, _, _ = constructive_corner(rng)
    assemble = construct._assemble

    def skewed(m, scale, sides):  # the (2,3)-link's beta1 off by 0.1
        return assemble(m, scale, [s._replace(kap=np.add(s.kap, [0, 0.1, 0, 0]))
                                   if s.side == "v1" else s for s in sides])

    monkeypatch.setattr(construct, "_assemble", skewed)
    with pytest.raises(CornerConsistencyError) as exc:
        complete_fourth_patch(r1, r2, r4)
    assert str(exc.value).startswith(
        "corner control point disagrees between the two construction routes: "
        "control point (1,1) ")


# --- hole filling ------------------------------------------------------------

def test_ring_validation_accepts_uniform_and_rejects_broken():
    rng = np.random.default_rng(75)
    patches, _ = uniform_ring(rng)
    ring = ring_from(patches)
    assert all(abs(v - 1.0) < 1e-9 for v in ring.lambdas.values())
    broken = dict(patches)
    net = broken[4].net.copy()
    net[1, 1] += np.array([0, 0, 0.05])
    broken[4] = BezierPatch.from_net(net)
    with pytest.raises(PreconditionError):
        ring_from(broken)


def test_ring_validation_requires_all_positions():
    rng = np.random.default_rng(76)
    patches, _ = uniform_ring(rng)
    del patches[6]
    with pytest.raises(PreconditionError):
        ring_from(patches)


def _moved(p, index, offset):
    net = p.net.copy()
    net[index] += offset
    return BezierPatch.from_net(net)


def _folded(p, side):
    """``p`` mirrored through its boundary row on ``side`` ("u0" or "v0"): lambda turns negative."""
    net = p.net.copy()
    if side == "u0":
        net[1:] = 2.0 * net[:1] - net[1:]
    else:
        net[:, 1:] = 2.0 * net[:, :1] - net[:, 1:]
    return BezierPatch.from_net(net)


def test_ring_joins_fail_in_order_after_the_warnings_before_them():
    rng = np.random.default_rng(78)
    patches, _ = uniform_ring(rng)
    patches[4] = _folded(patches[4], "u0")  # "14" lambda = -1; "74" then has a gap
    patches[6] = _moved(patches[6], (0, 1), [0.0, 0.0, 1e-3])  # "36": a G0 gap
    patches[8] = _moved(patches[8], (1, 1), [0.0, 0.0, 1e-2])  # "78": not G1
    patches[9] = _folded(patches[9], "u0")  # "96" lambda = -1, after "36"
    with pytest.warns(UserWarning) as record:
        with pytest.raises(PreconditionError,
                           match=r"^boundary curves of 3:u1 and 6:u0 do not coincide "
                                 r"\(normalized gap \S+ > 1\.0e-09\)$"):
            ring_from(patches)
    assert [str(w.message) for w in record] == [
        "orientation-reversing join (1:u1 ~ 4:u0): lambda is negative"]


def test_hole_fills_reject_a_degenerate_ring_lambda():
    rng = np.random.default_rng(79)
    ring = ring_from(uniform_ring(rng)[0])
    degenerate = NinePatchRing(patches=ring.patches, lambdas={**ring.lambdas, "12": 0.0},
                               scale=ring.scale)
    for fill in (solve_hole_params, fill_hole_deg6):
        with pytest.raises(DegenerateLinkError, match=r"^ring lambda \(12\) is degenerate$"):
            fill(degenerate)


def test_solve_hole_params_uniform_defaults():
    rng = np.random.default_rng(77)
    patches, _ = uniform_ring(rng)
    ring = ring_from(patches)
    params = solve_hole_params(ring, free_choices=(1.0, 1.0, 1.0, 1.0))
    for i in (2, 4, 6, 8):
        assert abs(params.beta1[i]) < 1e-12
        assert abs(params.beta2[i]) < 1e-12
    assert hole_constraint_residuals(ring, params).max() < 1e-14


def test_solve_hole_params_beta_algebra():
    rng = np.random.default_rng(78)
    patches, _ = uniform_ring(rng)
    ring = ring_from(patches)
    b = 0.23
    params = solve_hole_params(ring, free_choices=(1.0 + 1.5 * b, 1.0, 1.0, 1.0))
    assert abs(params.beta1[8] - b) < 1e-12  # right-edge inner ordinate picks up alpha45
    assert abs(params.beta1[2] - b) < 1e-12


def test_solve_hole_params_back_substitution_random_rings():
    for seed in range(8):
        patches, _ = random_ring(np.random.default_rng(900 + seed))
        ring = ring_from(patches)
        params = solve_hole_params(ring)
        assert hole_constraint_residuals(ring, params).max() < 1e-14


def test_fill_hole_uniform_matches_elevated_center():
    rng = np.random.default_rng(79)
    patches, center = uniform_ring(rng)
    ring = ring_from(patches)
    fill = fill_hole(ring, solve_hole_params(ring, free_choices=(1, 1, 1, 1)))
    up = elevation_matrix(3, 5)
    elevated = np.einsum("ik,klc,jl->ijc", up, center.net, up)
    assert np.abs(fill.net[:, :2] - elevated[:, :2]).max() < 1e-11
    assert np.abs(fill.net[:2, :] - elevated[:2, :]).max() < 1e-11
    checks = hole_edge_checks(patches, fill)
    assert checks.ok.all() and (checks.link_residual < 1e-9).all()


def test_fill_hole_random_rings():
    for seed in range(6):
        patches, _ = random_ring(np.random.default_rng(920 + seed))
        ring = ring_from(patches)
        fill = fill_hole(ring)
        assert (fill.degree_u, fill.degree_v) == (5, 5)
        checks = hole_edge_checks(patches, fill)
        assert checks.ok.all() and (checks.link_residual < 1e-8).all()


def test_fill_hole_vertex_compatibility():
    rng = np.random.default_rng(80)
    patches, _ = random_ring(rng)
    ring = ring_from(patches)
    fill = fill_hole(ring)
    config = CornerConfig.from_patches(patches[1], patches[4], fill, patches[2])
    rep = check_vertex_g1(config)
    assert rep.ok and rep.g1_residuals.max() < 1e-8


def test_hole_twist_checks_consistent():
    rng = np.random.default_rng(81)
    patches, _ = random_ring(rng)
    ring = ring_from(patches)
    checks = hole_twist_checks(ring)
    assert set(checks) == {"bottom-left", "bottom-right", "top-left", "top-right"}
    for t in checks.values():
        assert t.difference < 1e-10 * ring.scale


def test_hole_twist_checks_deg6():
    # with the pinned cubic lambdas of the (6,6) fill, the twists agree at all
    # four corners and equal 36 times the filled net's own twist
    patches, _ = random_ring(np.random.default_rng(81))
    ring = ring_from(patches)
    ends = _pinned_endpoints(ring)
    params = HoleFillParams(mode="deg6", alpha={},
                            alpha1={i: lo for i, (lo, _) in ends.items()},
                            alpha2={i: hi for i, (_, hi) in ends.items()})
    checks = hole_twist_checks(ring, params)
    assert set(checks) == {"bottom-left", "bottom-right", "top-left", "top-right"}
    for t in checks.values():
        assert t.difference < 1e-10 * ring.scale
    q = fill_hole_deg6(ring).net
    np.testing.assert_allclose(checks["bottom-left"].q23,
                               36 * (q[1, 1] - q[1, 0] - q[0, 1] + q[0, 0]),
                               atol=1e-10 * ring.scale)


def test_fill_hole_deg6_uniform():
    rng = np.random.default_rng(82)
    patches, _ = uniform_ring(rng)
    ring = ring_from(patches)
    fill = fill_hole_deg6(ring)
    assert (fill.degree_u, fill.degree_v) == (6, 6)
    checks = hole_edge_checks(patches, fill)
    assert checks.ok.all() and (checks.link_residual < 1e-9).all()


def test_fill_hole_deg6_lambda_ordinates_pinned():
    # the cubic lambda along the bottom edge has ordinates
    # (lam12, lam12, lam78, lam78); the filled patch's link is that cubic
    rng = np.random.default_rng(83)
    patches, lam = random_ring(rng)
    ring = ring_from(patches)
    fill = fill_hole_deg6(ring)
    link = check_g1_edge(patches[4], fill, EdgeCorrespondence("v1", "v0"))
    np.testing.assert_allclose(
        link.lam[0],
        bernstein_basis(3, link.ts) @ [lam["12"], lam["12"], lam["78"], lam["78"]], atol=1e-8)
    np.testing.assert_allclose(link.kap[0], 0.0, atol=1e-9)


def test_default_interior_parallelogram_rule():
    rng = np.random.default_rng(84)
    net = np.full((6, 6, 3), np.nan)
    net[:, :2] = rng.normal(size=(6, 2, 3))
    net[:, 4:] = rng.normal(size=(6, 2, 3))
    net[0, :] = rng.normal(size=(6, 3))
    net[1, :] = rng.normal(size=(6, 3))
    net[4, :] = rng.normal(size=(6, 3))
    net[5, :] = rng.normal(size=(6, 3))
    out = default_interior(net, 5)
    np.testing.assert_allclose(out[2, 2], out[2, 1] + out[1, 2] - out[1, 1], atol=1e-14)
    np.testing.assert_allclose(out[3, 3], out[3, 4] + out[4, 3] - out[4, 4], atol=1e-14)


def test_default_interior_preserves_plane():
    # all border bands in the z=0 plane: the affine rules keep the interior there
    rng = np.random.default_rng(85)
    net = np.full((6, 6, 3), np.nan)
    for idx in (0, 1, 4, 5):
        net[idx, :, 0] = idx
        net[idx, :, 1] = np.arange(6) + rng.normal(scale=0.1, size=6)
        net[idx, :, 2] = 0.0
        net[:, idx, 0] = np.arange(6) + rng.normal(scale=0.1, size=6)
        net[:, idx, 1] = idx
        net[:, idx, 2] = 0.0
    out = default_interior(net, 5)
    np.testing.assert_allclose(out[2:4, 2:4, 2], 0.0, atol=1e-14)


def test_default_interior_deg6_center_formula():
    rng = np.random.default_rng(86)
    patches, _ = random_ring(rng)
    fill = fill_hole_deg6(ring_from(patches))
    q = fill.net
    expected = 0.5 * (q[2, 3] + q[4, 3] + q[3, 2] + q[3, 4]) - 0.25 * (
        q[2, 2] + q[4, 2] + q[2, 4] + q[4, 4])
    np.testing.assert_allclose(q[3, 3], expected, atol=1e-13)


@pytest.mark.parametrize("degree", [5, 6])
def test_default_interior_affine_precision(degree):
    # an affine image of the parameter grid has every interior rule exact:
    # with the interior unknown, default_interior must reproduce it
    rng = np.random.default_rng(88)
    ij = np.stack(np.meshgrid(np.arange(degree + 1), np.arange(degree + 1), indexing="ij"),
                  axis=-1).astype(float)
    affine = ij @ rng.normal(size=(2, 3)) + rng.normal(size=3)
    net = affine.copy()
    net[2:degree - 1, 2:degree - 1] = np.nan
    np.testing.assert_allclose(default_interior(net, degree), affine, atol=1e-12)


def test_fill_hole_affine_equivariance():
    rng = np.random.default_rng(87)
    patches, _ = random_ring(rng)
    ring = ring_from(patches)
    fill = fill_hole(ring)
    rot, shift = rigid_motion(rng)
    mapped = {k: transform_patch(p, 1.7 * rot, shift) for k, p in patches.items()}
    fill_mapped = fill_hole(ring_from(mapped))
    np.testing.assert_allclose(
        fill_mapped.net, fill.net @ (1.7 * rot).T + shift, atol=1e-9)


def _ring_input(rng):
    return random_ring(rng)[0]


def _strips_input(rng):
    return {(label, r): p for label, strip in zip("ab", random_strips(rng, 4))
            for r, p in enumerate(strip)}


_TRANSLATED = {
    "fill_hole": (_ring_input, lambda ps: [fill_hole(ring_from(ps))]),
    "fill_hole_deg6": (_ring_input, lambda ps: [fill_hole_deg6(ring_from(ps))]),
    "complete_fourth_patch": (lambda rng: dict(zip("124", constructive_corner(rng)[:3])),
                              lambda ps: [complete_fourth_patch(ps["1"], ps["2"], ps["4"])]),
    "build_fillet": (_strips_input,
                     lambda ps: build_fillet([ps["a", r] for r in range(4)],
                                             [ps["b", r] for r in range(4)])),
}


@pytest.mark.parametrize("name", sorted(_TRANSLATED))
@settings(max_examples=10, deadline=None)
@given(seed=st.integers(0, 2**32 - 1),
       offset=st.tuples(*[st.floats(-1e6, 1e6, allow_subnormal=False)] * 3))
@example(seed=2, offset=(1e6, -1e6, 5e5))
def test_constructions_commute_with_translation(name, seed, offset):
    # a doubly-determined point is asserted relative to the input's size, so
    # moving the input far from the origin must change nothing but the position
    make_input, construct_from = _TRANSLATED[name]
    patches = make_input(np.random.default_rng(seed))
    moved = {k: transform_patch(p, shift=offset) for k, p in patches.items()}
    diag = bounding_diagonal(*patches.values())
    for got, want in zip(construct_from(moved), construct_from(patches), strict=True):
        np.testing.assert_allclose(got.net, want.net + offset, rtol=0, atol=1e-9 * diag)


_GOLDEN = Path(__file__).parent / "data" / "cli_golden"
# each construction command's golden output document and its arguments before -o
_GOLDEN_COMMANDS = {
    "complete_4patch.json": ["complete-4patch", "corner.json"],
    "fill_hole.json": ["fill-hole", "ring.json"],
    "fill_hole_deg6.json": ["fill-hole", "ring.json", "--deg6"],
    "fillet.json": ["fillet", "strip_a.json", "strip_b.json", "-n", "4"],
}


@pytest.mark.parametrize("name", sorted(_GOLDEN_COMMANDS))
@settings(max_examples=10, deadline=None)
@given(k=st.integers(-1000, 1000))
@example(k=600)
@example(k=-600)
def test_constructions_commute_with_scaling_by_powers_of_two(name, k):
    # scaling by 2^k is exact while every value stays a normal float; the links are
    # scale-free and every squared length is taken over a power of two near the scale,
    # so the command writes exactly 2^k times its golden document, without a warning
    with tempfile.TemporaryDirectory() as tmp:
        argv = []
        for arg in _GOLDEN_COMMANDS[name]:
            if arg.endswith(".json"):
                raw = scaled_by_power_of_two(json.loads((_GOLDEN / arg).read_text()), k)
                arg = str(Path(tmp) / arg)
                Path(arg).write_text(json.dumps(raw))
            argv.append(arg)
        with warnings.catch_warnings(), contextlib.redirect_stdout(io.StringIO()):
            warnings.simplefilter("error")
            assert main(argv + ["-o", str(Path(tmp) / name)]) == 0
        got = json.loads((Path(tmp) / name).read_text())
    assert got == scaled_by_power_of_two(json.loads((_GOLDEN / name).read_text()), k)


def test_fill_hole_custom_interior_rule():
    # the interior hook may place the four free points anywhere without
    # affecting any edge condition
    rng = np.random.default_rng(94)
    patches, _ = random_ring(rng)
    ring = ring_from(patches)

    def centroid_rule(net):
        border = np.concatenate([net[:2], net[4:],
                                 net[2:4, :2], net[2:4, 4:]], axis=None)
        centre = np.nanmean(net.reshape(-1, 3), axis=0)
        net[2:4, 2:4] = centre
        return net

    fill = fill_hole(ring, interior_rule=centroid_rule)
    assert hole_edge_checks(patches, fill).ok.all()
    np.testing.assert_allclose(fill.net[2, 2], fill.net[3, 3], atol=1e-12)


def test_fill_hole_boundary_rows_exact():
    rng = np.random.default_rng(88)
    patches, _ = random_ring(rng)
    ring = ring_from(patches)
    fill = fill_hole(ring)
    np.testing.assert_allclose(fill.net[:, 0], elevate_row(patches[4].net[:, 3], 5),
                               atol=1e-12)
    np.testing.assert_allclose(fill.net[0, :], elevate_row(patches[2].net[3, :], 5),
                               atol=1e-12)
    np.testing.assert_allclose(fill.net[:, 5], elevate_row(patches[6].net[:, 0], 5),
                               atol=1e-12)
    np.testing.assert_allclose(fill.net[5, :], elevate_row(patches[8].net[0, :], 5),
                               atol=1e-12)


# --- fillets ------------------------------------------------------------------

def test_fillet_counts():
    rng = np.random.default_rng(89)
    strip_a, strip_b = random_strips(rng, 4)
    middle = build_fillet(strip_a, strip_b)
    assert len(middle) == 4
    assert [(p.degree_u, p.degree_v) for p in middle] == [(3, 3), (5, 5), (3, 3), (5, 5)]
    middle = build_fillet(strip_a[:1], strip_b[:1])
    assert len(middle) == 1 and (middle[0].degree_u, middle[0].degree_v) == (3, 3)


def test_fillet_from_split_surface_is_seamless():
    rng = np.random.default_rng(90)
    g = smooth_patch(rng, span=3.0, z_scale=0.4)
    cols = split_grid(g, [1 / 3, 2 / 3], [0.3, 0.55, 0.8])
    middle = build_fillet(cols[0], cols[2])
    # the bridges reproduce the removed patches exactly (uniform lambdas)
    for r in (0, 2):
        np.testing.assert_allclose(middle[r].net, cols[1][r].net, atol=1e-11)


def test_fillet_random_strips_all_edges_g1():
    rng = np.random.default_rng(91)
    strip_a, strip_b = random_strips(rng, 5)
    middle = build_fillet(strip_a, strip_b, bridge_lambdas=(1.3, 0.8))
    for r in range(5):
        assert check_g1_edge(strip_a[r], middle[r], EdgeCorrespondence("u1", "u0")).ok
        assert check_g1_edge(middle[r], strip_b[r], EdgeCorrespondence("u1", "u0")).ok
    for r in range(4):
        assert check_g1_edge(middle[r], middle[r + 1], EdgeCorrespondence("v1", "v0")).ok


@pytest.mark.parametrize("seed, n_rows", [(0, 3), (1, 5), (2, 6), (3, 7)])
def test_fillet_rows_are_the_hole_fills_of_their_solved_rings(seed, n_rows):
    # the fillet builds each ring from the strip joins and the bridge
    # lambdas; solving the ring's eight joins must give the same fill
    strip_a, strip_b = random_strips(np.random.default_rng(960 + seed), n_rows)
    middle = build_fillet(strip_a, strip_b, bridge_lambdas=(1.3, 0.8))
    for r in range(1, n_rows - 1, 2):
        ring = ring_from({1: strip_a[r - 1], 2: strip_a[r], 3: strip_a[r + 1],
                          4: middle[r - 1], 6: middle[r + 1],
                          7: strip_b[r - 1], 8: strip_b[r], 9: strip_b[r + 1]})
        want = fill_hole(ring).net
        diag = np.linalg.norm(np.ptp(want.reshape(-1, 3), axis=0))
        np.testing.assert_allclose(middle[r].net, want, rtol=0, atol=1e-14 * diag)


def test_fillet_even_strip_count_has_open_top():
    rng = np.random.default_rng(92)
    strip_a, strip_b = random_strips(rng, 2)
    middle = build_fillet(strip_a, strip_b)
    assert len(middle) == 2
    assert (middle[1].degree_u, middle[1].degree_v) == (5, 5)
    assert check_g1_edge(strip_a[1], middle[1], EdgeCorrespondence("u1", "u0")).ok
    assert check_g1_edge(middle[1], strip_b[1], EdgeCorrespondence("u1", "u0")).ok
    assert check_g1_edge(middle[0], middle[1], EdgeCorrespondence("v1", "v0")).ok


def test_fillet_validates_strips():
    rng = np.random.default_rng(93)
    strip_a, strip_b = random_strips(rng, 3)
    with pytest.raises(PreconditionError):
        build_fillet(strip_a, strip_b[:2])
    with pytest.raises(PreconditionError):
        build_fillet(strip_a, strip_b, 4)
    broken = list(strip_a)
    broken[1] = smooth_patch(rng)  # no longer joined to its neighbours
    with pytest.raises(PreconditionError):
        build_fillet(broken, strip_b)


@pytest.mark.parametrize("lams", [(0.0, 1.0), (1.0, -1e-9), (np.nan, 1.0), (1.0, np.inf)])
def test_fillet_rejects_zero_and_non_finite_bridge_lambdas(lams):
    strip_a, strip_b = random_strips(np.random.default_rng(94), 3)
    with pytest.raises(DegenerateLinkError, match=r"^bridge lambdas must be finite and non-zero$"):
        build_fillet(strip_a, strip_b, bridge_lambdas=lams)


@pytest.mark.parametrize("n_rows", [1, 2, 3])
@pytest.mark.parametrize("lam_right", [1e9, -1e9])
def test_fillet_names_a_right_bridge_lambda_whose_reciprocal_vanishes(n_rows, lam_right):
    # the bridges join strip b by 1/lam_right, which the hole fills read as a
    # ring lambda; the error must name the bridge lambda, on every length
    strip_a, strip_b = random_strips(np.random.default_rng(5), n_rows)
    with pytest.raises(DegenerateLinkError,
                       match="^" + re.escape(f"right bridge lambda ({lam_right:g}) is "
                                             "degenerate: 1/lambda is below 1e-08") + "$"):
        build_fillet(strip_a, strip_b, bridge_lambdas=(1.0, lam_right))


def _planar_strip(n_rows, x0):
    """Bi-cubic unit squares stacked in v in the plane z = 0: every join is G1."""
    grid = np.stack(np.meshgrid(np.arange(4) / 3.0, np.arange(4) / 3.0, indexing="ij"), axis=-1)
    return [BezierPatch.from_net(np.concatenate([grid + [x0, r], np.zeros((4, 4, 1))], axis=-1))
            for r in range(n_rows)]


def test_fillet_strip_joins_fail_in_order():
    strip_a, strip_b = _planar_strip(4, 0.0), _planar_strip(4, 2.5)
    # strip_a[0] ~ strip_a[1]: still planar, so G1, but lambda grows along the join
    net = strip_a[1].net.copy()
    net[:, 1, 1] = net[:, 0, 1] + (0.2 + 0.1 * np.arange(4)) / 3.0
    strip_a[1] = BezierPatch.from_net(net)
    strip_a[3] = _moved(strip_a[3], (1, 0), [0.0, 0.0, 1e-3])  # a gap on a later join
    strip_b[1] = _folded(strip_b[1], "v0")  # negative lambda on a join after both
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(PreconditionError,
                           match=r"^join strip_a\[0\]:v1 ~ strip_a\[1\]:v0 has non-constant "
                                 r"lambda$"):
            build_fillet(strip_a, strip_b)


def test_fillet_row_count_argument():
    rng = np.random.default_rng(95)
    strip_a, strip_b = random_strips(rng, 5)
    middle = build_fillet(strip_a, strip_b, 3)
    assert len(middle) == 3
    np.testing.assert_allclose(
        middle[0].net, build_fillet(strip_a[:3], strip_b[:3])[0].net, atol=1e-15)
