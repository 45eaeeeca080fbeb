"""Edge-link solving, G1/G2 edge checks and vertex compatibility tests."""

import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from smoothpatch.bezier import BezierPatch, split_patch, transform_patch
from smoothpatch.continuity import (
    CornerConfig,
    DegenerateLinkError,
    DegenerateParametrizationError,
    EdgeCorrespondence,
    EdgeLink,
    PreconditionError,
    check_edges,
    check_g1_edge,
    check_g2_edge,
    check_vertex_g1,
    check_vertex_g2,
    g0_gap,
    solve_edge_link,
    solve_g2_link,
    theorem1_residuals,
    theorem2_residuals,
)

from helpers import (
    creased_pair,
    flat_crease_pair,
    g1_pair,
    paraboloid_patch,
    quad_split_config,
    rigid_motion,
    smooth_patch,
    split_corner,
)

FLAT_A = BezierPatch.from_net([[[0, 0, 0], [0, 1, 0]], [[1, 0, 0], [1, 1, 0]]])
FLAT_B = BezierPatch.from_net([[[1, 0, 0], [1, 1, 0]], [[3, 1, 0], [3, 2, 0]]])
U1_U0 = EdgeCorrespondence("u1", "u0")


def test_link_flat_example():
    # b(u,v) = (1+2u, v+u, 0): cross derivative is 2*a_u + 1*a_v
    link = solve_edge_link(FLAT_A, FLAT_B, U1_U0)
    np.testing.assert_allclose(link.lam_samples, 2.0, atol=1e-13)
    np.testing.assert_allclose(link.kap_samples, 1.0, atol=1e-13)
    assert link.max_oop < 1e-13


def test_link_reversal_consistency():
    link = solve_edge_link(FLAT_B, FLAT_A, EdgeCorrespondence("u0", "u1"))
    np.testing.assert_allclose(link.lam_samples, 0.5, atol=1e-13)
    assert check_g1_edge(FLAT_B, FLAT_A, EdgeCorrespondence("u0", "u1")).ok


def test_edge_link_keeps_frozen_arrays_and_freezes_the_rest():
    # the second-order copy shares the first-order arrays instead of copying them
    link = solve_edge_link(FLAT_A, FLAT_B, U1_U0)
    g2 = solve_g2_link(FLAT_A, FLAT_B, U1_U0, link)
    for name in ("ts", "lam_samples", "kap_samples", "oop"):
        assert getattr(g2, name) is getattr(link, name)
        assert not getattr(g2, name).flags.writeable
    # a read-only view of a writable array is copied, so writing the base cannot reach it
    base = np.linspace(0.0, 1.0, 3)
    view = base[:]
    view.flags.writeable = False
    other = EdgeLink(ts=view, lam_samples=[1, 1, 1], kap_samples=[0, 0, 0], oop=[0, 0, 0],
                     scale=1.0)
    base[0] = 5.0
    assert other.ts[0] == 0.0 and not other.ts.flags.writeable
    assert other.lam_samples.dtype == np.float64 and not other.lam_samples.flags.writeable


def test_link_split_halves():
    rng = np.random.default_rng(20)
    g = smooth_patch(rng)
    left, right = split_patch(g, u=0.5)
    link = solve_edge_link(left, right, U1_U0)
    np.testing.assert_allclose(link.lam_samples, 1.0, atol=1e-12)
    np.testing.assert_allclose(link.kap_samples, 0.0, atol=1e-12)
    assert link.max_oop < 1e-12


@settings(max_examples=50, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), direction=st.sampled_from("uv"),
       s=st.floats(0.05, 0.95))
def test_link_unequal_split_lambda_is_size_ratio(seed, direction, s):
    # splitting a smooth patch at s joins its halves with lambda = (1-s)/s,
    # kappa = 0, and the halves pass both edge checks
    low, high = split_patch(smooth_patch(np.random.default_rng(seed)), **{direction: s})
    corr = EdgeCorrespondence(f"{direction}1", f"{direction}0")
    link = solve_edge_link(low, high, corr)
    np.testing.assert_allclose(link.lam_samples, (1.0 - s) / s, rtol=1e-12, atol=0.0)
    np.testing.assert_allclose(link.kap_samples, 0.0, atol=1e-12)
    assert check_g1_edge(low, high, corr).ok
    assert check_g2_edge(low, high, corr).ok


def test_link_rejects_g0_mismatch():
    rng = np.random.default_rng(22)
    a = smooth_patch(rng)
    b = smooth_patch(rng)
    with pytest.raises(PreconditionError):
        solve_edge_link(a, b, U1_U0)


def test_link_crease_residual():
    a, b = flat_crease_pair(np.pi / 6)
    link = solve_edge_link(a, b, U1_U0)
    assert link.max_oop > 1e-3


def test_g0_gap_reports_distance():
    rng = np.random.default_rng(23)
    g = smooth_patch(rng)
    left, right = split_patch(g, u=0.5)
    assert g0_gap(left, right, U1_U0) < 1e-14
    shifted = transform_patch(right, shift=[0.0, 0.0, 0.01])
    assert g0_gap(left, shifted, U1_U0) > 1e-4


def test_check_g1_split_halves():
    rng = np.random.default_rng(24)
    g = smooth_patch(rng)
    left, right = split_patch(g, v=0.5)
    rep = check_g1_edge(left, right, EdgeCorrespondence("v1", "v0"))
    assert rep.ok
    assert rep.oracle_residual < 1e-9


def test_check_g1_coplanar_mismatched_speeds():
    # planar neighbour with different transverse parametric speed still passes:
    # the check is geometric, not parametric
    net = np.zeros((3, 2, 3))
    net[:, :, 0] = np.array([1.0, 2.0, 3.5])[:, None]
    net[:, 0, 1] = np.array([0.0, 0.2, 0.4])
    net[:, 1, 1] = np.array([1.0, 1.2, 1.4])
    b = BezierPatch.from_net(net)
    rep = check_g1_edge(FLAT_A, b, U1_U0)
    assert rep.ok
    assert rep.link_residual < 1e-14 and rep.oracle_residual < 1e-14


def test_check_g1_crease_fails_both_ways():
    a, b = flat_crease_pair(np.pi / 6)
    rep = check_g1_edge(a, b, U1_U0)
    assert not rep.link_ok and not rep.oracle_ok and not rep.ok
    assert abs(rep.oracle_residual - np.pi / 6) < 1e-12


def test_g1_verdicts_agree_on_random_instances():
    for seed in range(25):
        rng = np.random.default_rng(100 + seed)
        a, b, _, _ = g1_pair(rng)
        rep = check_g1_edge(a, b, U1_U0)
        assert rep.link_ok and rep.oracle_ok
        a, b = creased_pair(np.random.default_rng(200 + seed))
        rep = check_g1_edge(a, b, U1_U0)
        assert (not rep.link_ok) and (not rep.oracle_ok)


def test_g2_plane_split():
    plane = BezierPatch.from_net(
        [[[0, 0, 0], [0, 2, 0]], [[2, 0, 0], [2, 2, 0]]]
    )
    left, right = split_patch(plane, u=0.4)
    rep = check_g2_edge(left, right, U1_U0)
    assert rep.ok
    assert rep.oracle_residual < 1e-14


def test_g2_split_paraboloid():
    left, right = split_patch(paraboloid_patch(), u=0.5)
    rep = check_g2_edge(left, right, U1_U0)
    assert rep.ok
    assert rep.link_residual < 1e-10 and rep.oracle_residual < 1e-8


def test_g2_planar_flat_example_mu_nu_zero():
    link = solve_edge_link(FLAT_A, FLAT_B, U1_U0)
    link = solve_g2_link(FLAT_A, FLAT_B, U1_U0, link)
    np.testing.assert_allclose(link.mu_samples, 0.0, atol=1e-13)
    np.testing.assert_allclose(link.nu_samples, 0.0, atol=1e-13)
    np.testing.assert_allclose(link.g2_oop, 0.0, atol=1e-13)


def test_g2_detects_second_order_break():
    # perturb a control point one row further in: G1 survives, G2 breaks
    rng = np.random.default_rng(30)
    g = smooth_patch(rng, 5, 5)
    left, right = split_patch(g, u=0.5)
    net = right.net.copy()
    net[2, 2] += np.array([0.0, 0.0, 1e-2])
    broken = BezierPatch.from_net(net)
    g1 = check_g1_edge(left, broken, U1_U0)
    assert g1.ok  # rows 0-1 untouched
    rep = check_g2_edge(left, broken, U1_U0)
    assert not rep.ok
    assert rep.link_residual > 1e-4
    assert not rep.oracle_ok


def test_g2_split_halves_of_random_patch():
    rng = np.random.default_rng(31)
    g = smooth_patch(rng, 5, 5)
    left, right = split_patch(g, u=0.35)
    rep = check_g2_edge(left, right, U1_U0)
    assert rep.ok


def test_degenerate_parametrization_error():
    # patch with coincident columns: r_u vanishes along the shared edge
    net = np.zeros((2, 2, 3))
    net[:, 1, 1] = 1.0  # both columns at x=0: r_u == 0
    degenerate = BezierPatch.from_net(net)
    good = BezierPatch.from_net([[[0, 0, 0], [0, 1, 0]], [[1, 0, 0], [1, 1, 0]]])
    with pytest.raises(DegenerateParametrizationError):
        solve_edge_link(degenerate, good, EdgeCorrespondence("u1", "u0"))


def test_solve_g2_link_is_a_batch_of_one():
    # the second-order values are the batch's, bit for bit
    rng = np.random.default_rng(32)
    left, right = split_patch(smooth_patch(rng, 5, 5), u=0.4)
    g2 = solve_g2_link(left, right, U1_U0, solve_edge_link(left, right, U1_U0))
    want = check_edges([(left, right, U1_U0)], 2)[0].link
    for name in ("mu_samples", "nu_samples", "g2_oop", "end_slopes"):
        np.testing.assert_array_equal(getattr(g2, name), getattr(want, name))
    # a rank failure is the batch's error for the edge
    net = np.zeros((2, 2, 3))
    net[:, 1, 1] = 1.0
    link = solve_edge_link(FLAT_A, FLAT_B, U1_U0)
    with pytest.raises(DegenerateParametrizationError, match="linearly dependent"):
        solve_g2_link(BezierPatch.from_net(net), FLAT_A, U1_U0, link)
    # a link sampled elsewhere is refused, never mixed with the solve samples
    ts = np.linspace(0.0, 1.0, 5)
    other = EdgeLink(ts=ts, lam_samples=np.full(5, 2.0), kap_samples=np.ones(5),
                     oop=np.zeros(5), scale=link.scale)
    with pytest.raises(ValueError, match="not sampled at SOLVE_SAMPLES"):
        solve_g2_link(FLAT_A, FLAT_B, U1_U0, other)


def _skewed_pair(theta):
    """Two planar bi-cubics with an exact C1 join whose u and v tangents meet at ``theta``."""
    g = np.arange(4) / 3.0
    s, t = np.meshgrid(g, g, indexing="ij")
    e_u, e_v = np.array([1.0, 0.0, 0.0]), np.array([np.cos(theta), np.sin(theta), 0.0])
    return [BezierPatch.from_net((s + s0)[..., None] * e_u + t[..., None] * e_v)
            for s0 in (0.0, 1.0)]


@pytest.mark.parametrize("theta", [1e-3, 1e-5, 1e-8])
def test_skewed_tangent_basis_keeps_its_digits(theta):
    # the tangents are not parallel by RANK_TOL, so the join passes with
    # lambda = 1; through the Gram matrix the solve lost cond^2 digits: a
    # false FAIL at 1e-5 and a division warning at 1e-8
    a, b = _skewed_pair(theta)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for check in (check_g1_edge, check_g2_edge):
            rep = check(a, b, U1_U0)
            assert rep.ok
            assert np.abs(rep.link.lam_samples - 1.0).max() < 1e-7


def test_degenerate_link_error():
    # neighbour whose cross-derivative vanishes on the edge: lambda ~ 0
    a = FLAT_A
    net = np.zeros((3, 2, 3))
    net[:, :, 0] = np.array([1.0, 1.0, 2.0])[:, None]  # x stalls at the edge
    net[:, 0, 1] = np.array([0.0, 0.0, 0.0])
    net[:, 1, 1] = np.array([1.0, 1.0, 1.0])
    b = BezierPatch.from_net(net)
    with pytest.raises(DegenerateLinkError):
        solve_edge_link(a, b, U1_U0)


def test_negative_lambda_warns_but_passes():
    # planar fold-back: b runs back over a, tangent planes still coincide
    b = BezierPatch.from_net([[[1, 0, 0], [1, 1, 0]], [[0.5, 0, 0], [0.5, 1, 0]]])
    with pytest.warns(UserWarning, match="orientation-reversing"):
        link = solve_edge_link(FLAT_A, b, U1_U0)
    np.testing.assert_allclose(link.lam_samples, -0.5, atol=1e-13)
    with pytest.warns(UserWarning):
        rep = check_g1_edge(FLAT_A, b, U1_U0)
    assert rep.ok


# --- vertex compatibility ---------------------------------------------------

def test_theorem1_kappa_zero_reduction():
    # with all kappas zero the residuals vanish iff lam12 == lam43, lam14 == lam23
    res, prod = theorem1_residuals(2.0, 0.0, 1.5, 0.0, 1.5, 0.0, 2.0, 0.0)
    assert res.max() == 0.0 and prod == 0.0
    res, _ = theorem1_residuals(2.0, 0.0, 1.5, 0.0, 1.5, 0.0, 2.5, 0.0)
    assert res.max() == 0.5


def test_theorem1_hand_substitution():
    res, prod = theorem1_residuals(
        lam12=2.0, kap12=1.0, lam14=1.0, kap14=1.0,
        lam23=0.5, kap23=0.5, lam43=1.0, kap43=1.0,
    )
    np.testing.assert_allclose(res, 0.0, atol=1e-15)
    assert prod == 0.0
    assert 2.0 * 0.5 == 1.0 * 1.0  # both lambda products equal 1


def test_theorem2_kappa_zero_constant_lambda_reduction():
    # all kappa = 0, lambdas constant: the six relations reduce to
    # nu12 = nu43*lam14, nu14 = nu23*lam12, mu12 = mu43, mu14 = mu23, 0 = 0, 0 = 0
    lam12, lam14, lam23, lam43 = 2.0, 1.5, 1.5, 2.0
    mu43, mu23 = 0.7, -0.4
    nu43, nu23 = 0.3, 0.9
    res = theorem2_residuals(
        lam12, 0, 0, 0, mu43, nu43 * lam14,
        lam14, 0, 0, 0, mu23, nu23 * lam12,
        lam23, 0, 0, 0, mu23, nu23,
        lam43, 0, 0, 0, mu43, nu43,
    )
    np.testing.assert_allclose(res, 0.0, atol=1e-15)


def test_vertex_g1_split_corner():
    rng = np.random.default_rng(40)
    _, p1, p2, p4, p3 = split_corner(rng)
    config = CornerConfig.from_patches(p1, p2, p3, p4)
    rep = check_vertex_g1(config)
    assert rep.ok
    assert rep.g1_residuals.max() < 1e-12
    assert rep.lambda_product_residual < 1e-12


def test_vertex_g1_reparametrized_global_surface():
    # Theorem-1 necessity: every edge of the configuration passes the G1
    # check, so the vertex residuals must vanish (within 10x the edge tol)
    rng = np.random.default_rng(41)
    _, p1, p2, p3, p4 = quad_split_config(rng)
    for a, b, corr in (
        (p1, p2, EdgeCorrespondence("u1", "u0")),
        (p1, p4, EdgeCorrespondence("v1", "v0")),
        (p2, p3, EdgeCorrespondence("v1", "v0")),
        (p4, p3, EdgeCorrespondence("u1", "u0")),
    ):
        assert check_g1_edge(a, b, corr).ok
    config = CornerConfig.from_patches(p1, p2, p3, p4)
    rep = check_vertex_g1(config)
    assert rep.ok
    assert rep.g1_residuals.max() < 1e-8
    assert rep.lambda_product_residual < 1e-7  # 10x the vertex tolerance
    # the slanted cross makes the vertex kappas genuinely non-zero
    assert max(abs(e["kap"]) for e in rep.vertex_values.values()) > 1e-3


def test_twist_at_v_moves_the_edges_not_the_vertex_residuals():
    # no first-order datum at V reads p1's twist at V: moving it breaks G1
    # along the 1-2 and 1-4 edges, while Theorems 1 and 2 still hold at V
    for seed in range(5):
        _, p1, p2, p3, p4 = quad_split_config(np.random.default_rng(3000 + seed))
        net = p1.net.copy()
        net[p1.degree_u - 1, p1.degree_v - 1] += np.array([0.0, 0.0, 1e-2])
        twisted = BezierPatch.from_net(net)
        assert not check_g1_edge(twisted, p2, EdgeCorrespondence("u1", "u0")).ok
        assert not check_g1_edge(twisted, p4, EdgeCorrespondence("v1", "v0")).ok
        rep = check_vertex_g2(CornerConfig.from_patches(twisted, p2, p3, p4).solve_g2())
        assert rep.ok
        assert max(rep.g1_residuals.max(), rep.lambda_product_residual) < 1e-12
        assert rep.g2_residuals.max() < 1e-12


def _vertex_residuals(config):
    """Theorem 1 and Theorem 2 residuals at V, and the largest link value there (at least 1)."""
    vals = config.values
    order = ("12", "14", "23", "43")
    t1, product = theorem1_residuals(*[vals[key][x] for key in order for x in ("lam", "kap")])
    t2 = theorem2_residuals(*[vals[key][x] for key in order
                              for x in ("lam", "kap", "dlam", "dkap", "mu", "nu")])
    size = max(1.0, *(abs(x) for entry in vals.values() for x in entry.values()))
    return max(t1.max(), product), t2.max(), size


@pytest.mark.filterwarnings("ignore:orientation-reversing join")
@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), noise=st.floats(1e-3, 0.1))
def test_theorems_hold_wherever_the_boundary_curves_are_shared(seed, noise):
    # the paper's conditions are necessary: four patches that share only
    # their boundary curves at V, and so the tangent plane there, satisfy
    # Theorems 1 and 2 within rounding, whatever their other control points
    # (the noise may turn lambda negative away from V; the links still solve)
    rng = np.random.default_rng(seed)
    _, *quad = quad_split_config(rng)
    patches = []
    for p, (i, j) in zip(quad, ((-1, -1), (0, -1), (0, 0), (-1, 0))):  # V at net[i, j]
        net = p.net.copy()
        free = np.ones(net.shape[:2], dtype=bool)
        free[i, :] = free[:, j] = False  # the rows through V lie on the shared curves
        net[free] += rng.normal(scale=noise, size=(free.sum(), 3))
        patches.append(BezierPatch.from_net(net))
    t1, t2, size = _vertex_residuals(CornerConfig.from_patches(*patches))
    bound1, bound2 = 1e-12 * size**2, 1e-12 * size**3  # the degrees of the two sets of terms
    assert t1 < bound1 and t2 < bound2
    # tilting the tangent plane at V (the point next to V on the 1-2 curve,
    # in both patches) breaks both theorems
    p1, p2, p3, p4 = (p.net.copy() for p in patches)
    p1[-1, -2, 2] += 1e-2
    p2[0, -2, 2] += 1e-2
    tilted = CornerConfig.from_patches(*(BezierPatch.from_net(net) for net in (p1, p2, p3, p4)))
    t1, t2, size = _vertex_residuals(tilted)
    assert t1 > 1e-12 * size**2 and t2 > 1e-12 * size**3


def test_vertex_g1_requires_common_vertex():
    rng = np.random.default_rng(42)
    _, p1, p2, p4, p3 = split_corner(rng)
    shifted = transform_patch(p3, shift=[0.0, 0.0, 0.5])
    with pytest.raises(PreconditionError):
        CornerConfig.from_patches(p1, p2, shifted, p4)


def test_vertex_g2_reparametrized_global_surface():
    rng = np.random.default_rng(43)
    _, p1, p2, p3, p4 = quad_split_config(rng)
    config = CornerConfig.from_patches(p1, p2, p3, p4)
    config = config.solve_g2()
    rep = check_vertex_g2(config)
    assert rep.ok
    assert rep.g2_residuals.max() < 1e-6


def test_vertex_g2_affine_split_reduction():
    # de Casteljau splits have mu = nu = 0 and constant lambdas, so the
    # kappa-zero reduction of the second-order conditions holds trivially
    rng = np.random.default_rng(44)
    _, p1, p2, p4, p3 = split_corner(rng, u=0.4, v=0.65)
    config = CornerConfig.from_patches(p1, p2, p3, p4)
    config = config.solve_g2()
    rep = check_vertex_g2(config)
    assert rep.ok
    vals = rep.vertex_values
    for key in ("12", "14", "23", "43"):
        assert abs(vals[key]["mu"]) < 1e-10
        assert abs(vals[key]["nu"]) < 1e-10
    assert abs(vals["12"]["nu"] - vals["43"]["nu"] * vals["14"]["lam"]) < 1e-10
    assert abs(vals["12"]["mu"] - vals["43"]["mu"]) < 1e-10
    assert rep.g2_residuals.max() < 1e-10


def test_vertex_g2_relation3_linear_in_mu12():
    # shifting mu12 by 0.1 on an exactly-compatible instance moves the third
    # residual (the only one linear in mu12 with unit coefficient) to ~0.1
    rng = np.random.default_rng(49)
    _, p1, p2, p3, p4 = quad_split_config(rng)
    config = CornerConfig.from_patches(p1, p2, p3, p4)
    config = config.solve_g2()
    vals = check_vertex_g2(config).vertex_values
    args = []
    for key in ("12", "14", "23", "43"):
        e = vals[key]
        args.extend([e["lam"], e["kap"], e["dlam"], e["dkap"], e["mu"], e["nu"]])
    res0 = theorem2_residuals(*args)
    args[4] += 0.1  # mu12
    res1 = theorem2_residuals(*args)
    assert abs(res1[2] - 0.1) < 1e-6 + res0[2]
    assert res1[2] > 0.099


def test_identity_implied_by_theorem1_property():
    # lambda products agree up to c(M) * epsilon whenever the four conditions
    # hold to epsilon with values bounded by M
    rng = np.random.default_rng(45)
    M = 3.0
    for _ in range(200):
        eps = 10.0 ** rng.uniform(-10, -3)
        vals = _random_theorem1_solution(rng, M)
        if vals is None:
            continue
        lam12, kap12, lam14, kap14, lam23, kap23, lam43, kap43 = vals
        perturbed = [x + rng.uniform(-eps, eps) / 4.0 for x in vals]
        res, prod = theorem1_residuals(*perturbed)
        if res.max() > eps:  # keep only instances within the stated residual
            continue
        assert prod <= 10.0 * M * M * eps


def _random_theorem1_solution(rng, M):
    lam43 = rng.uniform(-2, 2)
    kap43 = rng.uniform(-1.5, 1.5)
    kap23 = rng.uniform(-1.5, 1.5)
    lam14 = rng.uniform(-2, 2)
    if abs(1 - kap23 * kap43) < 0.2 or abs(lam43) < 0.1 or abs(lam14) < 0.1:
        return None
    lam12 = lam43 / (1 - kap23 * kap43)
    kap12 = lam14 * kap43
    kap14 = lam12 * kap23
    lam23 = lam14 - kap12 * kap23
    vals = (lam12, kap12, lam14, kap14, lam23, kap23, lam43, kap43)
    if max(abs(v) for v in vals) > M:
        return None
    return vals


def test_link_equivariance_under_rigid_motion_and_scaling():
    rng = np.random.default_rng(46)
    a, b, lam_o, kap_o = g1_pair(rng)
    link = solve_edge_link(a, b, U1_U0)
    rot, shift = rigid_motion(rng)
    for scale in (1.0, 3.7, 0.02):
        a2 = transform_patch(a, scale * rot, shift)
        b2 = transform_patch(b, scale * rot, shift)
        link2 = solve_edge_link(a2, b2, U1_U0)
        np.testing.assert_allclose(link2.lam_samples, link.lam_samples, atol=1e-9)
        np.testing.assert_allclose(link2.kap_samples, link.kap_samples, atol=1e-9)
        assert check_g1_edge(a2, b2, U1_U0).ok
    a3, b3 = creased_pair(np.random.default_rng(47))
    a4 = transform_patch(a3, rot, shift)
    b4 = transform_patch(b3, rot, shift)
    assert check_g1_edge(a3, b3, U1_U0).ok == check_g1_edge(a4, b4, U1_U0).ok == False


def test_normal_curvature_analytic_paraboloid():
    # z = u^2 + v^2 at the origin has principal curvatures (2, 2): the
    # normal curvature is 2 in every tangent direction
    from smoothpatch.continuity import _frames, normal_curvature

    p = paraboloid_patch()
    f = {key: value[0, 0] for key, value in
         _frames([(p, p, EdgeCorrespondence("u0", "u0"))], [(np.array([0.0]), 2)])[0].items()}
    n = np.cross(f["w"], f["t"])
    n /= np.linalg.norm(n, axis=1, keepdims=True)
    for direction in (f["w"], f["t"], f["w"] + f["t"]):
        kn = normal_curvature(f["w"], f["t"], f["ww"], f["wt"], f["tt"], direction, n)
        np.testing.assert_allclose(np.abs(kn), 2.0, atol=1e-12)


def test_vertex_g2_requires_solved_links():
    # a corner read from first-order links has no mu, nu: the G2 check refuses it
    rng = np.random.default_rng(48)
    _, p1, p2, p4, p3 = split_corner(rng)
    reports = check_edges([(p1, p2, EdgeCorrespondence("u1", "u0")),
                           (p1, p4, EdgeCorrespondence("v1", "v0")),
                           (p2, p3, EdgeCorrespondence("v1", "v0")),
                           (p4, p3, EdgeCorrespondence("u1", "u0"))], 1)
    config = CornerConfig.from_links({key: (rep.link, t, False) for key, rep, t in
                                      zip(("12", "14", "23", "43"), reports, (1, 1, 0, 0))})
    assert check_vertex_g1(config).ok
    with pytest.raises(PreconditionError, match="no second-order data"):
        check_vertex_g2(config)
    assert check_vertex_g2(CornerConfig.from_patches(p1, p2, p3, p4)).ok
