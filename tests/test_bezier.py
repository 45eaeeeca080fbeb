"""Bernstein/Bezier primitive tests."""

import numpy as np
import pytest
from fractions import Fraction
from hypothesis import given, settings
from hypothesis import strategies as st

from smoothpatch.bezier import (
    BezierPatch,
    bernstein_basis,
    boundary_row,
    bounding_diagonal,
    elevate_row,
    elevation_matrix,
    eval_grid,
    split_grid,
    split_patch,
    transform_patch,
)
from smoothpatch.bezier import _diagonals, _grid_faces, _product_matrix, _product_weights

from helpers import (
    derivative_net,
    normal_vector,
    patch_derivative,
    patch_eval,
    product_matrix_reference,
    rigid_motion,
    smooth_patch,
)


def test_bernstein_endpoint():
    assert bernstein_basis(3, 0.0)[0] == 1.0
    assert bernstein_basis(3, 1.0)[3] == 1.0
    assert bernstein_basis(3, 0.5)[2] == 0.375


def test_bernstein_partition_of_unity():
    assert abs(bernstein_basis(5, 0.3).sum() - 1.0) < 1e-15
    t = np.linspace(0.0, 1.0, 23)
    for n in range(11):
        basis = bernstein_basis(n, t)
        np.testing.assert_allclose(basis.sum(axis=1), 1.0, atol=1e-14)


def test_patch_eval_corners_and_bilinear():
    p = BezierPatch.from_net([[[0, 0, 0], [0, 1, 0]], [[1, 0, 0], [1, 1, 0]]])
    np.testing.assert_array_equal(patch_eval(p, 0, 0), [0, 0, 0])
    np.testing.assert_array_equal(patch_eval(p, 1, 1), [1, 1, 0])
    np.testing.assert_allclose(patch_eval(p, 0.5, 0.5), [0.5, 0.5, 0.0], atol=1e-15)


def test_patch_eval_two_algorithms_agree():
    rng = np.random.default_rng(1)
    p = smooth_patch(rng)
    for u, v in rng.uniform(0, 1, size=(20, 2)):
        np.testing.assert_allclose(
            patch_eval(p, u, v), eval_grid(p, [u], [v])[0, 0], atol=1e-13
        )


def test_patch_eval_corner_control_points_exact():
    rng = np.random.default_rng(2)
    p = smooth_patch(rng, 4, 5)
    np.testing.assert_array_equal(patch_eval(p, 0, 0), p.net[0, 0])
    np.testing.assert_array_equal(patch_eval(p, 1, 0), p.net[-1, 0])
    np.testing.assert_array_equal(patch_eval(p, 0, 1), p.net[0, -1])
    np.testing.assert_array_equal(patch_eval(p, 1, 1), p.net[-1, -1])


def test_patch_eval_domain_check():
    p = BezierPatch.from_net([[[0, 0, 0], [0, 1, 0]], [[1, 0, 0], [1, 1, 0]]])
    with pytest.raises(ValueError):
        patch_eval(p, -0.1, 0.5)
    with pytest.raises(ValueError):
        patch_eval(p, 0.5, 1.1)


@pytest.mark.parametrize("us, vs", [([np.nan], [0.5]), ([0.5], [0.2, np.nan]), ([0.0, np.nan], [1.0]),
                                    ([-0.1], [0.5]), ([0.5], [1.1])])
def test_eval_grid_domain_check(us, vs):
    p = BezierPatch.from_net([[[0, 0, 0], [0, 1, 0]], [[1, 0, 0], [1, 1, 0]]])
    with pytest.raises(ValueError, match="outside the unit square"):
        eval_grid(p, us, vs)


def test_derivative_planar_patch():
    p = BezierPatch.from_net([[[0, 0, 0], [0, 1, 0]], [[1, 0, 0], [1, 1, 0]]])
    for u, v in [(0.0, 0.0), (0.3, 0.8), (1.0, 1.0)]:
        np.testing.assert_allclose(patch_derivative(p, u, v, 1, 0), [1, 0, 0], atol=1e-15)
        np.testing.assert_allclose(patch_derivative(p, u, v, 0, 1), [0, 1, 0], atol=1e-15)


def test_derivative_against_finite_differences():
    rng = np.random.default_rng(3)
    p = smooth_patch(rng, 5, 5)
    h = 1e-5
    for u, v in rng.uniform(0.1, 0.9, size=(8, 2)):
        du = patch_derivative(p, u, v, 1, 0)
        fd = (patch_eval(p, u + h, v) - patch_eval(p, u - h, v)) / (2 * h)
        assert np.linalg.norm(du - fd) <= 1e-6 * max(1.0, np.linalg.norm(du))
        dv = patch_derivative(p, u, v, 0, 1)
        fd = (patch_eval(p, u, v + h) - patch_eval(p, u, v - h)) / (2 * h)
        assert np.linalg.norm(dv - fd) <= 1e-6 * max(1.0, np.linalg.norm(dv))
        duv = patch_derivative(p, u, v, 1, 1)
        fd = (
            patch_eval(p, u + h, v + h) - patch_eval(p, u - h, v + h)
            - patch_eval(p, u + h, v - h) + patch_eval(p, u - h, v - h)
        ) / (4 * h * h)
        assert np.linalg.norm(duv - fd) <= 1e-5 * max(1.0, np.linalg.norm(duv))


def test_derivative_degenerate_direction():
    # all rows equal in v: the patch is a curve swept with zero v-variation
    net = np.zeros((4, 4, 3))
    net[:, :, 0] = np.linspace(0, 1, 4)[:, None]
    net[:, :, 2] = np.array([0.0, 0.3, -0.2, 0.1])[:, None]
    p = BezierPatch.from_net(net)
    for u, v in [(0.2, 0.4), (0.9, 0.1)]:
        np.testing.assert_allclose(patch_derivative(p, u, v, 0, 1), 0.0, atol=1e-15)


def test_derivative_order_validation():
    p = BezierPatch.from_net([[[0, 0, 0], [0, 1, 0]], [[1, 0, 0], [1, 1, 0]]])
    with pytest.raises(ValueError):
        patch_derivative(p, 0.5, 0.5, 2, 1)
    with pytest.raises(ValueError):
        patch_derivative(p, 0.5, 0.5, 3, 0)


def test_second_derivative_exact_on_quadratic():
    # z = u^2 encoded at degree 2: second u-derivative is exactly 2
    net = np.zeros((3, 2, 3))
    net[:, :, 0] = np.array([0, 0.5, 1.0])[:, None]
    net[:, 1, 1] = 1.0
    net[:, :, 2] = np.array([0.0, 0.0, 1.0])[:, None]
    p = BezierPatch.from_net(net)
    np.testing.assert_allclose(patch_derivative(p, 0.3, 0.6, 2, 0), [0, 0, 2.0], atol=1e-14)


def test_elevation_collinear_row():
    row = np.array([[0, 0, 0], [1, 0, 0], [2, 0, 0], [3, 0, 0]], float)
    out = elevate_row(row, 5)
    np.testing.assert_allclose(out[:, 0], [0.0, 0.6, 1.2, 1.8, 2.4, 3.0], atol=1e-15)


def test_elevation_coefficients_match_exact_rationals():
    mat = elevation_matrix(3, 5)
    expected = np.zeros((6, 4))
    exact = {
        (0, 0): Fraction(1),
        (1, 0): Fraction(2, 5), (1, 1): Fraction(3, 5),
        (2, 0): Fraction(1, 10), (2, 1): Fraction(6, 10), (2, 2): Fraction(3, 10),
        (3, 1): Fraction(3, 10), (3, 2): Fraction(6, 10), (3, 3): Fraction(1, 10),
        (4, 2): Fraction(3, 5), (4, 3): Fraction(2, 5),
        (5, 3): Fraction(1),
    }
    for (i, j), frac in exact.items():
        expected[i, j] = float(frac)
    np.testing.assert_array_equal(mat, expected)


_ORDINATES = st.one_of(st.sampled_from([0.0, -0.0, 1.0, -1.0, 5e-324, 1e300]),
                       st.floats(allow_nan=False, allow_infinity=False))


@settings(max_examples=300, deadline=None)
@given(n=st.integers(0, 16), ordinates=st.lists(_ORDINATES, min_size=1, max_size=7))
def test_product_matrix_is_the_entry_by_entry_product_bit_for_bit(n, ordinates):
    # compared as int64 so that a -0.0 must stay -0.0 and off-band entries +0.0
    got = _product_matrix(n, ordinates)
    want = product_matrix_reference(n, ordinates)
    assert got.shape == want.shape and got.flags.writeable
    np.testing.assert_array_equal(got.view(np.int64), want.view(np.int64))


def test_product_weights_are_cached_by_the_degrees_and_read_only():
    weights, index = _product_weights(3, 2)
    assert _product_weights(3, 2)[0] is weights
    assert not weights.flags.writeable and not index.flags.writeable
    # off the band, a zero weight reads the padded zero ordinate L + 1
    assert index[0, 1] == 3 and weights[0, 1] == 0.0 and index[5, 3] == 2


def test_elevation_preserves_curve():
    rng = np.random.default_rng(4)
    t = np.linspace(0.0, 1.0, 101)
    b3 = bernstein_basis(3, t)
    b5 = bernstein_basis(5, t)
    for _ in range(25):
        row = rng.normal(size=(4, 3))
        elevated = elevate_row(row, 5)
        np.testing.assert_allclose(b3 @ row, b5 @ elevated, atol=1e-12)


def test_elevate_row_wrong_length():
    with pytest.raises(ValueError, match="cannot lower degree"):
        elevate_row(np.zeros((4, 3)), 2)


def test_boundary_row_definitions():
    rng = np.random.default_rng(5)
    p = smooth_patch(rng)
    np.testing.assert_array_equal(boundary_row(p, "v1", 0), p.net[:, 3])
    np.testing.assert_array_equal(boundary_row(p, "u0", 1), p.net[1, :])
    np.testing.assert_array_equal(boundary_row(p, "u1", 0), p.net[3, :])
    np.testing.assert_array_equal(boundary_row(p, "v0", 1), p.net[:, 1])


def test_boundary_row_curve_matches_surface():
    rng = np.random.default_rng(6)
    p = smooth_patch(rng, 4, 3)
    t = np.linspace(0.0, 1.0, 11)
    row = boundary_row(p, "v1", 0)
    curve = bernstein_basis(p.degree_u, t) @ row
    surface = eval_grid(p, t, [1.0])[:, 0]
    np.testing.assert_allclose(curve, surface, atol=1e-13)
    row = boundary_row(p, "u0", 0)
    curve = bernstein_basis(p.degree_v, t) @ row
    surface = eval_grid(p, [0.0], t)[0]
    np.testing.assert_allclose(curve, surface, atol=1e-13)


def test_boundary_row_errors():
    rng = np.random.default_rng(7)
    p = smooth_patch(rng)
    with pytest.raises(ValueError):
        boundary_row(p, "w0", 0)
    with pytest.raises(ValueError):
        boundary_row(p, "u0", 9)


def _tessellate(p, nu, nv):
    """The vertices and faces that ``export`` writes for one patch."""
    grid = eval_grid(p, np.linspace(0.0, 1.0, nu + 1), np.linspace(0.0, 1.0, nv + 1))
    return grid.reshape(-1, 3), _grid_faces(nu, nv)


def test_tessellate_counts():
    p = BezierPatch.from_net([[[0, 0, 0], [0, 1, 0]], [[1, 0, 0], [1, 1, 0]]])
    vertices, faces = _tessellate(p, 1, 1)
    assert vertices.shape == (4, 3) and faces.shape == (2, 3)
    vertices, faces = _tessellate(p, 8, 4)
    assert vertices.shape == (45, 3) and faces.shape == (64, 3)


@pytest.mark.parametrize("nu, nv", [(1, 1), (3, 5), (6, 2)])
def test_tessellate_faces_match_the_loop_order(nu, nv):
    want = []
    for i in range(nu):
        for j in range(nv):
            a, b = i * (nv + 1) + j, (i + 1) * (nv + 1) + j
            want += [(a, b, b + 1), (a, b + 1, a + 1)]
    np.testing.assert_array_equal(_grid_faces(nu, nv), want)


def test_tessellate_planar_and_winding():
    p = BezierPatch.from_net([[[0, 0, 0], [0, 1, 0]], [[1, 0, 0], [1, 1, 0]]])
    v, faces = _tessellate(p, 3, 5)
    np.testing.assert_array_equal(v[:, 2], 0.0)
    # consistent winding: all face normals point the same way for a plane
    normals = np.cross(v[faces[:, 1]] - v[faces[:, 0]], v[faces[:, 2]] - v[faces[:, 0]])
    assert np.all(normals[:, 2] > 0) or np.all(normals[:, 2] < 0)


def test_tessellate_validates_resolution():
    with pytest.raises(ValueError):
        _grid_faces(0, 3)


def test_rigid_motion_equivariance():
    rng = np.random.default_rng(8)
    p = smooth_patch(rng, 4, 4)
    rot, shift = rigid_motion(rng)
    moved = transform_patch(p, rot, shift)
    for u, v in rng.uniform(0, 1, size=(10, 2)):
        np.testing.assert_allclose(
            patch_eval(moved, u, v), rot @ patch_eval(p, u, v) + shift, atol=1e-12
        )


def test_split_reproduces_surface():
    rng = np.random.default_rng(9)
    p = smooth_patch(rng)
    left, right = split_patch(p, u=0.37)
    for t in np.linspace(0, 1, 9):
        np.testing.assert_allclose(
            patch_eval(left, t, 0.4), patch_eval(p, 0.37 * t, 0.4), atol=1e-13)
        np.testing.assert_allclose(
            patch_eval(right, t, 0.4), patch_eval(p, 0.37 + 0.63 * t, 0.4), atol=1e-13)
    cells = split_grid(p, [1 / 3, 2 / 3], [0.5])
    np.testing.assert_allclose(
        patch_eval(cells[1][1], 0.5, 0.5), patch_eval(p, 0.5, 0.75), atol=1e-13)


def test_patch_validation():
    with pytest.raises(ValueError):
        BezierPatch(3, 3, np.zeros((4, 3, 3)))
    bad = np.zeros((2, 2, 3))
    bad[0, 0, 0] = np.nan
    with pytest.raises(ValueError):
        BezierPatch.from_net(bad)


def test_derivative_net_matches_patch_derivative():
    rng = np.random.default_rng(10)
    p = smooth_patch(rng, 4, 4)
    d = derivative_net(p, 1, 1)
    for u, v in rng.uniform(0, 1, size=(5, 2)):
        np.testing.assert_allclose(
            patch_eval(d, u, v), patch_derivative(p, u, v, 1, 1), atol=1e-12)


def test_normal_vector_plane():
    p = BezierPatch.from_net([[[0, 0, 0], [0, 2, 0]], [[2, 0, 0], [2, 2, 0]]])
    n = normal_vector(p, 0.3, 0.7)
    np.testing.assert_allclose(n / np.linalg.norm(n), [0, 0, 1], atol=1e-15)


@pytest.mark.parametrize("k", [200, -200])
def test_bounding_diagonal_at_extreme_scales(k):
    # the box is divided by a power of two before its extents are squared, so
    # 1e400 does not overflow and 1e-400 does not underflow to the 1.0 fallback
    a = BezierPatch.from_net(np.array([[[0.0, 0, 0], [0, 4, 0]], [[3, 0, 0], [3, 4, 12]]]) * 10.0**k)
    b = transform_patch(a, shift=np.array([3.0, 0.0, 0.0]) * 10.0**k)
    with np.errstate(all="raise"):
        assert bounding_diagonal(a) == pytest.approx(13.0 * 10.0**k, rel=1e-15)
        assert bounding_diagonal(a, b) == pytest.approx(14.0 * 10.0**k, rel=1e-15)
        pair = _diagonals([(a, a), (a, b)])
    assert pair.tolist() == [bounding_diagonal(a), bounding_diagonal(a, b)]


@settings(max_examples=200, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 8), k=st.integers(-300, 300))
def test_bounding_diagonal_is_the_norm_of_the_halved_box_bit_for_bit(seed, n, k):
    # one group's diagonal as it was taken before the groups were batched: np.linalg.norm
    # of the box's half extents over their power of two, times it
    rng = np.random.default_rng(seed)
    patches = [BezierPatch.from_net(rng.normal(size=(*rng.integers(2, 5, size=2), 3)) * 10.0**k)
               for _ in range(n)]
    pts = np.concatenate([p.net.reshape(-1, 3) for p in patches])
    d = pts.max(axis=0) * 0.5 - pts.min(axis=0) * 0.5
    unit = np.ldexp(0.5, np.frexp(d.max())[1])
    assert bounding_diagonal(*patches) == float(np.linalg.norm(d / unit) * unit * 2.0)


@pytest.mark.parametrize("extent", [2.0**1023, 1.5e308])
def test_bounding_diagonal_of_the_largest_finite_boxes(extent):
    # an extent of 2^1023 or more has no finite power of two above it; the
    # one at or below it is finite, so a diagonal in the float range is neither NaN nor inf
    net = np.zeros((2, 2, 3))
    net[1, :, 0] = extent
    net[:, 1, 1] = 4e307
    a = BezierPatch.from_net(net)
    with np.errstate(all="raise"):
        diag = bounding_diagonal(a)
        pair = _diagonals([(a, a)])
    assert diag == pytest.approx(np.hypot(extent, 4e307), rel=1e-15)
    assert pair.tolist() == [diag]


def test_bounding_diagonal_beyond_the_largest_float_is_inf():
    # the extent 3e308 of two finite coordinates is taken of their halves, so the
    # subtraction does not overflow; the diagonal itself is inf, without a warning
    net = np.zeros((2, 2, 3))
    net[0, :, 0], net[1, :, 0] = -1.5e308, 1.5e308
    a = BezierPatch.from_net(net)
    with np.errstate(all="raise"):
        assert bounding_diagonal(a) == np.inf
        assert _diagonals([(a, a)]).tolist() == [np.inf]
