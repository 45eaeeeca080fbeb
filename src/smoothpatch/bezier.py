"""Tensor-product Bezier patches and Bernstein-basis primitives.

Control nets are numpy arrays of shape ``(degree_u + 1, degree_v + 1, 3)``,
indexed ``net[i, j]`` with ``i`` running along the u direction and ``j``
along v.  Every operation here is pure: inputs are never mutated, results
are fresh arrays.  Derivatives are computed from difference nets, which is
exact for polynomial patches; finite differences are reserved for test
oracles.  Every reader of the control rows along a side goes through
``_side_view``.  ``_edge_jets`` evaluates many sides at once, for any number
of sample sets in one call: derivatives up to order k along a side need only
its k + 1 nearest control rows, which it differences once and sums against
each set's basis, term by term from +0.0, so a side's values do not depend
on what else is evaluated with it.  ``_eval_grids`` evaluates whole patches
on tensor grids: it sums ``(B_i(u) * net[i, j]) * B_j(v)`` from +0.0, i
outer and j inner, the order of ``np.einsum("ai,ijc,bj->abc")``.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "BezierPatch",
    "TriangleMesh",
    "binom",
    "bernstein_eval",
    "bernstein_basis",
    "patch_eval",
    "eval_grid",
    "derivative_net",
    "patch_derivative",
    "normal_vector",
    "elevation_matrix",
    "elevate_row",
    "elevate_cubic_row_to_quintic",
    "boundary_row",
    "split_patch",
    "split_grid",
    "tessellate",
    "flip_u",
    "flip_v",
    "transpose_patch",
    "transform_patch",
    "bounding_diagonal",
]

# Binomials are tabulated up to degree 16, which covers the (6,6)
# constructions and their Bernstein products; higher degrees use math.comb.
_MAX_DEGREE = 16
_BINOM = tuple(tuple(math.comb(n, k) for k in range(n + 1)) for n in range(_MAX_DEGREE + 1))

SIDES = ("u0", "u1", "v0", "v1")


def binom(n: int, k: int) -> int:
    """Binomial coefficient C(n, k); 0 outside the valid range."""
    if k < 0 or k > n:
        return 0
    if n <= _MAX_DEGREE:
        return _BINOM[n][k]
    return math.comb(n, k)


def bernstein_eval(n: int, i: int, u: float) -> float:
    """Value of the i-th Bernstein polynomial of degree n at u."""
    if not 0 <= i <= n:
        raise ValueError(f"Bernstein index {i} out of range for degree {n}")
    return binom(n, i) * (1.0 - u) ** (n - i) * u**i


def bernstein_basis(n: int, t) -> np.ndarray:
    """All degree-n Bernstein polynomials at the parameters t.

    Returns an array of shape ``(len(t), n + 1)``; scalar ``t`` gives
    shape ``(n + 1,)``.
    """
    t = np.asarray(t, dtype=float)
    scalar = t.ndim == 0
    t = np.atleast_1d(t)
    k = np.arange(n + 1)
    coeffs = np.array([binom(n, i) for i in k], dtype=float)
    out = coeffs * (1.0 - t[:, None]) ** (n - k) * t[:, None] ** k
    return out[0] if scalar else out


@functools.lru_cache(maxsize=128)
def _basis_matrix(n: int, t_bytes: bytes) -> np.ndarray:
    """Read-only ``bernstein_basis(n, t)`` for the float samples t of ``t_bytes``, cached.

    The cache is keyed by the degree and the exact bytes of the samples, so
    the solvers' fixed sample sets build each matrix once per process.
    """
    out = bernstein_basis(n, np.frombuffer(t_bytes))
    out.flags.writeable = False
    return out


def _frozen(arr) -> np.ndarray:
    """``arr`` as a read-only float64 array whose memory is read-only; copied only if it is not one.

    A read-only view of a read-only array is kept as it is: nothing can
    write through either of them.
    """
    if isinstance(arr, np.ndarray) and arr.dtype == np.float64 and not arr.flags.writeable:
        base = arr if arr.base is None else arr.base
        if isinstance(base, np.ndarray) and not base.flags.writeable:
            return arr
    out = np.array(arr, dtype=float)
    out.flags.writeable = False
    return out


@dataclass(frozen=True, eq=False)
class BezierPatch:
    """Rectangular control net of 3D points with bi-degree (degree_u, degree_v).

    The net is read-only: a net in read-only memory is kept as a view, any other copied.
    """

    degree_u: int
    degree_v: int
    net: np.ndarray

    def __post_init__(self):
        if self.degree_u < 1 or self.degree_v < 1:
            raise ValueError("patch degrees must be >= 1")
        net = _frozen(self.net)
        expect = (self.degree_u + 1, self.degree_v + 1, 3)
        if net.shape != expect:
            raise ValueError(f"net shape {net.shape} does not match degrees, expected {expect}")
        if not np.all(np.isfinite(net)):
            raise ValueError("control net contains non-finite coordinates")
        object.__setattr__(self, "net", net)

    @classmethod
    def from_net(cls, net) -> "BezierPatch":
        net = np.asarray(net, dtype=float)
        return cls(net.shape[0] - 1, net.shape[1] - 1, net)

    def __call__(self, u: float, v: float) -> np.ndarray:
        return patch_eval(self, u, v)

    def corner(self, iu: int, jv: int) -> np.ndarray:
        """Corner control point; iu, jv in {0, 1} select the u/v end."""
        return self.net[-1 if iu else 0, -1 if jv else 0].copy()


@dataclass(frozen=True, eq=False)
class TriangleMesh:
    vertices: np.ndarray  # (N, 3)
    faces: np.ndarray  # (M, 3) int, CCW as seen from the +normal side

    def __post_init__(self):
        v = np.array(self.vertices, dtype=float)
        f = np.array(self.faces, dtype=int)
        v.flags.writeable = False
        f.flags.writeable = False
        object.__setattr__(self, "vertices", v)
        object.__setattr__(self, "faces", f)


def _check_domain(u: float, v: float) -> None:
    if not (0.0 <= u <= 1.0 and 0.0 <= v <= 1.0):
        raise ValueError(f"parameters ({u}, {v}) outside the unit square")


def _de_casteljau(points: np.ndarray, t: float) -> np.ndarray:
    pts = points
    while pts.shape[0] > 1:
        pts = (1.0 - t) * pts[:-1] + t * pts[1:]
    return pts[0]


def patch_eval(p: BezierPatch, u: float, v: float) -> np.ndarray:
    """Evaluate the patch at (u, v) by de Casteljau reduction."""
    _check_domain(u, v)
    rows = _de_casteljau(np.swapaxes(p.net, 0, 1), v)  # reduce v first
    return _de_casteljau(rows, u)


def eval_grid(p: BezierPatch, us, vs) -> np.ndarray:
    """Basis-sum evaluation on a tensor grid; returns (len(us), len(vs), 3).

    Independent of the de Casteljau path, which makes the two usable as
    cross-checks of one another.
    """
    return _eval_grids([p], us, vs)[0]


def _eval_grids(patches, us, vs) -> np.ndarray:
    """Points of many patches on one tensor grid, ``(patch, u, v, xyz)``; one pass per bi-degree."""
    us, vs = (np.atleast_1d(np.asarray(t, dtype=float)) for t in (us, vs))
    if not (0.0 <= us.min() <= us.max() <= 1.0 and 0.0 <= vs.min() <= vs.max() <= 1.0):  # NaN fails too
        raise ValueError("sample parameters outside the unit square")
    groups: dict[tuple, list] = {}
    for k, p in enumerate(patches):
        groups.setdefault((p.degree_u, p.degree_v), []).append(k)
    out = np.empty((len(patches), len(us), len(vs), 3))
    for (n, m), idx in groups.items():
        bu = _basis_matrix(n, us.tobytes()).T
        bv = _basis_matrix(m, vs.tobytes()).T
        nets = np.stack([patches[k].net for k in idx])
        acc = np.zeros((len(idx), 3, len(us), len(vs)))  # (patch, xyz, u, v)
        for i in range(n + 1):
            row = nets[:, i, :, :, None] * bu[i]  # (patch, j, xyz, u)
            for j in range(m + 1):
                acc += row[:, j, :, :, None] * bv[j]
        out[idx] = acc.transpose(0, 2, 3, 1)
    return out


def derivative_net(p: BezierPatch, du: int = 0, dv: int = 0) -> BezierPatch:
    """Difference-net (hodograph) patch whose evaluation is the partial derivative."""
    net, n, m = p.net, p.degree_u, p.degree_v
    for _ in range(du):
        net, n = _difference(net, n, 0)
    for _ in range(dv):
        net, m = _difference(net, m, 1)
    # degree-0 vector fields are stored as degree-1 patches with equal rows
    if n == 0:
        net = np.repeat(net, 2, axis=0)
        n = 1
    if m == 0:
        net = np.repeat(net, 2, axis=1)
        m = 1
    return BezierPatch(n, m, net)


def patch_derivative(p: BezierPatch, u: float, v: float, du: int, dv: int) -> np.ndarray:
    """Exact partial derivative d^(du+dv) r / du^du dv^dv at (u, v)."""
    if du not in (0, 1, 2) or dv not in (0, 1, 2) or du + dv > 2:
        raise ValueError(f"unsupported derivative order ({du}, {dv})")
    _check_domain(u, v)
    return patch_eval(derivative_net(p, du, dv), u, v)


def normal_vector(p: BezierPatch, u: float, v: float) -> np.ndarray:
    """Unnormalized surface normal r_u x r_v at (u, v)."""
    return np.cross(patch_derivative(p, u, v, 1, 0), patch_derivative(p, u, v, 0, 1))


def _difference(nets: np.ndarray, degree: int, axis: int):
    """Hodograph control points of stacked degree-``degree`` Bezier forms along ``axis``.

    ``axis`` is 0 for the rows (u) and 1 for the columns (v) of the nets.
    """
    if degree == 0:
        return np.zeros_like(nets), 0
    if axis == 0:
        return degree * (nets[1:] - nets[:-1]), degree - 1
    return degree * (nets[:, 1:] - nets[:, :-1]), degree - 1


def _side_view(net: np.ndarray, side: str, reversed_: bool = False) -> np.ndarray:
    """A view of ``net`` whose ``[k, t]`` is the point k rows in from ``side``, t along it.

    t runs against the patch's own edge parameter when ``reversed_``.
    """
    view = net if side[0] == "u" else net.swapaxes(0, 1)
    if side[1] == "1":
        view = view[::-1]
    return view[:, ::-1] if reversed_ else view


def _edge_jets(sides, requests) -> list:
    """Points and partial derivatives of many patches along one side each, per sample set.

    ``sides`` holds ``(patch, side, reversed)`` triples, each read through
    ``_side_view``, so ``t`` is a shared parameter that runs backwards along
    a reversed side.  ``requests`` holds ``(t, order)`` pairs, and the
    result one dict per request: key ``(k, l)`` maps to the derivative taken
    k times into the patch, across the side, and l times along the shared
    t, k + l <= order, as an array of shape ``(len(sides), len(t), 3)``.
    Sides are grouped by the shape of their view.  Each group stacks the
    control rows nearest its side, differences them across once, to the
    highest order requested, and differences the first row of each result
    along t once per l.  Each request then sums the group's coefficients for
    every k <= order - l against its basis at t, from +0.0 and term by term
    in ascending basis index.  That order is fixed, so a side's values are
    the same bits whatever else is in the batch or requested with it.
    """
    requests = [(np.ascontiguousarray(t, dtype=float), order) for t, order in requests]
    t_bytes = [t.tobytes() for t, _ in requests]
    top = max(order for _, order in requests)
    groups: dict[tuple, list] = {}
    for i, (p, side, rev) in enumerate(sides):
        view = _side_view(p.net, side, rev)
        groups.setdefault(view.shape[:2], []).append((i, view[:top + 1]))
    results = [{} for _ in requests]
    for (rows, cols), members in groups.items():
        idx = [i for i, _ in members]
        d_w, n = np.stack([view for _, view in members], axis=2), rows - 1  # (k, t, side, xyz)
        firsts = [d_w[0]]
        for _ in range(top):
            d_w, n = _difference(d_w, n, 0)
            firsts.append(d_w[0])
        d_t, degree = np.stack(firsts, axis=1), cols - 1  # (t, k, side, xyz)
        for l in range(top + 1):
            if l:
                d_t, degree = _difference(d_t, degree, 0)
            coeffs = d_t.reshape(degree + 1, -1)
            for (t, order), key, jets in zip(requests, t_bytes, results):
                if order < l:
                    continue
                ks = order - l + 1
                width = 3 * ks * len(idx)
                basis = _basis_matrix(degree, key)
                out, term = np.zeros((len(t), width)), np.empty((len(t), width))
                for b in range(degree + 1):  # -0.0 + 0.0 is +0.0
                    out += np.multiply(basis[:, b, None], coeffs[b, :width], out=term)
                values = out.reshape(len(t), ks, len(idx), 3)
                for k in range(ks):
                    if (k, l) not in jets:
                        jets[k, l] = np.empty((len(sides), len(t), 3))
                    jets[k, l][idx] = values[:, k].swapaxes(0, 1)
    return results


@functools.lru_cache(maxsize=128)
def _product_weights(n: int, big_l: int):
    """Read-only weights and ordinate indices of ``_product_matrix``, cached by the degrees.

    Entry (i, j) weighs ordinate i - j by C(n, j) C(L, i - j) / C(n + L, i), divided in
    integers; off the band it reads ordinate L + 1, the padded zero, with weight 0.0.
    """
    i, j = np.indices((n + big_l + 1, n + 1))
    weights = np.array([[binom(n, b) * binom(big_l, a - b) / binom(n + big_l, a)
                         for b in range(n + 1)] for a in range(n + big_l + 1)])
    index = np.where((i >= j) & (i - j <= big_l), i - j, big_l + 1)
    weights.flags.writeable = index.flags.writeable = False
    return weights, index


def _product_matrix(n: int, coeffs) -> np.ndarray:
    """Matrix P with P @ c = the Bernstein coefficients of f * g.

    ``c`` holds the degree-n Bernstein coefficients of g and ``coeffs`` the
    Bernstein ordinates of f, of degree L = len(coeffs) - 1; the product has
    degree n + L (Farouki & Rajan, CAGD 1988).  Its entries are the cached
    weights times the ordinates they index.
    """
    f = np.asarray(coeffs, dtype=float)
    weights, index = _product_weights(n, f.size - 1)
    return weights * np.append(f, 0.0)[index]


def elevation_matrix(n: int, target: int) -> np.ndarray:
    """Matrix E with elevated = E @ points, raising degree n to target exactly.

    Degree elevation is the Bernstein product with the constant 1.
    """
    if target < n:
        raise ValueError(f"cannot lower degree: {n} -> {target}")
    return _product_matrix(n, np.ones(target - n + 1))


def elevate_row(points, target_degree: int) -> np.ndarray:
    """Re-express a Bezier control row exactly at a higher degree."""
    pts = np.asarray(points, dtype=float)
    return elevation_matrix(pts.shape[0] - 1, target_degree) @ pts


def elevate_cubic_row_to_quintic(row) -> np.ndarray:
    """Cubic-to-quintic degree elevation of a 4-point control row."""
    pts = np.asarray(row, dtype=float)
    if pts.shape[0] != 4:
        raise ValueError(f"expected 4 control points, got {pts.shape[0]}")
    return elevate_row(pts, 5)


def boundary_row(p: BezierPatch, side: str, offset: int = 0) -> np.ndarray:
    """Control row on (offset 0), or inward from (offset >= 1), the given side.

    Ordered in increasing parameter of the free direction.
    """
    if side not in SIDES:
        raise ValueError(f"unknown side {side!r}, expected one of {SIDES}")
    view = _side_view(p.net, side)
    if not 0 <= offset < len(view):
        raise ValueError(f"offset {offset} out of range for degree {len(view) - 1}")
    return view[offset].copy()


def _split_axis0(net: np.ndarray, t: float):
    n = net.shape[0] - 1
    left = [net[0]]
    right = [net[-1]]
    pts = net
    for _ in range(n):
        pts = (1.0 - t) * pts[:-1] + t * pts[1:]
        left.append(pts[0])
        right.append(pts[-1])
    return np.stack(left), np.stack(right[::-1])


def split_patch(p: BezierPatch, u: float | None = None, v: float | None = None):
    """De Casteljau subdivision at u and/or v; returns the sub-patch tuple.

    One parameter gives two patches (low, high); both give four in the
    order (low-u low-v, high-u low-v, low-u high-v, high-u high-v).
    """
    if u is None and v is None:
        raise ValueError("provide a split parameter u and/or v")
    if u is not None:
        if not 0.0 < u < 1.0:
            raise ValueError("split parameter u must lie strictly inside (0, 1)")
        la, ra = _split_axis0(p.net, u)
        left, right = BezierPatch.from_net(la), BezierPatch.from_net(ra)
        if v is None:
            return left, right
        ll, lh = split_patch(left, v=v)
        rl, rh = split_patch(right, v=v)
        return ll, rl, lh, rh
    if not 0.0 < v < 1.0:
        raise ValueError("split parameter v must lie strictly inside (0, 1)")
    la, ra = _split_axis0(np.swapaxes(p.net, 0, 1), v)
    return (
        BezierPatch.from_net(np.swapaxes(la, 0, 1)),
        BezierPatch.from_net(np.swapaxes(ra, 0, 1)),
    )


def split_grid(p: BezierPatch, u_breaks, v_breaks):
    """Split a patch into a cell grid; cells[i][j] covers u-cell i, v-cell j."""

    def split_1d(patch, breaks, axis):
        segs, lo = [], 0.0
        rest = patch
        for b in breaks:
            t = (b - lo) / (1.0 - lo)
            if axis == "u":
                left, rest = split_patch(rest, u=t)
            else:
                left, rest = split_patch(rest, v=t)
            segs.append(left)
            lo = b
        segs.append(rest)
        return segs

    u_breaks = sorted(u_breaks)
    v_breaks = sorted(v_breaks)
    if any(not 0.0 < b < 1.0 for b in u_breaks + v_breaks):
        raise ValueError("break parameters must lie strictly inside (0, 1)")
    columns = split_1d(p, u_breaks, "u")
    return [split_1d(col, v_breaks, "v") for col in columns]


def _grid_faces(nu: int, nv: int) -> np.ndarray:
    """Two triangles per cell of an (nu+1) x (nv+1) sample grid, as row-major vertex indices."""
    if nu < 1 or nv < 1:
        raise ValueError("tessellation requires nu, nv >= 1")
    # quad (i, j) has corners a = (i, j), b = (i+1, j), c = (i+1, j+1), d = (i, j+1)
    a = (np.arange(nu)[:, None] * (nv + 1) + np.arange(nv)).ravel()
    b, c, d = a + nv + 1, a + nv + 2, a + 1
    return np.stack([a, b, c, a, c, d], axis=1).reshape(-1, 3)


def tessellate(p: BezierPatch, nu: int, nv: int) -> TriangleMesh:
    """Sample an (nu+1) x (nv+1) grid on the patch and triangulate it."""
    faces = _grid_faces(nu, nv)
    verts = eval_grid(p, np.linspace(0.0, 1.0, nu + 1), np.linspace(0.0, 1.0, nv + 1))
    return TriangleMesh(verts.reshape(-1, 3), faces)


def flip_u(p: BezierPatch) -> BezierPatch:
    """Reverse the u parameter: q(u, v) = p(1 - u, v)."""
    return BezierPatch(p.degree_u, p.degree_v, p.net[::-1].copy())


def flip_v(p: BezierPatch) -> BezierPatch:
    """Reverse the v parameter: q(u, v) = p(u, 1 - v)."""
    return BezierPatch(p.degree_u, p.degree_v, p.net[:, ::-1].copy())


def transpose_patch(p: BezierPatch) -> BezierPatch:
    """Swap the parameter roles: q(u, v) = p(v, u)."""
    return BezierPatch(p.degree_v, p.degree_u, np.swapaxes(p.net, 0, 1).copy())


def transform_patch(p: BezierPatch, matrix=None, shift=None) -> BezierPatch:
    """Apply an affine map x -> matrix @ x + shift to the control net."""
    net = p.net
    if matrix is not None:
        net = net @ np.asarray(matrix, dtype=float).T
    if shift is not None:
        net = net + np.asarray(shift, dtype=float)
    return BezierPatch(p.degree_u, p.degree_v, net)


def bounding_diagonal(*patches: BezierPatch) -> float:
    """Diagonal of the joint axis-aligned bounding box of the control nets.

    Used to normalize residuals so tolerances are scale-free.
    """
    pts = np.concatenate([p.net.reshape(-1, 3) for p in patches])
    d = float(np.linalg.norm(pts.max(axis=0) - pts.min(axis=0)))
    return d if d > 0.0 else 1.0


def _pair_diagonals(pairs) -> np.ndarray:
    """``bounding_diagonal(a, b)`` of each (a, b, ...) in ``pairs``, the same bits.

    Each distinct patch's box is taken once.  Min and max are exact, so the
    box of two boxes is the box of the two nets, and a 1x3 by 3x1 matmul
    sums with the dot that ``np.linalg.norm`` of one vector takes.
    """
    slots = {}
    index = np.array([[slots.setdefault(id(p), (len(slots), p))[0] for p in pair[:2]]
                      for pair in pairs])
    nets = [p.net.reshape(-1, 3) for _, p in slots.values()]
    starts = list(itertools.accumulate([len(net) for net in nets[:-1]], initial=0))
    pts = np.concatenate(nets)
    d = (np.maximum.reduceat(pts, starts)[index].max(axis=1)
         - np.minimum.reduceat(pts, starts)[index].min(axis=1))[:, None]
    diag = np.sqrt(d @ d.transpose(0, 2, 1))[:, 0, 0]
    diag[diag == 0.0] = 1.0
    return diag
