"""Tensor-product Bezier patches and Bernstein-basis primitives.

Control nets are numpy arrays of shape ``(degree_u + 1, degree_v + 1, 3)``,
indexed ``net[i, j]`` with ``i`` running along the u direction and ``j``
along v.  Every operation here is pure: inputs are never mutated, results
are fresh arrays.  Patches are evaluated one way, by sums against the
Bernstein basis, and derivatives from difference nets, which is exact for
polynomial patches.  Every reader of the control rows along a side goes
through ``_side_view``.  ``_edge_jets`` evaluates many sides at once, for
any number of sample sets in one call: derivatives up to order k along a
side need only its k + 1 nearest control rows, which it differences once
and sums against each set's basis, term by term from +0.0, so a side's
values do not depend on what else is evaluated with it.  ``_eval_grids``
evaluates whole patches on tensor grids: it sums ``(B_i(u) * net[i, j]) *
B_j(v)`` from +0.0, i outer and j inner, the order of
``np.einsum("ai,ijc,bj->abc")``.  Net diagonals, which make tolerances
scale-free, come from ``_diagonals``.
"""

from __future__ import annotations

import functools
import itertools
import math

import numpy as np

__all__ = [
    "BezierPatch",
    "binom",
    "bernstein_basis",
    "eval_grid",
    "elevation_matrix",
    "elevate_row",
    "boundary_row",
    "split_patch",
    "split_grid",
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


class _Record:
    """Base of the frozen records: fields are the ``__slots__``, bound once, then read-only.

    A subclass lists its fields in ``__slots__`` and their defaults in
    ``_defaults``; a default that is a type is called, so each record gets a
    fresh container.  Arguments bind positionally, then by keyword, then by
    default, and ``__post_init__`` runs last.  A call that gives every field
    positionally skips that binding, and the package builds its records so:
    the binding costs microseconds per record.  Assigning or deleting an
    attribute raises ``AttributeError``, and the repr is
    ``Name(field=value, ...)``.  Records compare by identity; a subclass
    declared with ``eq=True`` compares and hashes by its field values.
    """

    __slots__ = ()
    _defaults: dict = {}

    def __init_subclass__(cls, eq: bool = False):
        if eq:
            cls.__eq__ = _Record._value_eq
            cls.__hash__ = _Record._value_hash

    def __init__(self, *args, **kwargs):
        names = self.__slots__
        if kwargs or len(args) != len(names):
            args = self._bind(args, kwargs)
        setattr_ = object.__setattr__
        for name, value in zip(names, args):
            setattr_(self, name, value)
        self.__post_init__()

    def _bind(self, args, kwargs) -> list:
        """The field values of ``args``, then ``kwargs``, then the defaults, in field order."""
        names, cls = self.__slots__, type(self).__name__
        if len(args) > len(names):
            raise TypeError(f"{cls}() takes {len(names)} arguments but {len(args)} were given")
        values = list(args)
        for name in names[len(args):]:
            if name in kwargs:
                values.append(kwargs.pop(name))
            elif name in self._defaults:
                default = self._defaults[name]
                values.append(default() if isinstance(default, type) else default)
            else:
                raise TypeError(f"{cls}() missing argument {name!r}")
        for name in kwargs:
            problem = "multiple values for" if name in names else "an unexpected keyword"
            raise TypeError(f"{cls}() got {problem} argument {name!r}")
        return values

    def __post_init__(self):
        pass

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__slots__)

    def __repr__(self):
        fields = ", ".join(f"{name}={value!r}" for name, value in zip(self.__slots__, self._values()))
        return f"{type(self).__qualname__}({fields})"

    def __reduce__(self):
        return type(self), self._values()

    def _value_eq(self, other):
        if other.__class__ is self.__class__:
            return self._values() == other._values()
        return NotImplemented

    def _value_hash(self):
        return hash(self._values())


class BezierPatch(_Record):
    """Rectangular control net of 3D points with bi-degree (degree_u, degree_v).

    The net is read-only: a net in read-only memory is kept as a view, any other copied.
    """

    __slots__ = ("degree_u", "degree_v", "net")

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

    def corner(self, iu: int, jv: int) -> np.ndarray:
        """Corner control point; iu, jv in {0, 1} select the u/v end."""
        return self.net[-1 if iu else 0, -1 if jv else 0].copy()


def eval_grid(p: BezierPatch, us, vs) -> np.ndarray:
    """Points of one patch on a tensor grid, (len(us), len(vs), 3): ``_eval_grids`` of one."""
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


def _difference(nets: np.ndarray, degree: int):
    """Hodograph control points and degree of degree-``degree`` Bezier forms along axis 0."""
    if degree == 0:
        return np.zeros_like(nets), 0
    return degree * (nets[1:] - nets[:-1]), degree - 1


def _side_view(net: np.ndarray, side: str, reversed_: bool = False) -> np.ndarray:
    """A view of ``net`` whose ``[k, t]`` is the point k rows in from ``side``, t along it.

    t runs against the patch's own edge parameter when ``reversed_``.
    """
    view = net if side[0] == "u" else net.swapaxes(0, 1)
    if side[1] == "1":
        view = view[::-1]
    return view[:, ::-1] if reversed_ else view


def _edge_jets(sides, requests, units=None) -> list:
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
    ``units``, when given, holds a power of two per side that its rows are
    multiplied by before they are differenced: its values come out
    multiplied by it, exactly, and differences of coordinates near the
    float limit do not overflow on the way.
    """
    requests = [(np.ascontiguousarray(t, dtype=float), order) for t, order in requests]
    t_bytes = [t.tobytes() for t, _ in requests]
    top = max(order for _, order in requests)
    groups: dict[tuple, list] = {}
    for i, (p, side, rev) in enumerate(sides):
        view = _side_view(p.net, side, rev)
        groups.setdefault(view.shape[:2], []).append((i, view[:top + 1]))
    results = [{(k, l): np.empty((len(sides), len(t), 3))
                for k in range(order + 1) for l in range(order + 1 - k)} for t, order in requests]
    for (rows, cols), members in groups.items():
        idx = [i for i, _ in members]
        d_w, n = np.stack([view for _, view in members], axis=2), rows - 1  # (k, t, side, xyz)
        if units is not None:
            d_w = d_w * units[idx][:, None]
        firsts = [d_w[0]]
        for _ in range(top):
            d_w, n = _difference(d_w, n)
            firsts.append(d_w[0])
        d_t, degree = np.stack(firsts, axis=1), cols - 1  # (t, k, side, xyz)
        for l in range(top + 1):
            if l:
                d_t, degree = _difference(d_t, degree)
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
    """Diagonal of the joint bounding box of the nets, which makes tolerances scale-free."""
    return float(_diagonals([patches])[0])


def _unit(extent):
    """The power of two 2^(e-1) <= ``extent`` < 2^e (0.5 at zero), to divide extents by before squaring.

    It is finite for every finite extent, and the extents it divides lie below
    2.  Dividing by a power of two is exact, and so is multiplying the root
    back, so a diagonal is the same bits as the unscaled one wherever that one
    neither overflowed nor underflowed.
    """
    return np.ldexp(0.5, np.frexp(extent)[1])


def _diagonals(groups) -> np.ndarray:
    """The diagonal of the joint bounding box of each group's nets; the groups are of one size.

    Each distinct patch's box is taken once.  Min and max are exact, so the
    box of boxes is the box of the nets.  The box's half extents are divided
    by its ``_unit`` before a 1x3 by 3x1 matmul squares and sums them, so
    neither the extents nor their squares overflow or underflow, and a
    diagonal is inf only where it exceeds the largest float.  A box of one
    point has diagonal 1.0.
    """
    if not groups:
        return np.ones(0)
    slots = {}
    index = np.array([[slots.setdefault(id(p), (len(slots), p))[0] for p in group]
                      for group in groups])
    nets = [p.net.reshape(-1, 3) for _, p in slots.values()]
    starts = list(itertools.accumulate([len(net) for net in nets[:-1]], initial=0))
    pts = np.concatenate(nets)
    d = (np.maximum.reduceat(pts, starts)[index].max(axis=1) * 0.5
         - np.minimum.reduceat(pts, starts)[index].min(axis=1) * 0.5)
    unit = _unit(d.max(axis=1))
    d = (d / unit[:, None])[:, None]
    with np.errstate(over="ignore"):
        diag = np.sqrt(d @ d.transpose(0, 2, 1))[:, 0, 0] * unit * 2.0
    diag[diag == 0.0] = 1.0
    return diag
