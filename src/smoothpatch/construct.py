"""Constructive algorithms: G1 band rows, fourth-patch completion,
hole filling at bi-degree (5,5) and (6,6), and fillet surfaces.

All constructions consume bi-cubic neighbours whose shared edges carry
polynomial link functions, and all build their nets one way.  Each G1 join
of the new patch is a side spec, ``_Side``: the neighbour, its side, and the
Bernstein ordinates of the join's lambda and kappa.  The join's boundary row
is the neighbour's boundary row elevated to the new degree m; its band row
adds ``g1_band_offsets / m``, the Bernstein product of the link polynomials
with the neighbour's difference rows.  ``_assemble`` writes every boundary
row, then every band.  Free coefficients are pinned by the vertex
compatibility conditions so that doubly-determined control points agree;
every such point is asserted, never averaged.  The twist at a corner two
joins share is m*m times each join's mixed difference of boundary and band
there (``_twists``); the twist checks compare the two.

Each construction solves the joins it is given once, in one link batch.
The fillet fills every odd row by the (5,5) hole fill, on a ring built from
its strip-join constants and its exact bridge lambdas; the last row of an
even fillet has an open-top ring, whose fill joins only the patches it has.

Layout conventions: a nine-patch ring is indexed

        v ^   3  6  9
          |   2  5  8        position p = 1 + 3*column + row,
          |   1  4  7        hole at 5, u to the right
          +---------> u

with all patches sharing the global parameter orientation.  The fourth
patch completion uses the canonical corner arrangement of
``continuity.CornerConfig`` (patch 1 lower-left, 2 right, 4 above, 3 built
diagonally).
"""

from __future__ import annotations

from typing import NamedTuple, Sequence

import numpy as np

from .bezier import (BezierPatch, _product_matrix, _Record, _side_view, _unit, bounding_diagonal,
                     elevate_row)
from .continuity import (
    G1_TOL,
    LAMBDA_MIN,
    CornerConsistencyError,
    DegenerateLinkError,
    EdgeCorrespondence,
    PreconditionError,
    _SOLVE_TS,
    _LinkBatch,
    _name,
)

__all__ = [
    "LinkCoefficients",
    "TwistCheck",
    "HoleFillParams",
    "NinePatchRing",
    "g1_band_offsets",
    "complete_fourth_patch",
    "fourth_patch_twist_check",
    "solve_hole_params",
    "hole_constraint_residuals",
    "fill_hole",
    "fill_hole_deg6",
    "hole_twist_checks",
    "default_interior",
    "build_fillet",
]

# sample-based shape tolerances for validating neighbour joins
_CONST_TOL = 1e-7
_ASSERT_TOL = 1e-9


class LinkCoefficients(_Record, eq=True):
    """Quadratic lambda / cubic kappa link polynomials by Bernstein ordinates."""

    __slots__ = ("lambda0", "alpha", "lambda1", "kappa0", "beta1", "beta2", "kappa1")
    _defaults = dict.fromkeys(("kappa0", "beta1", "beta2", "kappa1"), 0.0)

    @property
    def lambda_ordinates(self) -> np.ndarray:
        return np.array([self.lambda0, self.alpha, self.lambda1])

    @property
    def kappa_ordinates(self) -> np.ndarray:
        return np.array([self.kappa0, self.beta1, self.beta2, self.kappa1])


class TwistCheck(_Record, eq=True):
    """The twist of a constructed corner computed along its two routes."""

    __slots__ = ("q23", "q43")

    @property
    def difference(self) -> float:
        return float(np.linalg.norm(np.asarray(self.q23) - np.asarray(self.q43)))


def g1_band_offsets(boundary, inner, lam_ordinates, kap_ordinates) -> np.ndarray:
    """Transverse-row offsets m*(row1 - row0) for a G1 join to a known patch.

    ``boundary`` and ``inner`` are the neighbour's control rows on and one
    inward from the shared edge.  ``lam_ordinates`` (degree L) and
    ``kap_ordinates`` (degree L+1) are the Bernstein ordinates of the link
    polynomials.  The result has degree n+L where n is the boundary degree,
    and equals n*(lambda * d + kappa * e) expanded in the Bernstein basis,
    with d the transverse and e the along-edge difference rows.
    """
    bnd = np.asarray(boundary, dtype=float)
    inr = np.asarray(inner, dtype=float)
    if bnd.shape != inr.shape or bnd.ndim != 2:
        raise ValueError("boundary and inner rows must have identical shapes")
    lam = np.asarray(lam_ordinates, dtype=float)
    kap = np.asarray(kap_ordinates, dtype=float)
    if kap.size != lam.size + 1:
        raise ValueError("kappa must have Bernstein degree one above lambda")
    n = bnd.shape[0] - 1
    d = bnd - inr  # degree-n coefficients of cross-derivative / n
    e = bnd[1:] - bnd[:-1]  # degree-(n-1) coefficients of edge derivative / n
    return n * (_product_matrix(n, lam) @ d + _product_matrix(n - 1, kap) @ e)


# ---------------------------------------------------------------------------
# shared helpers

def _require_bicubic(name: str, p: BezierPatch) -> None:
    if (p.degree_u, p.degree_v) != (3, 3):
        raise PreconditionError(f"{name} must be bi-cubic, got ({p.degree_u}, {p.degree_v})")


def _join_constants(joins, *, allow_linear_kappa=False):
    """(lambda, kappa0) of each join of a list expected to have constant lambda.

    ``joins`` holds (a, b, corr) triples, solved in one batch and tested on
    its arrays.  ``kappa0`` is the kappa value at edge parameter 0 when the
    join carries the linear, vertex-vanishing kappa shape; zero otherwise.
    Joins are taken in order: the first that is not G1 or whose link has the
    wrong shape raises its error, after the negative-lambda warnings before it.
    """
    if not joins:
        return []
    batch = _LinkBatch(joins, 1)
    oop = batch.oop.max(axis=-1)
    lam = batch.lam.mean(axis=-1)
    lam_varies = (np.abs(batch.lam - lam[:, None]).max(axis=-1)
                  > _CONST_TOL * np.maximum(1.0, abs(lam)))
    kap0 = np.where(abs(batch.kap[:, 0]) < _CONST_TOL, 0.0, batch.kap[:, 0])
    expected = kap0[:, None] * (1.0 - _SOLVE_TS) if allow_linear_kappa else 0.0
    kap_bent = (np.abs(batch.kap - expected).max(axis=-1)
                > _CONST_TOL * np.maximum(1.0, abs(kap0)))
    constants = []
    for e, (*_, corr) in enumerate(joins):
        batch.admit(e)
        if oop[e] > G1_TOL:
            raise PreconditionError(f"join {_name(corr)} is not G1 (residual {oop[e]:.3e})")
        if lam_varies[e]:
            raise PreconditionError(f"join {_name(corr)} has non-constant lambda")
        if kap_bent[e]:
            shape = "kappa0*(1-t)" if allow_linear_kappa else "zero"
            raise PreconditionError(f"join {_name(corr)}: kappa is not {shape}")
        if abs(lam[e]) < LAMBDA_MIN:
            raise DegenerateLinkError(f"lambda vanishes on join {corr.a} ~ {corr.b}")
        constants.append((float(lam[e]), float(kap0[e]) if allow_linear_kappa else 0.0))
    return constants


class _Side(NamedTuple):
    """A G1 join of a new patch to ``patch`` across the neighbour's ``side``.

    The new patch takes the neighbour's orientation, so the join lies on the
    new patch's opposite side.  ``lam`` and ``kap`` are the Bernstein
    ordinates of the join's link polynomials.
    """

    patch: BezierPatch
    side: str
    lam: Sequence[float]
    kap: Sequence[float]

    def rows(self, m: int):
        """The new patch's boundary row and band row (the next one in) at degree m."""
        view = _side_view(self.patch.net, self.side)
        row0 = elevate_row(view[0], m)
        return row0, row0 + g1_band_offsets(view[0], view[1], self.lam, self.kap) / m

    def points(self, m: int, offset: int) -> np.ndarray:
        """Flat net indices (m+1)*i + j of the new patch's row ``offset`` rows in from the join."""
        indices = np.arange((m + 1) ** 2).reshape(m + 1, m + 1)
        return _side_view(indices, self.side)[m - offset]  # the join is m rows in from self.side


def _assemble(m: int, scale: float, sides) -> np.ndarray:
    """A fresh (m+1)x(m+1) net holding every side's boundary row, then every band.

    Rows are written in the order the sides are listed, in one scatter; points
    no side writes stay NaN, and a write with NaN in x counts as no write.  A
    point written twice must agree within ``_ASSERT_TOL * scale`` and is never
    averaged: the first later write that disagrees, in write order, is raised.
    """
    if not sides:
        return np.full((m + 1, m + 1, 3), np.nan)
    rows = [side.rows(m) for side in sides]
    index = np.concatenate([side.points(m, offset) for offset in (0, 1) for side in sides])
    values = np.concatenate([row[offset] for offset in (0, 1) for row in rows])
    n, writes = len(index), np.arange(len(index))
    # the lowest rank takes a point: its first write with x a number, else its last write
    rank = np.where(np.isnan(values[:, 0]), 2 * n - writes, writes)
    taken = np.full((m + 1) ** 2, 2 * n + 1)
    np.minimum.at(taken, index, rank)
    net = np.full(((m + 1) ** 2, 3), np.nan)
    written = taken <= 2 * n
    net[written] = values[np.where(taken < n, taken, 2 * n - taken)[written]]
    later = np.flatnonzero(writes > taken[index])
    # divided by a power of two near the scale, so that squares neither overflow nor underflow
    unit = _unit(scale)
    diff = (values[later] - net[index[later]]) / unit
    gaps = np.sqrt(diff[:, None] @ diff[:, :, None])[:, 0, 0] * unit  # the bits of np.linalg.norm
    failing = np.flatnonzero(gaps > _ASSERT_TOL * scale)
    if failing.size:
        k, gap = later[failing[0]], float(gaps[failing[0]])
        row = k // (m + 1)
        raise CornerConsistencyError(
            f"control point ({index[k] // (m + 1)},{index[k] % (m + 1)}) doubly determined with "
            f"gap {gap / scale:.3e} ({('boundary', 'band')[row // len(sides)]} across "
            f"{sides[row % len(sides)].side})"
        )
    return net.reshape(m + 1, m + 1, 3)


def _twists(m: int, sides) -> dict:
    """Twists at the corners two sides share, by net corner (i, j).

    A side's twist at one end is m*m times the mixed difference of its
    boundary and band rows there, taken inward from the corner.  ``q23``
    comes from the side along u (a join across a v-side), ``q43`` from the
    side along v.
    """
    found = {}
    for side in sides:
        row0, row1 = side.rows(m)
        ends = side.points(m, 0)
        for e, k in ((0, 1), (m, m - 1)):
            twist = m * m * (row1[k] - row0[k] - row1[e] + row0[e])
            found.setdefault(divmod(int(ends[e]), m + 1), {})[side.side[0]] = twist
    return {corner: TwistCheck(t["v"], t["u"]) for corner, t in found.items()
            if len(t) == 2}


def _finish(net, rule) -> BezierPatch:
    """Set the free interior of an assembled net by ``rule``."""
    m = net.shape[0] - 1
    net = rule(net)
    if np.any(np.isnan(net)):
        raise CornerConsistencyError("interior rule left control points undefined")
    return BezierPatch(m, m, net)


# ---------------------------------------------------------------------------
# fourth patch completion

def complete_fourth_patch(
    r1: BezierPatch,
    r2: BezierPatch,
    r4: BezierPatch,
    *,
    alpha23: float | None = None,
    alpha43: float | None = None,
    lambda23_1: float | None = None,
    lambda43_1: float | None = None,
    kappa23_1: float = 0.0,
    kappa43_1: float = 0.0,
    beta2_23: float = 0.0,
    beta2_43: float = 0.0,
    degree: int = 5,
) -> BezierPatch:
    """Construct the diagonal patch closing a G1 corner of three bi-cubics.

    ``r1`` sits lower-left, ``r2`` to its right, ``r4`` above; the result
    joins ``r2`` along its v=1 edge and ``r4`` along its u=1 edge with
    tangent-plane continuity.  The corner joins must have constant lambda
    and either zero kappa or the vertex-vanishing linear kappa shape.  Free
    coefficients default so that a corner cut from one smooth surface is
    extended seamlessly.  ``degree=4`` selects the less flexible bi-degree
    (4,4) construction (linear lambda, quadratic kappa), which requires
    zero-kappa corner joins and computes each inner kappa ordinate from the
    far lambda.  The corner control point both joins determine is asserted;
    the interior points close parallelograms on the two bands.
    """
    for name, p in (("r1", r1), ("r2", r2), ("r4", r4)):
        _require_bicubic(name, p)
    if degree not in (4, 5):
        raise ValueError("fourth-patch degree must be 4 or 5")
    (lam12, kap12_0), (lam14, kap14_0) = _join_constants([
        (r1, r2, EdgeCorrespondence("u1", "u0", False, "r1", "r2")),
        (r1, r4, EdgeCorrespondence("v1", "v0", False, "r1", "r4")),
    ], allow_linear_kappa=True)
    scale = bounding_diagonal(r1, r2, r4)

    if alpha23 is None:
        alpha23 = lam14
    if alpha43 is None:
        alpha43 = lam12
    if lambda23_1 is None:
        lambda23_1 = lam14
    if lambda43_1 is None:
        lambda43_1 = lam12

    if degree == 5:
        # uniqueness of the corner control point pins the inner kappa ordinates
        beta1_23 = (2.0 * alpha43 - 2.0 * lam12 - lam12 * kap14_0) / (3.0 * lam12)
        beta1_43 = (2.0 * alpha23 - 2.0 * lam14 - lam14 * kap12_0) / (3.0 * lam14)
        lam_o23, kap_o23 = [lam14, alpha23, lambda23_1], [0.0, beta1_23, beta2_23, kappa23_1]
        lam_o43, kap_o43 = [lam12, alpha43, lambda43_1], [0.0, beta1_43, beta2_43, kappa43_1]
    else:
        if kap12_0 != 0.0 or kap14_0 != 0.0:
            raise PreconditionError(
                "bi-degree (4,4) completion requires zero-kappa corner joins"
            )
        b23 = (lambda43_1 - lam12) / (2.0 * lam12)
        b43 = (lambda23_1 - lam14) / (2.0 * lam14)
        lam_o23, kap_o23 = [lam14, lambda23_1], [0.0, b23, kappa23_1]
        lam_o43, kap_o43 = [lam12, lambda43_1], [0.0, b43, kappa43_1]

    sides = [_Side(r4, "u1", lam_o43, kap_o43), _Side(r2, "v1", lam_o23, kap_o23)]
    try:
        net = _assemble(degree, scale, sides)
    except CornerConsistencyError as exc:
        raise CornerConsistencyError(
            f"corner control point disagrees between the two construction routes: {exc}"
        ) from None
    return _finish(net, _continue_bands)


def _continue_bands(net):
    """Fourth-patch interior: each point closes a parallelogram on the two bands."""
    net[2:, 2:] = net[2:, 1:2] + net[1:2, 2:] - net[1, 1]
    return net


def fourth_patch_twist_check(
    r2: BezierPatch,
    r4: BezierPatch,
    coeffs23: LinkCoefficients,
    coeffs43: LinkCoefficients,
) -> TwistCheck:
    """Corner twist of the quintic fourth patch computed along both construction routes.

    ``q23`` is 25 times the mixed difference of the boundary and band rows
    built from ``r2`` and the (2,3)-link, ``q43`` the same from ``r4`` and
    the (4,3)-link.  The two agree exactly when the coefficient constraints of
    ``complete_fourth_patch`` hold; violating them by delta grows the
    difference linearly in delta.
    """
    _require_bicubic("r2", r2)
    _require_bicubic("r4", r4)
    sides = [_Side(r4, "u1", coeffs43.lambda_ordinates, coeffs43.kappa_ordinates),
             _Side(r2, "v1", coeffs23.lambda_ordinates, coeffs23.kappa_ordinates)]
    return _twists(5, sides)[0, 0]


# ---------------------------------------------------------------------------
# nine-patch ring and hole filling

_RING_POSITIONS = (1, 2, 3, 4, 6, 7, 8, 9)

# directed ring joins: key -> (a, a_side, b, b_side); the stored lambda
# expresses b's cross-boundary derivative in a's frame
_RING_JOINS = {
    "12": (1, "v1", 2, "v0"),
    "14": (1, "u1", 4, "u0"),
    "32": (3, "v0", 2, "v1"),
    "36": (3, "u1", 6, "u0"),
    "74": (7, "u0", 4, "u1"),
    "78": (7, "v1", 8, "v0"),
    "96": (9, "u0", 6, "u1"),
    "98": (9, "v0", 8, "v1"),
}


class NinePatchRing(_Record):
    """Eight bi-cubic patches around a missing centre patch.

    Position p = 1 + 3*column + row of a 3x3 grid with the hole at 5.  All
    ring-internal joins must be G1 with constant lambda and zero kappa;
    ``from_patches`` verifies this and records the eight directed edge
    constants.  ``build_fillet`` also builds open-top rings, with patches 2,
    4 and 8 only; a fill joins the patches its ring has.
    """

    __slots__ = ("patches", "lambdas", "scale")

    @classmethod
    def from_patches(cls, patches: dict) -> "NinePatchRing":
        if set(patches) != set(_RING_POSITIONS):
            raise PreconditionError(
                f"ring needs patches at positions {_RING_POSITIONS}, got {sorted(patches)}"
            )
        for pos, p in patches.items():
            _require_bicubic(f"ring patch {pos}", p)
        constants = _join_constants([
            (patches[an], patches[bn], EdgeCorrespondence(a_side, b_side, False, str(an), str(bn)))
            for an, a_side, bn, b_side in _RING_JOINS.values()
        ])
        lambdas = {key: lam for key, (lam, _) in zip(_RING_JOINS, constants)}
        scale = bounding_diagonal(*patches.values())
        return cls(dict(patches), lambdas, scale)


class HoleFillParams(_Record, eq=True):
    """Resolved free coefficients of a hole fill.

    ``alpha``/``beta1``/``beta2`` are keyed by the interior-edge neighbour
    position (2: left, 4: bottom, 6: top, 8: right).  ``mode`` selects the
    (5,5) construction with quadratic lambdas or the (6,6) one with cubic
    lambdas, whose inner ordinates ``alpha1``/``alpha2`` are fully pinned.
    """

    __slots__ = ("mode", "alpha", "beta1", "beta2", "alpha1", "alpha2")  # mode: "deg5" | "deg6"
    _defaults = dict.fromkeys(("beta1", "beta2", "alpha1", "alpha2"), dict)


def _pinned_endpoints(ring: NinePatchRing) -> dict:
    """Endpoint values of the four hole-edge lambda functions, by neighbour."""
    lam = ring.lambdas
    return {
        4: (lam["12"], lam["78"]),  # bottom edge, parameters 0 -> 1 along u
        2: (lam["14"], lam["36"]),  # left edge, along v
        6: (lam["32"], lam["98"]),  # top edge, along u
        8: (lam["74"], lam["96"]),  # right edge, along v
    }


def _require_ring_lambdas(ring: NinePatchRing) -> None:
    """Raise DegenerateLinkError naming the first ring lambda that vanishes."""
    for key, value in ring.lambdas.items():
        if abs(value) < LAMBDA_MIN:
            raise DegenerateLinkError(f"ring lambda ({key}) is degenerate")


def solve_hole_params(ring: NinePatchRing, free_choices=None) -> HoleFillParams:
    """Resolve the eight coefficient constraints of the (5,5) hole fill.

    The four alphas (one per interior edge, order: bottom 4, left 2, top 6,
    right 8) are free; each defaults to the mean of its pinned endpoint
    lambdas.  The eight beta ordinates then follow by exact back
    substitution, one equation each.
    """
    _require_ring_lambdas(ring)
    lam = ring.lambdas
    ends = _pinned_endpoints(ring)
    if free_choices is None:
        alpha = {i: 0.5 * (ends[i][0] + ends[i][1]) for i in (4, 2, 6, 8)}
    else:
        a45, a25, a65, a85 = (float(x) for x in free_choices)
        alpha = {4: a45, 2: a25, 6: a65, 8: a85}
    # The beta2 equations carry a minus sign relative to the beta1 ones: the
    # inner kappa ordinate near the far end of an edge lives in that corner's
    # frame, whose edge parameter runs against the edge's own direction.
    beta1 = {
        4: 2.0 * (alpha[2] - lam["14"]) / (3.0 * lam["14"]),
        2: 2.0 * (alpha[4] - lam["12"]) / (3.0 * lam["12"]),
        6: 2.0 * (alpha[2] - lam["36"]) / (3.0 * lam["36"]),
        8: 2.0 * (alpha[4] - lam["78"]) / (3.0 * lam["78"]),
    }
    beta2 = {
        4: -2.0 * (alpha[8] - lam["74"]) / (3.0 * lam["74"]),
        2: -2.0 * (alpha[6] - lam["32"]) / (3.0 * lam["32"]),
        6: -2.0 * (alpha[8] - lam["96"]) / (3.0 * lam["96"]),
        8: -2.0 * (alpha[6] - lam["98"]) / (3.0 * lam["98"]),
    }
    return HoleFillParams("deg5", alpha, beta1, beta2, {}, {})


def hole_constraint_residuals(ring: NinePatchRing, params: HoleFillParams) -> np.ndarray:
    """Residuals of the eight coefficient constraints; zero for a valid solve."""
    lam = ring.lambdas
    a, b1, b2 = params.alpha, params.beta1, params.beta2
    return np.abs(np.array([
        3.0 * lam["14"] * b1[4] - 2.0 * (a[2] - lam["14"]),
        3.0 * lam["12"] * b1[2] - 2.0 * (a[4] - lam["12"]),
        3.0 * lam["96"] * b2[6] + 2.0 * (a[8] - lam["96"]),
        3.0 * lam["98"] * b2[8] + 2.0 * (a[6] - lam["98"]),
        3.0 * lam["74"] * b2[4] + 2.0 * (a[8] - lam["74"]),
        3.0 * lam["78"] * b1[8] - 2.0 * (a[4] - lam["78"]),
        3.0 * lam["36"] * b1[6] - 2.0 * (a[2] - lam["36"]),
        3.0 * lam["32"] * b2[2] + 2.0 * (a[6] - lam["32"]),
    ]))


def _hole_sides(ring: NinePatchRing, params: HoleFillParams):
    """The fill's degree and its joins: left, right, bottom, top, where the ring has them."""
    ends = _pinned_endpoints(ring)
    m = {"deg5": 5, "deg6": 6}[params.mode]
    sides = []
    for pos, side in ((2, "u1"), (8, "u0"), (4, "v1"), (6, "v0")):
        if pos not in ring.patches:
            continue
        lo, hi = ends[pos]
        if m == 5:
            lam = [lo, params.alpha[pos], hi]
            kap = [0.0, params.beta1[pos], params.beta2[pos], 0.0]
        else:
            lam = [lo, params.alpha1[pos], params.alpha2[pos], hi]
            kap = [0.0] * 5
        sides.append(_Side(ring.patches[pos], side, lam, kap))
    return m, sides


def default_interior(net, degree: int) -> np.ndarray:
    """Return a copy of a hole-fill net with its free interior points set.

    For degree 5 the four interior points follow the parallelogram rule
    from the adjacent band points.  For degree 6 the 3x3 interior block is
    built corner-first: each corner closes a parallelogram on its band
    points, each mid-edge point moves the band point beside it by the mean
    of its two corners' offsets from the band, and the centre is their
    prescribed combination.  Each point is written once and nothing is
    asserted here; the doubly-determined border points are asserted when
    the net is assembled.
    """
    q = np.array(net, dtype=float)
    if degree == 5:
        q[2, 2] = q[2, 1] + q[1, 2] - q[1, 1]
        q[3, 2] = q[3, 1] + q[4, 2] - q[4, 1]
        q[2, 3] = q[2, 4] + q[1, 3] - q[1, 4]
        q[3, 3] = q[3, 4] + q[4, 3] - q[4, 4]
        return q
    if degree != 6:
        raise ValueError("interior rule is defined for degrees 5 and 6")
    q[2, 2] = q[2, 1] + q[1, 2] - q[1, 1]
    q[4, 2] = q[4, 1] + q[5, 2] - q[5, 1]
    q[2, 4] = q[2, 5] + q[1, 4] - q[1, 5]
    q[4, 4] = q[4, 5] + q[5, 4] - q[5, 5]
    q[2, 3] = q[1, 3] + 0.5 * (q[2, 2] + q[2, 4]) - 0.5 * (q[1, 2] + q[1, 4])
    q[3, 2] = q[3, 1] + 0.5 * (q[2, 2] + q[4, 2]) - 0.5 * (q[2, 1] + q[4, 1])
    q[3, 4] = q[3, 5] + 0.5 * (q[2, 4] + q[4, 4]) - 0.5 * (q[2, 5] + q[4, 5])
    q[4, 3] = q[5, 3] + 0.5 * (q[4, 2] + q[4, 4]) - 0.5 * (q[5, 2] + q[5, 4])
    q[3, 3] = 0.5 * (q[2, 3] + q[4, 3] + q[3, 2] + q[3, 4]) - 0.25 * (
        q[2, 2] + q[4, 2] + q[2, 4] + q[4, 4]
    )
    return q


def fill_hole(ring: NinePatchRing, params: HoleFillParams | None = None,
              interior_rule=None) -> BezierPatch:
    """Fill the centre of a nine-patch ring with a bi-degree (5,5) patch.

    The hole edges carry quadratic lambda / cubic kappa link functions whose
    endpoint ordinates are pinned by the ring's edge constants and whose
    inner ordinates come from ``params`` (``solve_hole_params`` defaults).
    The result joins all four ring neighbours with tangent-plane
    continuity; doubly-determined border points are asserted consistent.
    """
    if params is None:
        params = solve_hole_params(ring)
    if params.mode != "deg5":
        raise ValueError("params were resolved for a different construction mode")
    m, sides = _hole_sides(ring, params)
    return _finish(_assemble(m, ring.scale, sides),
                   interior_rule or (lambda net: default_interior(net, m)))


def fill_hole_deg6(ring: NinePatchRing) -> BezierPatch:
    """Fill the ring with a bi-degree (6,6) patch using cubic lambdas, zero kappa.

    The inner lambda ordinates are fully pinned by the ring constants, so
    there are no free coefficients.
    """
    ends = _pinned_endpoints(ring)
    _require_ring_lambdas(ring)
    alpha1 = {i: ends[i][0] for i in (2, 4, 6, 8)}
    alpha2 = {i: ends[i][1] for i in (2, 4, 6, 8)}
    params = HoleFillParams("deg6", {}, {}, {}, alpha1, alpha2)
    m, sides = _hole_sides(ring, params)
    return _finish(_assemble(m, ring.scale, sides), lambda net: default_interior(net, m))


def hole_twist_checks(ring: NinePatchRing, params: HoleFillParams | None = None) -> dict:
    """Twist consistency at the four hole corners, by corner name.

    Each entry compares the twist at a corner as determined by its two
    adjacent edges, scaled by m*m for the fill's degree m (25 for the (5,5)
    fill, 36 for (6,6)), as in the fourth-patch twist convention.
    """
    if params is None:
        params = solve_hole_params(ring)
    m, sides = _hole_sides(ring, params)
    twists = _twists(m, sides)
    corners = {"bottom-left": (0, 0), "bottom-right": (m, 0),
               "top-left": (0, m), "top-right": (m, m)}
    return {name: twists[corner] for name, corner in corners.items()}


# ---------------------------------------------------------------------------
# fillet surfaces

def _bridge_patch(left: BezierPatch, right: BezierPatch, lam_a: float, lam_b: float):
    """Bi-cubic patch joining left's u=1 edge to right's u=0 edge, G1 both ways."""
    net = np.empty((4, 4, 3))
    net[0] = left.net[3]
    net[3] = right.net[0]
    net[1] = net[0] + lam_a * (left.net[3] - left.net[2])
    net[2] = net[3] - (right.net[1] - right.net[0]) / lam_b
    return BezierPatch(3, 3, net)


def _continue_side_bands(net):
    """Open-top interior: columns 2 and 3 continue the left and right bands."""
    net[2, 2:] = net[1, 2:] + net[2, 1] - net[1, 1]
    net[3, 2:] = net[4, 2:] + net[3, 1] - net[4, 1]
    return net


def build_fillet(strip_a, strip_b, n_rows=None, *, bridge_lambdas=(1.0, 1.0)):
    """Bridge two G1 strips of bi-cubic patches with a smooth middle column.

    ``strip_a`` and ``strip_b`` each hold N patches stacked in v (internally
    G1 with constant lambda and zero kappa); ``n_rows`` defaults to the full
    strip length.  Even rows of the middle column get bi-cubic bridge
    patches joining both strips; odd rows are the (5,5) hole fills of the
    surrounding rings.  The strip joins are solved once, in one batch, and
    each ring is built from their constants and the bridge lambdas, which
    the bridges make exact.  The last row of an even fillet fills an
    open-top ring (left, bottom and right neighbours only), whose free top
    rows continue the side bands.  Returns the middle-column patches in row
    order.
    """
    strip_a = list(strip_a)
    strip_b = list(strip_b)
    if n_rows is None:
        n_rows = len(strip_a)
    if n_rows < 1 or len(strip_a) < n_rows or len(strip_b) < n_rows:
        raise PreconditionError(
            f"both strips need at least {max(n_rows, 1)} patches "
            f"(got {len(strip_a)}, {len(strip_b)})"
        )
    strip_a = strip_a[:n_rows]
    strip_b = strip_b[:n_rows]
    joins = []
    for label, strip in (("strip_a", strip_a), ("strip_b", strip_b)):
        for n, p in enumerate(strip):
            _require_bicubic(f"{label}[{n}]", p)
        joins += [(strip[n], strip[n + 1],
                   EdgeCorrespondence("v1", "v0", False, f"{label}[{n}]", f"{label}[{n + 1}]"))
                  for n in range(n_rows - 1)]
    lam_internal = [lam for lam, _ in _join_constants(joins)]
    lam_a, lam_b = lam_internal[:n_rows - 1], lam_internal[n_rows - 1:]
    lam_left, lam_right = bridge_lambdas
    if not all(np.isfinite(lam) and abs(lam) >= LAMBDA_MIN for lam in bridge_lambdas):
        raise DegenerateLinkError("bridge lambdas must be finite and non-zero")
    if abs(1.0 / lam_right) < LAMBDA_MIN:  # strip b joins the bridges by 1/lam_right
        raise DegenerateLinkError(
            f"right bridge lambda ({lam_right:g}) is degenerate: 1/lambda is below {LAMBDA_MIN:g}"
        )

    middle = [None] * n_rows
    for r in range(0, n_rows, 2):
        middle[r] = _bridge_patch(strip_a[r], strip_b[r], lam_left, lam_right)
    for r in range(1, n_rows, 2):
        closed = r + 1 < n_rows
        patches = {2: strip_a[r], 4: middle[r - 1], 8: strip_b[r]}
        # the joins to the bridges are exact: lam_left, and 1/lam_right read from
        # strip b; an open top keeps the bottom's vertical lambdas, and its equal
        # top lambdas bend no band toward it
        lambdas = {"12": lam_a[r - 1], "78": lam_b[r - 1], "14": lam_left, "36": lam_left,
                   "74": 1.0 / lam_right, "96": 1.0 / lam_right, "32": 1.0, "98": 1.0}
        if closed:
            patches.update({1: strip_a[r - 1], 3: strip_a[r + 1], 6: middle[r + 1],
                            7: strip_b[r - 1], 9: strip_b[r + 1]})
            lambdas.update({"32": 1.0 / lam_a[r], "98": 1.0 / lam_b[r]})
        ring = NinePatchRing(patches, lambdas, bounding_diagonal(*patches.values()))
        middle[r] = fill_hole(ring, interior_rule=None if closed else _continue_side_bands)
    return middle
