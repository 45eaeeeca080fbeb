"""Constructive algorithms: G1 band rows, fourth-patch completion,
hole filling at bi-degree (5,5) and (6,6), and fillet surfaces.

All constructions consume bi-cubic neighbours whose shared edges carry
polynomial link functions, and all build their nets one way.  Each G1 join
of the new patch is a side spec, ``_Side``: the neighbour, its side, and the
Bernstein ordinates of the join's lambda and kappa.  The join's boundary row
is the neighbour's boundary row elevated to the new degree m; its band row
adds ``g1_band_offsets / m``, the Bernstein product of the link polynomials
with the neighbour's difference rows.  ``_assemble`` writes every boundary
row, then every band.  A construction leaves free (None) the ordinates that
the vertex compatibility conditions pin: those are the solvability
conditions of the control points two joins both write, and every band row
is affine in its ordinates, so one least-squares solve (``_pin_free``) sets
them all.  Every doubly-determined point is then asserted, never averaged.

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

import functools
from typing import NamedTuple, Sequence

import numpy as np

from .bezier import (BezierPatch, _Record, _side_view, _unit, _unit_products, bounding_diagonal,
                     elevation_matrix)
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
    "NinePatchRing",
    "g1_band_offsets",
    "complete_fourth_patch",
    "fill_hole",
    "fill_hole_deg6",
    "default_interior",
    "build_fillet",
]

# sample-based shape tolerances for validating neighbour joins
_CONST_TOL = 1e-7
_ASSERT_TOL = 1e-9


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
    terms = _band_terms(bnd, inr, lam.size - 1)
    return (np.concatenate((lam, kap)) @ terms.reshape(len(terms), -1)).reshape(-1, 3)


def _band_terms(boundary, inner, big_l: int) -> np.ndarray:
    """``g1_band_offsets`` per unit of each lambda ordinate (degree L), then each kappa one.

    A Bernstein product is linear in the ordinates, so the offsets of any
    ordinates are their combination of these terms.  Rows may be stacked:
    the terms of rows (..., n+1, 3) are (..., 2L+3, n+L+1, 3).
    """
    n = boundary.shape[-2] - 1
    d = (boundary - inner)[..., None, :, :]  # degree-n coefficients of cross-derivative / n
    e = np.diff(boundary, axis=-2)[..., None, :, :]  # degree n-1, of the edge derivative / n
    return n * np.concatenate((_unit_products(n, big_l) @ d,
                               _unit_products(n - 1, big_l + 1) @ e), axis=-3)


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
    ordinates of the join's link polynomials; an ordinate that is None is
    free, for ``_assemble`` to pin.
    """

    patch: BezierPatch
    side: str
    lam: Sequence[float | None]
    kap: Sequence[float | None]


def _points(m: int, side: str, offset: int) -> np.ndarray:
    """Flat net indices (m+1)*i + j of the row ``offset`` rows in from a join across ``side``."""
    indices = np.arange((m + 1) ** 2).reshape(m + 1, m + 1)
    return _side_view(indices, side)[m - offset]  # the join is m rows in from the side


def _rows(m: int, sides):
    """Every side's boundary row and band row (the next one in) at degree m, and its terms.

    Free ordinates count as zero; the terms are each band's change per unit
    of each ordinate, lambda's first.  The sides' neighbours share a degree,
    and their links too.
    """
    views = np.stack([_side_view(side.patch.net, side.side)[:2] for side in sides])
    row0 = elevation_matrix(views.shape[2] - 1, m) @ views[:, 0]
    terms = _band_terms(views[:, 0], views[:, 1], len(sides[0].lam) - 1) / m
    ordinates = np.array([[0.0 if o is None else o for o in (*side.lam, *side.kap)]
                          for side in sides])
    band = row0 + (ordinates[:, None] @ terms.reshape(*ordinates.shape, -1)).reshape(row0.shape)
    return row0, band, terms


@functools.lru_cache(maxsize=32)
def _write_order(m: int, names: tuple):
    """Where the sides named write (every boundary row, then every band), read-only.

    The flat net index of each write, the points written and the first write
    of each, and the writes to a point written before with its first write.
    """
    index = np.concatenate([_points(m, name, offset) for offset in (0, 1) for name in names])
    writes = np.arange(len(index))
    first = np.full((m + 1) ** 2, len(index))
    np.minimum.at(first, index, writes)
    points = np.flatnonzero(first < len(index))
    later = np.flatnonzero(writes > first[index])
    order = index, points, first[points], later, first[index[later]]
    for array in order:
        array.flags.writeable = False
    return order


def _pin_free(m: int, unit: float, sides):
    """The free ordinates, in side order, that make each point written twice agree, and the
    writes that they give.

    Every band row is affine in its ordinates, so the gaps of the doubly
    written points are one linear system in the free ordinates, whose matrix
    is their terms read where two writes meet.  It is divided by ``unit`` and
    solved in the least-squares sense; the caller's assertion then judges the
    writes.  An ordinate is free only where such a point constrains it, so a
    rank below the number of free ordinates is an error.  A system that is
    not finite is left unsolved, for the assertion to name what is not finite.
    """
    *_, later, earlier = _write_order(m, tuple(side.side for side in sides))
    row0, band, terms = _rows(m, sides)
    values = np.concatenate((row0, band)).reshape(-1, 3)
    s, k = np.nonzero([[o is None for o in (*side.lam, *side.kap)] for side in sides])
    free = len(s)
    if not free:
        return np.zeros(0), values
    # each write's change per unit of each free ordinate (boundary rows do not move), then
    # the write negated: the system and its right-hand side, differenced in one pass
    writes = np.zeros((2, len(sides), m + 1, 3, free + 1))
    writes[1, s, ..., np.arange(free)] = terms[s, k]
    writes[..., free] = -values.reshape(writes.shape[:-1])
    writes = writes.reshape(-1, 3, free + 1)
    system = ((writes[later] - writes[earlier]) / unit).reshape(-1, free + 1)
    if not np.isfinite(system).all():
        return np.zeros(free), values
    # each column divided by a power of two near its largest entry: the rank is unit-free
    units = _unit(np.abs(system[:, :free]).max(axis=0))
    pinned, _, rank, _ = np.linalg.lstsq(system[:, :free] / units, system[:, free], rcond=None)
    if rank < free:
        raise CornerConsistencyError(f"the doubly determined control points pin {rank} "
                                     f"of {free} free link ordinates")
    pinned /= units
    return pinned, values + writes[..., :free] @ pinned


def _assemble(m: int, scale: float, sides) -> np.ndarray:
    """A fresh (m+1)x(m+1) net holding every side's boundary row, then every band.

    Free ordinates are pinned first (``_pin_free``).  Rows are written in the
    order the sides are listed, in one scatter; points no side writes stay
    NaN.  Every write must be finite, and a point written twice must agree
    within ``_ASSERT_TOL * scale``; points are never averaged.  The first
    write in write order that fails either test is raised.
    """
    if not sides:
        return np.full((m + 1, m + 1, 3), np.nan)
    # divided by a power of two near the scale, so that squares neither overflow nor underflow
    unit = _unit(scale)
    index, points, firsts, later, earlier = _write_order(m, tuple(side.side for side in sides))
    with np.errstate(over="ignore", invalid="ignore"):  # the assertion names what is not finite
        _, values = _pin_free(m, unit, sides)
        net = np.full(((m + 1) ** 2, 3), np.nan)
        net[points] = values[firsts]
        diff = (values[later] - values[earlier]) / unit
        gaps = np.zeros(len(index))
        gaps[later] = np.sqrt(diff[:, None] @ diff[:, :, None])[:, 0, 0] * unit  # norm's bits
    finite = np.isfinite(values).all(axis=1)
    failing = np.flatnonzero(~finite | (gaps > _ASSERT_TOL * scale))
    if failing.size:
        k = failing[0]
        row = k // (m + 1)
        what = f"doubly determined with gap {gaps[k] / scale:.3e}" if finite[k] else "is not finite"
        raise CornerConsistencyError(
            f"control point ({index[k] // (m + 1)},{index[k] % (m + 1)}) {what} "
            f"({('boundary', 'band')[row // len(sides)]} across {sides[row % len(sides)].side})"
        )
    return net.reshape(m + 1, m + 1, 3)


def _finish(net, rule) -> BezierPatch:
    """Set the free interior of a net by ``rule``; a point it leaves not finite is named."""
    m = net.shape[0] - 1
    with np.errstate(over="ignore", invalid="ignore"):
        net = rule(net)
    undefined = np.argwhere(~np.isfinite(net).all(axis=-1))
    if undefined.size:
        raise CornerConsistencyError(
            "interior rule left control point ({},{}) undefined".format(*undefined[0]))
    return BezierPatch(m, m, net)


# ---------------------------------------------------------------------------
# fourth patch completion

# the corner joins the completion verifies: r1 to r2 on its right, r1 to r4 above
_CORNER_JOINS = (EdgeCorrespondence("u1", "u0", False, "r1", "r2"),
                 EdgeCorrespondence("v1", "v0", False, "r1", "r4"))


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
    zero-kappa corner joins.  In both, the inner kappa ordinate of each join
    next to the corner is solved for, so that the corner control point both
    joins determine agrees; it is asserted.  The interior points close
    parallelograms on the two bands.
    """
    for name, p in (("r1", r1), ("r2", r2), ("r4", r4)):
        _require_bicubic(name, p)
    if degree not in (4, 5):
        raise ValueError("fourth-patch degree must be 4 or 5")
    (lam12, kap12_0), (lam14, kap14_0) = _join_constants(
        [(r1, p, corr) for p, corr in zip((r2, r4), _CORNER_JOINS)], allow_linear_kappa=True)
    scale = bounding_diagonal(r1, r2, r4)

    if alpha23 is None:
        alpha23 = lam14
    if alpha43 is None:
        alpha43 = lam12
    if lambda23_1 is None:
        lambda23_1 = lam14
    if lambda43_1 is None:
        lambda43_1 = lam12

    # the inner kappa ordinates near the corner are free: the corner point pins them
    if degree == 5:
        lam_o23, kap_o23 = [lam14, alpha23, lambda23_1], [0.0, None, beta2_23, kappa23_1]
        lam_o43, kap_o43 = [lam12, alpha43, lambda43_1], [0.0, None, beta2_43, kappa43_1]
    else:
        if kap12_0 != 0.0 or kap14_0 != 0.0:
            raise PreconditionError(
                "bi-degree (4,4) completion requires zero-kappa corner joins"
            )
        lam_o23, kap_o23 = [lam14, lambda23_1], [0.0, None, kappa23_1]
        lam_o43, kap_o43 = [lam12, lambda43_1], [0.0, None, kappa43_1]

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


def _hole_sides(ring: NinePatchRing, alpha=None):
    """A fill's joins: left, right, bottom, top, where the ring has them.

    With ``alpha``, by neighbour, those of the (5,5) fill: quadratic lambdas
    and cubic kappas, whose inner ordinate at an end is free where a join
    crosses there.  Without, those of the (6,6) fill: cubic lambdas with free
    inner ordinates, and zero kappas.
    """
    _require_ring_lambdas(ring)
    ends = _pinned_endpoints(ring)
    sides = []
    for pos, side, crossing in ((2, "u1", (4, 6)), (8, "u0", (4, 6)),
                                (4, "v1", (2, 8)), (6, "v0", (2, 8))):
        if pos not in ring.patches:
            continue
        lo, hi = ends[pos]
        if alpha is None:
            lam, kap = [lo, None, None, hi], [0.0] * 5
        else:
            lam = [lo, alpha[pos], hi]
            kap = [0.0, *(None if c in ring.patches else 0.0 for c in crossing), 0.0]
        sides.append(_Side(ring.patches[pos], side, lam, kap))
    return sides


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


def fill_hole(ring: NinePatchRing, params=None, interior_rule=None) -> BezierPatch:
    """Fill the centre of a nine-patch ring with a bi-degree (5,5) patch.

    The hole edges carry quadratic lambda / cubic kappa link functions whose
    endpoint ordinates are pinned by the ring's edge constants.  ``params``
    gives the four inner lambda ordinates, the fill's free parameters, in
    the order bottom (4), left (2), top (6), right (8); each defaults to the
    mean of its edge's endpoint lambdas.  The assembler pins the inner kappa
    ordinates.  The result joins all four ring neighbours with tangent-plane
    continuity; doubly-determined border points are asserted consistent.
    """
    if params is None:
        alpha = {i: 0.5 * (lo + hi) for i, (lo, hi) in _pinned_endpoints(ring).items()}
    else:
        alpha = dict(zip((4, 2, 6, 8), map(float, params), strict=True))
    return _finish(_assemble(5, ring.scale, _hole_sides(ring, alpha)),
                   interior_rule or (lambda net: default_interior(net, 5)))


def fill_hole_deg6(ring: NinePatchRing) -> BezierPatch:
    """Fill the ring with a bi-degree (6,6) patch using cubic lambdas, zero kappa.

    The assembler pins the inner lambda ordinates, so there are no free
    coefficients.
    """
    return _finish(_assemble(6, ring.scale, _hole_sides(ring)),
                   lambda net: default_interior(net, 6))


# ---------------------------------------------------------------------------
# fillet surfaces

def _bridge_patch(left: BezierPatch, right: BezierPatch, lam_a: float, lam_b: float):
    """Bi-cubic patch joining left's u=1 edge to right's u=0 edge, G1 both ways.

    Its interior rule writes the two band rows, so ``_finish`` names a point that overflows.
    """
    def bands(net):  # net holds the two boundary rows, each twice
        net[1] = net[0] + lam_a * (net[0] - left.net[2])
        net[2] = net[3] - (right.net[1] - net[3]) / lam_b
        return net

    return _finish(np.stack([left.net[3]] * 2 + [right.net[0]] * 2), bands)


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
