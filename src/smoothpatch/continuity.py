"""G1/G2 continuity verification across shared patch edges and 4-patch vertices.

Two adjacent patches join with tangent-plane (G1) continuity along a shared
boundary exactly when the cross-boundary derivative of one patch is a
combination ``lambda * cross_a + kappa * tangent_a`` of the other patch's
edge frame.  Curvature (G2) continuity adds a second-derivative relation
with two more scalar link functions mu, nu.  Where four patches meet at a
vertex, the link values (and, for G2, their first derivatives) must satisfy
algebraic compatibility conditions; those are evaluated here as residuals.

Conventions: shared edges must be parametrically matched (the identity
reparametrization); cross-boundary directions always point from patch a
into patch b, so joins cut from one smooth surface get lambda > 0.

Evaluation is batched: ``check_edges`` checks any number of edges in one
pass and returns one ``EdgeChecks``, whose read-only arrays (link samples,
residuals and verdicts) are indexed by edge.  The one-edge checks
``check_g1_edge`` and ``check_g2_edge`` are batches of one, and their link
columns are the edge's link solve; each construction solves its joins in one
batch.  A check makes one call of ``bezier._edge_jets`` for both sides of
all its edges and both sample sets, each side once per set, read into its
patch and along the shared edge parameter, so only a's derivatives across
the edge change sign.  Each edge's frames are then divided by the power of
two next above its scale (see ``_frames``), and the scale, the net diagonal,
is taken from boxes divided by a power of two too (``bezier._diagonals``).
So the solves and oracles neither overflow nor underflow for any diagonal
between the smallest normal float and the largest float, and a document
scaled by a power of two gets the same residuals, bit for bit, while its
coordinates stay normal floats.  At ``SOLVE_SAMPLES`` (first order for G1,
second for G2) the frames serve the G0 test, the link solves, the end
slopes and the curvature oracle.  At ``VERIFY_SAMPLES`` the normal oracle
has first-order frames of its own: they share the differenced control rows
with the solve's, never a sum.  Each link solve goes through the dual basis
of a's tangent basis, one per edge and sample; the curvature oracle solves
its three directions in one call.  A side's jets are the same bits in any
batch, and the later steps agree with a batch of one within 1e-12.

A ``CornerConfig`` holds the link values at a vertex V in the canonical
arrangement, and solves nothing: each comes from one edge's link samples at
V, read in that link's own orientation, through two closed-form maps (a
link read from b to a, and a link whose parameter runs the other way).
"""

from __future__ import annotations

import warnings

import numpy as np

from .bezier import SIDES, BezierPatch, _diagonals, _edge_jets, _frozen, _Record

__all__ = [
    "G0_TOL",
    "G1_TOL",
    "NORMAL_ANGLE_TOL",
    "G2_TOL",
    "LAMBDA_MIN",
    "RANK_TOL",
    "SOLVE_SAMPLES",
    "VERIFY_SAMPLES",
    "GeometryError",
    "DegenerateParametrizationError",
    "DegenerateLinkError",
    "CornerConsistencyError",
    "PreconditionError",
    "EdgeCorrespondence",
    "EdgeChecks",
    "CornerConfig",
    "CompatReport",
    "g0_gap",
    "check_g1_edge",
    "check_g2_edge",
    "check_edges",
    "check_vertex_g1",
    "check_vertex_g2",
    "theorem1_residuals",
    "theorem2_residuals",
    "normal_curvature",
]

# Tolerances, applied after normalizing by the joint bounding-box
# diagonal of the nets involved (so they are scale-free).
G0_TOL = 1e-9
G1_TOL = 1e-8
NORMAL_ANGLE_TOL = 1e-7  # radians
G2_TOL = 1e-6
LAMBDA_MIN = 1e-8
RANK_TOL = 1e-10
SOLVE_SAMPLES = 33
VERIFY_SAMPLES = 101


_SOLVE_TS = _frozen(np.linspace(0.0, 1.0, SOLVE_SAMPLES))
_VERIFY_TS = _frozen(np.linspace(0.0, 1.0, VERIFY_SAMPLES))


class GeometryError(Exception):
    """Base class for geometric failures raised by this package."""


class DegenerateParametrizationError(GeometryError):
    """The tangent vectors of a patch are linearly dependent on an edge."""


class DegenerateLinkError(GeometryError):
    """A lambda link function vanishes (or nearly vanishes) along an edge."""


class CornerConsistencyError(GeometryError):
    """Doubly-determined control points of a construction disagree."""


class PreconditionError(GeometryError):
    """Input patches do not satisfy the precondition of a construction."""


class EdgeCorrespondence(_Record, eq=True):
    """Identification of one boundary of patch a with one boundary of patch b.

    ``reversed`` means b's edge parameter runs opposite to a's.  The two
    boundary curves must coincide pointwise under this identification;
    ``check_edges`` verifies that before solving.
    """

    __slots__ = ("a_side", "b_side", "reversed", "a", "b")
    _defaults = {"reversed": False, "a": "a", "b": "b"}

    def __post_init__(self):
        for s in (self.a_side, self.b_side):
            if s not in SIDES:
                raise ValueError(f"unknown side {s!r}")


def _dot(x, y):
    return np.einsum("...j,...j->...", x, y)


def _cross(x, y):
    """``np.cross(x, y)`` of 3-vectors on the last axis: its products and differences, its bits."""
    x, y = np.asarray(x), np.asarray(y)
    x0, x1, x2 = x[..., 0], x[..., 1], x[..., 2]
    y0, y1, y2 = y[..., 0], y[..., 1], y[..., 2]
    return np.stack([x1 * y2 - x2 * y1, x2 * y0 - x0 * y2, x0 * y1 - x1 * y0], axis=-1)


def _dual(e_w, e_t, n):
    """The dual basis (e_t x n, n x e_w)/|n|^2 of (e_w, e_t) and the unit normal, on axis -2.

    ``n`` is e_w x e_t.  The error of a solve with it grows with the basis's
    condition number, not with its square as through the Gram matrix.  Where
    n vanishes, the rows are zero.
    """
    nn = _dot(n, n)[..., None]
    nn = np.where(nn > 0.0, nn, 1.0)
    return np.stack([_cross(e_t, n) / nn, _cross(n, e_w) / nn, n / np.sqrt(nn)], axis=-2)


def _solve(dual, rhs, scale=None):
    """Coefficients (x, y), on the last axis, of the least-squares fit rhs = x*e_w + y*e_t.

    ``dual`` is the dual basis of (e_w, e_t) from ``_dual``.  The arguments
    broadcast, so one dual basis serves stacked right-hand sides.  With
    ``scale``, also returns the distance of rhs from the basis's plane, over
    ``scale``.
    """
    xy = np.stack([_dot(dual[..., 0, :], rhs), _dot(dual[..., 1, :], rhs)], axis=-1)
    # read-only, so that a check's columns can be views of the results
    xy.flags.writeable = False
    if scale is None:
        return xy
    oop = np.abs(_dot(dual[..., 2, :], rhs)) / scale
    oop.flags.writeable = False
    return xy, oop


def _name(corr: EdgeCorrespondence) -> str:
    return f"{corr.a}:{corr.a_side} ~ {corr.b}:{corr.b_side}"


def _frames(pairs, requests) -> tuple:
    """Each edge's scale and the derivatives along both sides of a batch of (a, b, corr) edges.

    The scale is the joint net diagonal of the edge's two patches.  ``w`` is
    the transversal coordinate (positive from patch a into patch b), ``t``
    the shared edge parameter.  ``requests`` holds (t, order) pairs, order 1
    or 2, and the frames are one dict per request: it maps "point", "w" and
    "t", from order 2 also "ww", "wt" and "tt", to arrays of shape (2,
    edges, samples, 3) whose first index picks patch a or b.  All sides and
    requests come from one call of the side evaluator.  Each edge's frames
    are divided by the power of two 2^e with 2^(e-1) <= scale < 2^e.  The
    division is exact, and it keeps |a_w x a_t|^2, which grows as the fourth
    power of the scale, a normal float at every scale.  The
    control rows are divided before they are differenced, so differences of
    coordinates near the largest float do not overflow.  An edge whose nets'
    diagonal exceeds the largest float, or lies below the smallest normal
    one, where 2^-e would overflow, raises ``PreconditionError``.
    """
    scale = _diagonals([(a, b) for a, b, _ in pairs])
    for (*_, c), size in zip(pairs, scale.tolist()):
        if not 2.0**-1022 <= size < np.inf:  # the smallest normal float
            bound = "more than the largest" if size == np.inf else "less than the smallest normal"
            raise PreconditionError(f"the nets of {_name(c)} span {bound} float")
    unit = np.ldexp(1.0, -np.frexp(scale)[1])
    sides = ([(a, c.a_side, False) for a, _, c in pairs]
             + [(b, c.b_side, c.reversed) for _, b, c in pairs])
    # a's rows run away from b, so its odd derivatives across the edge change sign
    into = np.array([-1.0, 1.0])[:, None, None, None]
    frames = []
    for jets in _edge_jets(sides, requests, np.concatenate([unit, unit])):
        jet = {key: value.reshape(2, len(pairs), *value.shape[1:]) for key, value in jets.items()}
        f = {"point": jet[0, 0], "w": into * jet[1, 0], "t": jet[0, 1]}
        if (2, 0) in jet:
            f.update(ww=jet[2, 0], wt=into * jet[1, 1], tt=jet[0, 2])
        frames.append(f)
    return scale, frames


def g0_gap(a: BezierPatch, b: BezierPatch, corr: EdgeCorrespondence) -> float:
    """Largest distance between the identified boundary curves, scale-normalized."""
    return float(_LinkBatch([(a, b, corr)], 1).gaps[0])


def _second_order(f: dict, lam, kap, dual, size):
    """mu, nu and the residual of R = mu a_w + nu a_t per edge and sample, and the end slopes.

    R = b_ww - lambda^2 a_ww - 2 lambda kappa a_wt - kappa^2 a_tt; ``dual``
    is the dual basis of (a_w, a_t).  Differentiating b_w = lambda a_w +
    kappa a_t along the edge gives b_wt - lambda a_wt - kappa a_tt =
    lambda' a_w + kappa' a_t, solved at the first and last sample of each
    edge into (edges, 2, 2) end slopes.
    """
    rhs = (
        f["ww"][1]
        - lam[..., None] ** 2 * f["ww"][0]
        - 2.0 * (lam * kap)[..., None] * f["wt"][0]
        - kap[..., None] ** 2 * f["tt"][0]
    )
    xy, oop = _solve(dual, rhs, size)
    ends = [0, -1]
    a_wt, b_wt, a_tt = (x[:, ends] for x in (f["wt"][0], f["wt"][1], f["tt"][0]))
    rhs = b_wt - lam[:, ends, None] * a_wt - kap[:, ends, None] * a_tt
    return xy[..., 0], xy[..., 1], oop, _solve(dual[:, ends], rhs)


class _LinkBatch:
    """Link solves of a batch of (a, b, corr) edges at ``SOLVE_SAMPLES``, up to ``order``.

    ``scale`` and ``f`` are the batch's scales and frames there from
    ``_frames``, when the caller has them from a larger evaluator call;
    ``size`` is each scale in its frames' units.  The dual basis ``dual`` of
    a's tangent basis, one per edge and sample, serves the first-order solve
    (``lam``, ``kap`` and their residual ``oop``) and, at order 2, the
    second-order one (``mu``, ``nu``, ``g2_oop`` and ``end_slopes``, None at
    order 1).  ``gaps`` holds each edge's normalized G0 gap.  ``errors[e]``
    is the GeometryError that checking edge e raises, or None: a G0 gap
    comes first, then a rank failure, then a vanishing lambda.
    """

    def __init__(self, pairs, order: int, scale=None, f=None):
        if f is None:
            scale, (f,) = _frames(pairs, [(_SOLVE_TS, order)])
        self.pairs, self.f, self.scale = pairs, f, scale
        self.size = np.frexp(scale)[0]
        size = self.size[:, None]
        (a_w, b_w), a_t = f["w"], f["t"][0]
        self.cross = _cross(a_w, a_t)  # zero where a tangent vector is zero
        flat = (np.linalg.norm(self.cross, axis=-1) < RANK_TOL * size**2).any(axis=-1)
        self.dual = _dual(a_w, a_t, self.cross)
        xy, self.oop = _solve(self.dual, b_w, size)
        self.lam, self.kap = xy[..., 0], xy[..., 1]
        self.negative = (self.lam < 0.0).any(axis=-1)
        self.mu = self.nu = self.g2_oop = self.end_slopes = None
        if order >= 2:
            self.mu, self.nu, self.g2_oop, self.end_slopes = _second_order(
                f, self.lam, self.kap, self.dual, size)
        self.gaps = np.linalg.norm(f["point"][0] - f["point"][1], axis=-1).max(axis=-1) / self.size
        vanishes = (np.abs(self.lam) < LAMBDA_MIN).any(axis=-1)
        self.errors = []
        for (*_, c), gap, is_flat, vanish in zip(pairs, self.gaps.tolist(), flat.tolist(),
                                                 vanishes.tolist()):
            err = None
            if gap > G0_TOL:
                err = PreconditionError(
                    f"boundary curves of {c.a}:{c.a_side} and {c.b}:{c.b_side} "
                    f"do not coincide (normalized gap {gap:.3e} > {G0_TOL:.1e})")
            elif is_flat:
                err = DegenerateParametrizationError(
                    f"tangent vectors linearly dependent while solving edge link {_name(c)}")
            elif vanish:
                err = DegenerateLinkError(f"lambda vanishes along edge {_name(c)}")
            self.errors.append(err)

    def admit(self, e: int) -> None:
        """Raise edge e's error, or warn if lambda is negative on it.

        The warning points at the code that called the function calling this.
        """
        if self.errors[e] is not None:
            raise self.errors[e]
        if self.negative[e]:
            warnings.warn(f"orientation-reversing join ({_name(self.pairs[e][2])}): "
                          "lambda is negative", stacklevel=3)


class EdgeChecks(_Record):
    """Checks of a batch of shared edges, as read-only arrays whose first index is the edge.

    Link columns: ``lam`` and ``kap`` hold lambda and kappa at the
    ``SOLVE_SAMPLES`` edge parameters ``ts``, and ``oop`` the out-of-plane
    residual of the first-order solve there.  At order 2, ``mu``, ``nu`` and
    their residual ``g2_oop`` have the same shape, and ``end_slopes`` holds
    (lambda', kappa') at the first and the last sample, as (edges, 2, 2);
    they are None at order 1.  Residuals are normalized by ``scale``, each
    edge's joint net diagonal.

    Verdict columns: ``link_residual`` is the largest ``oop`` (``g2_oop`` at
    order 2) and ``oracle_residual`` the largest normal angle (the
    normal-curvature gap at order 2); ``link_ok`` and ``oracle_ok`` compare
    them with their tolerances, and ``ok`` is both.  At order 2, ``ok`` also
    needs ``g1_ok``, the G1 verdict.
    """

    __slots__ = ("order", "ts", "scale", "lam", "kap", "oop", "link_residual", "oracle_residual",
                 "link_ok", "oracle_ok", "ok", "mu", "nu", "g2_oop", "end_slopes", "g1_ok")
    _defaults = dict.fromkeys(("mu", "nu", "g2_oop", "end_slopes", "g1_ok"))


def check_edges(edges, order: int = 1) -> EdgeChecks:
    """G1 (order 1) or G2 (order 2) checks of many shared edges in one batched pass.

    ``edges`` holds (a, b, corr) triples.  Row e of each column is what
    ``check_g1_edge`` or ``check_g2_edge`` gives for edge e alone.  Edges
    are taken in order: the first whose link solve fails raises its error,
    after the negative-lambda warnings of the edges before it.
    """
    pairs = list(edges)
    # one side-evaluator call; the normal oracle's frames share only the differenced rows
    scale, (solve_f, f) = _frames(pairs, [(_SOLVE_TS, order), (_VERIFY_TS, 1)])
    batch = _LinkBatch(pairs, order, scale, solve_f)
    for e in range(len(pairs)):
        batch.admit(e)
    # normal oracle: the angle between the normal *lines* of the two patches
    n = _cross(f["w"], f["t"])
    n /= np.linalg.norm(n, axis=-1)[..., None]
    # atan2 keeps precision near zero
    sin = np.linalg.norm(_cross(n[0], n[1]), axis=-1)
    oracle_residual = np.arctan2(sin, np.abs(_dot(n[0], n[1]))).max(axis=-1)
    link_residual = batch.oop.max(axis=-1)
    link_ok, oracle_ok = link_residual < G1_TOL, oracle_residual < NORMAL_ANGLE_TOL
    ok, g1_ok = link_ok & oracle_ok, None
    if order == 2:
        # curvature oracle: both patches' normal curvatures in three pairwise
        # independent directions, with a's unit normal, in units of the net
        # diagonal so that G2_TOL is scale-free
        f = batch.f
        n = batch.cross / np.linalg.norm(batch.cross, axis=-1)[..., None]
        k = normal_curvature(f["w"], f["t"], f["ww"], f["wt"], f["tt"],
                             np.stack([f["w"][0], f["t"][0], f["w"][0] + f["t"][0]])[:, None], n)
        oracle_residual = np.abs(k[:, 0] - k[:, 1]).max(axis=(0, -1)) * batch.size
        link_residual = batch.g2_oop.max(axis=-1)
        link_ok, oracle_ok = link_residual < G2_TOL, oracle_residual < G2_TOL
        ok, g1_ok = ok & link_ok & oracle_ok, ok
    checks = EdgeChecks(order, _SOLVE_TS, batch.scale, batch.lam, batch.kap, batch.oop,
                        link_residual, oracle_residual, link_ok, oracle_ok, ok,
                        batch.mu, batch.nu, batch.g2_oop, batch.end_slopes, g1_ok)
    for column in checks._values():
        if isinstance(column, np.ndarray):
            column.flags.writeable = False
    return checks


def check_g1_edge(a: BezierPatch, b: BezierPatch, corr: EdgeCorrespondence) -> EdgeChecks:
    """Tangent-plane continuity along a shared edge, tested two ways, as a batch of one.

    (i) link test: the out-of-plane residual of the link solve stays below
    ``G1_TOL``; (ii) normal oracle: the angle between the two surface
    normals (as unoriented lines) stays below ``NORMAL_ANGLE_TOL`` at the
    ``VERIFY_SAMPLES`` shared samples.  The verdict is the conjunction.
    """
    return check_edges([(a, b, corr)], 1)


def check_g2_edge(a: BezierPatch, b: BezierPatch, corr: EdgeCorrespondence) -> EdgeChecks:
    """Curvature continuity along a shared edge, tested two ways, as a batch of one.

    (i) the second-order link residual stays below ``G2_TOL``; (ii) curvature
    oracle: the normal curvatures of both patches agree within ``G2_TOL`` in
    three pairwise independent tangent directions at the shared samples
    (three directions suffice to pin the full curvature behaviour).
    """
    return check_edges([(a, b, corr)], 2)


def normal_curvature(e_w, e_t, e_ww, e_wt, e_tt, direction, normal) -> np.ndarray:
    """Normal curvature in a 3D tangent ``direction``, per sample.

    The direction is decomposed in the (e_w, e_t) basis by least squares,
    then II/I is evaluated with the supplied unit ``normal`` (one common
    normal must be used when comparing two patches).  ``direction`` may
    stack several directions on leading axes that broadcast against the
    frame: the dual basis is formed once, all directions are solved in one
    call, and the result has the broadcast shape.
    """
    xy, off = _solve(_dual(e_w, e_t, _cross(e_w, e_t)), direction, 1.0)
    x, y = xy[..., 0], xy[..., 1]
    big_l = _dot(e_ww, normal)
    big_m = _dot(e_wt, normal)
    big_n = _dot(e_tt, normal)
    first = _dot(direction, direction) - off**2  # the squared length of its projection
    second = x**2 * big_l + 2 * x * y * big_m + y**2 * big_n
    return second / first


# ---------------------------------------------------------------------------
# 4-patch vertex compatibility

# Canonical corner arrangement: patch 1 lower-left with the vertex V at its
# (u,v) = (1,1) corner, patch 2 to the right of 1, patch 4 above 1, patch 3
# diagonal with V at its (0,0) corner.  The four links are directed
# 1->2, 1->4, 2->3 and 4->3; V sits at edge parameter 1 on the first two
# and at parameter 0 on the last two.
_CORNER_EDGES = {
    "12": ("p1", "u1", "p2", "u0", 1),
    "14": ("p1", "v1", "p4", "v0", 1),
    "23": ("p2", "v1", "p3", "v0", 0),
    "43": ("p4", "u1", "p3", "u0", 0),
}
_VALUE_NAMES = ("lam", "kap", "dlam", "dkap", "mu", "nu")


def _canonical(values, swapped: bool, reversed_: bool) -> tuple:
    """(lambda, kappa[, lambda', kappa', mu, nu]) of a link at V, mapped to a canonical link.

    ``swapped``: the link runs from the canonical b to a.  Solving
    b_w = lambda a_w + kappa a_t for a_w, with w turned around, gives the
    link (1/lambda, kappa/lambda) and, through R, its mu and nu.
    ``reversed_``: the canonical parameter is 1 - t, which turns the signs
    of kappa, lambda' and nu.  The swap comes first: it keeps the link's
    parameter.
    """
    lam, kap, dlam, dkap, mu, nu = (*values, 0.0, 0.0, 0.0, 0.0)[:6]
    if swapped:
        lam2, lam3 = lam * lam, lam * lam * lam
        lam, kap, dlam, dkap, mu, nu = (
            1.0 / lam, kap / lam, -dlam / lam2, (lam * dkap - kap * dlam) / lam2,
            (mu - 2.0 * kap * dlam) / lam3,
            (kap * mu - 2.0 * kap * kap * dlam + 2.0 * lam * kap * dkap - lam * nu) / lam3,
        )
    if reversed_:
        kap, dlam, nu = -kap, -dlam, -nu
    return (lam, kap, dlam, dkap, mu, nu)[:len(values)]


class CornerConfig(_Record):
    """Link values at the common vertex V of four patches, in the canonical arrangement.

    ``values`` maps each link key ("12", "14", "23", "43") to its lambda and
    kappa at V (keys "lam", "kap") and, when built from second-order links,
    lambda', kappa', mu and nu there ("dlam", "dkap", "mu", "nu").
    """

    __slots__ = ("values",)

    @classmethod
    def from_links(cls, links: dict) -> "CornerConfig":
        """The corner whose canonical links are read from ``links``, in their own orientation.

        ``links`` maps each link key to (checks, e, t, swapped): the link is
        edge e of ``checks``, a ``check_edges`` result, V is at its edge
        parameter t (0 or 1), and ``swapped`` says that it runs from the
        canonical b to the canonical a.  Nothing is solved: the values are
        the link's samples at V and its end slopes there, mapped by
        ``_canonical``.
        """
        values = {}
        for key, (checks, e, t, swapped) in links.items():
            i = -1 if t else 0
            at_v = (float(checks.lam[e, i]), float(checks.kap[e, i]))
            if checks.mu is not None:
                at_v += (*checks.end_slopes[e, t].tolist(), float(checks.mu[e, i]),
                         float(checks.nu[e, i]))
            mapped = _canonical(at_v, swapped, t != _CORNER_EDGES[key][-1])
            values[key] = dict(zip(_VALUE_NAMES, mapped))
        return cls(values)

    @classmethod
    def from_patches(
        cls, p1: BezierPatch, p2: BezierPatch, p3: BezierPatch, p4: BezierPatch,
    ) -> "CornerConfig":
        """The corner of four patches in the canonical arrangement, with second-order values.

        Its four links are solved in one batch, as ``check_edges`` solves
        them, and ``from_links`` reads the batch's columns, where both maps
        are the identity.  Raises the GeometryError of the first link that
        fails.
        """
        quad = {"p1": p1, "p2": p2, "p3": p3, "p4": p4}
        batch = _LinkBatch([(quad[an], quad[bn], EdgeCorrespondence(a_side, b_side, False, an, bn))
                            for an, a_side, bn, b_side, _ in _CORNER_EDGES.values()], 2)
        for e in range(len(_CORNER_EDGES)):
            batch.admit(e)
        return cls.from_links({key: (batch, e, t_v, False)
                               for e, (key, (*_, t_v)) in enumerate(_CORNER_EDGES.items())})

    def solve_g2(self) -> "CornerConfig":
        """This config, unchanged.

        ``from_patches`` already gives the second-order values, and a
        config read from first-order links cannot gain them here.
        """
        return self


def theorem1_residuals(
    lam12: float, kap12: float, lam14: float, kap14: float,
    lam23: float, kap23: float, lam43: float, kap43: float,
) -> tuple[np.ndarray, float]:
    """First-order vertex compatibility residuals from link values at V.

    Returns the four condition residuals plus the lambda-product residual
    |lam12*lam23 - lam14*lam43| that they imply.
    """
    res = np.array([
        abs(kap12 - lam14 * kap43),
        abs(kap14 - lam12 * kap23),
        abs(lam12 - lam43 - kap14 * kap43),
        abs(lam14 - lam23 - kap12 * kap23),
    ])
    product = abs(lam12 * lam23 - lam14 * lam43)
    return res, product


def theorem2_residuals(
    lam12: float, kap12: float, dlam12: float, dkap12: float, mu12: float, nu12: float,
    lam14: float, kap14: float, dlam14: float, dkap14: float, mu14: float, nu14: float,
    lam23: float, kap23: float, dlam23: float, dkap23: float, mu23: float, nu23: float,
    lam43: float, kap43: float, dlam43: float, dkap43: float, mu43: float, nu43: float,
) -> np.ndarray:
    """Second-order vertex compatibility residuals from link data at V."""
    return np.abs(np.array([
        2 * lam43 * dlam14 * kap43 - nu12 + nu43 * lam14 + mu14 * kap43**2,
        2 * lam23 * dlam12 * kap23 - nu14 + nu23 * lam12 + mu12 * kap23**2,
        2 * lam43 * kap43 * dkap14 - mu12 + mu43 + nu43 * kap14 + nu14 * kap43**2,
        2 * lam23 * kap23 * dkap12 - mu14 + mu23 + nu23 * kap12 + nu12 * kap23**2,
        dlam43 - lam23 * dlam12 + lam43 * dkap14 - lam12 * dkap23
        + kap14 * dkap43 - mu12 * kap23 + nu14 * kap43,
        dlam23 - lam43 * dlam14 + lam23 * dkap12 - lam14 * dkap43
        + kap12 * dkap23 - mu14 * kap43 + nu12 * kap23,
    ]))


class CompatReport(_Record):
    """Residuals of the vertex compatibility conditions, with verdicts.

    ``g1_residuals`` holds 4 values and ``lambda_product_residual`` one, ``ok`` their
    verdict; ``g2_residuals`` and ``g2_ok`` are None for a first-order check.
    """

    __slots__ = ("g1_residuals", "lambda_product_residual", "ok", "g2_residuals", "g2_ok",
                 "vertex_values")
    _defaults = dict.fromkeys(("g2_residuals", "g2_ok", "vertex_values"))


def _vertex_scalars(config: CornerConfig):
    vals = config.values
    for key, entry in vals.items():
        if abs(entry["lam"]) < LAMBDA_MIN:
            raise DegenerateLinkError(f"lambda of link ({key}) vanishes at the vertex")
    return vals


def check_vertex_g1(config: CornerConfig) -> CompatReport:
    """First-order compatibility of the four link functions at the vertex."""
    vals = _vertex_scalars(config)
    res, product = theorem1_residuals(
        vals["12"]["lam"], vals["12"]["kap"],
        vals["14"]["lam"], vals["14"]["kap"],
        vals["23"]["lam"], vals["23"]["kap"],
        vals["43"]["lam"], vals["43"]["kap"],
    )
    ok = bool(np.all(res < G1_TOL) and product < G1_TOL)
    return CompatReport(res, product, ok, None, None, vals)


def check_vertex_g2(config: CornerConfig) -> CompatReport:
    """Second-order compatibility at the vertex; needs mu, nu on all links."""
    for key, entry in config.values.items():
        if "mu" not in entry:
            raise PreconditionError(
                f"link ({key}) has no second-order data; build the corner from order-2 links"
            )
    g1 = check_vertex_g1(config)
    vals = g1.vertex_values
    args = []
    for key in ("12", "14", "23", "43"):
        e = vals[key]
        args.extend([e["lam"], e["kap"], e["dlam"], e["dkap"], e["mu"], e["nu"]])
    res = theorem2_residuals(*args)
    g2_ok = bool(np.all(res < G2_TOL))
    return CompatReport(g1.g1_residuals, g1.lambda_product_residual, g1.ok and g2_ok, res, g2_ok,
                        vals)
