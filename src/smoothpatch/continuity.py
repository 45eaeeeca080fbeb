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
pass, the one-edge functions are batches of one, and each construction
solves its joins in one batch.  A check makes one call of
``bezier._edge_jets`` for both sides of all its edges and both sample sets,
each side once per set, read into its patch and along the shared edge
parameter, so only a's derivatives across the edge change sign.  At
``SOLVE_SAMPLES`` (first order for G1, second for G2) the frames serve the
G0 test, the link solves, the end slopes and the curvature oracle.  At
``VERIFY_SAMPLES`` the normal oracle has first-order frames of its own:
they share the differenced control rows with the solve's, never a sum.
Each link solve goes through the dual basis of a's tangent basis, one per
edge and sample; the curvature oracle solves its three directions in one
call.  A side's jets are the same bits in any batch, and the later steps
agree with a batch of one within 1e-12.  Each ``EdgeLink`` of a batch
holds read-only views of its results, not copies.

A ``CornerConfig`` holds the link values at a vertex V in the canonical
arrangement, and solves nothing: each comes from one edge link's samples at
V, read in that link's own orientation, through two closed-form maps (a
link read from b to a, and a link whose parameter runs the other way).
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, replace

import numpy as np

from .bezier import BezierPatch, _edge_jets, _frozen, _pair_diagonals

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
    "EdgeLink",
    "EdgeReport",
    "CornerConfig",
    "CompatReport",
    "g0_gap",
    "solve_edge_link",
    "check_g1_edge",
    "solve_g2_link",
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


@dataclass(frozen=True)
class EdgeCorrespondence:
    """Identification of one boundary of patch a with one boundary of patch b.

    ``reversed`` means b's edge parameter runs opposite to a's.  The two
    boundary curves must coincide pointwise under this identification;
    ``solve_edge_link`` verifies that before solving.
    """

    a_side: str
    b_side: str
    reversed: bool = False
    a: str = "a"
    b: str = "b"

    def __post_init__(self):
        for s in (self.a_side, self.b_side):
            if s not in ("u0", "u1", "v0", "v1"):
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
    # read-only, so that the links of a batch can keep views of the results
    xy.flags.writeable = False
    if scale is None:
        return xy
    oop = np.abs(_dot(dual[..., 2, :], rhs)) / scale
    oop.flags.writeable = False
    return xy, oop


def _name(corr: EdgeCorrespondence) -> str:
    return f"{corr.a}:{corr.a_side} ~ {corr.b}:{corr.b_side}"


def _frames(pairs, requests) -> list:
    """Derivatives along both sides of a batch of (a, b, corr) edges, in shared edge coordinates.

    ``w`` is the transversal coordinate (positive from patch a into patch
    b), ``t`` the shared edge parameter.  ``requests`` holds (t, order)
    pairs, order 1 or 2, and the result one dict per request: it maps
    "point", "w" and "t", from order 2 also "ww", "wt" and "tt", to arrays
    of shape (2, edges, samples, 3) whose first index picks patch a or b.
    All sides and requests come from one call of the side evaluator.
    """
    sides = ([(a, c.a_side, False) for a, _, c in pairs]
             + [(b, c.b_side, c.reversed) for _, b, c in pairs])
    # a's rows run away from b, so its odd derivatives across the edge change sign
    into = np.array([-1.0, 1.0])[:, None, None, None]
    frames = []
    for jets in _edge_jets(sides, requests):
        jet = {key: value.reshape(2, len(pairs), *value.shape[1:]) for key, value in jets.items()}
        f = {"point": jet[0, 0], "w": into * jet[1, 0], "t": jet[0, 1]}
        if (2, 0) in jet:
            f.update(ww=jet[2, 0], wt=into * jet[1, 1], tt=jet[0, 2])
        frames.append(f)
    return frames


def g0_gap(a: BezierPatch, b: BezierPatch, corr: EdgeCorrespondence) -> float:
    """Largest distance between the identified boundary curves, scale-normalized."""
    return float(_LinkBatch([(a, b, corr)], 1).gaps[0])


@dataclass(frozen=True, eq=False)
class EdgeLink:
    """Link functions along one shared edge, as their samples at ``ts``.

    ``oop`` holds the per-sample out-of-plane residual of the first-order
    link solve; ``g2_oop`` (after ``solve_g2_link``) the second-order one.
    All residuals are normalized by the joint net diagonal ``scale``.
    ``end_slopes`` (also second order) holds (lambda', kappa') at the first
    and the last sample, as rows.

    The arrays are read-only.  A link from ``check_edges`` holds strided
    views of its batch's result arrays, not copies, so it keeps the results
    of every edge of the batch alive; a caller that keeps a few links of a
    large batch should copy their arrays.
    """

    ts: np.ndarray
    lam_samples: np.ndarray
    kap_samples: np.ndarray
    oop: np.ndarray
    scale: float
    mu_samples: np.ndarray | None = None
    nu_samples: np.ndarray | None = None
    g2_oop: np.ndarray | None = None
    end_slopes: np.ndarray | None = None

    def __post_init__(self):
        for name in ("ts", "lam_samples", "kap_samples", "oop",
                     "mu_samples", "nu_samples", "g2_oop", "end_slopes"):
            if getattr(self, name) is not None:
                object.__setattr__(self, name, _frozen(getattr(self, name)))

    @property
    def max_oop(self) -> float:
        return float(np.max(self.oop))


def _second_order(f: dict, lam, kap, dual, scale):
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
    xy, oop = _solve(dual, rhs, scale)
    ends = [0, -1]
    a_wt, b_wt, a_tt = (x[:, ends] for x in (f["wt"][0], f["wt"][1], f["tt"][0]))
    rhs = b_wt - lam[:, ends, None] * a_wt - kap[:, ends, None] * a_tt
    return xy[..., 0], xy[..., 1], oop, _solve(dual[:, ends], rhs)


class _LinkBatch:
    """Link solves of a batch of (a, b, corr) edges at ``SOLVE_SAMPLES``, up to ``order``.

    ``f`` is the batch's frames there, when the caller has them from a
    larger evaluator call.  The dual basis ``dual`` of a's tangent basis,
    one per edge and sample, serves the first-order solve and, at order 2,
    the second-order one, whose (mu, nu, residual, end slopes) are ``g2``.
    ``gaps`` holds each edge's normalized G0 gap.  ``errors[e]`` is the
    GeometryError ``solve_edge_link`` raises for edge e, or None: a G0 gap
    comes first, then a rank failure, then a vanishing lambda.
    """

    def __init__(self, pairs, order: int, f=None):
        self.pairs = pairs
        self.f = f = _frames(pairs, [(_SOLVE_TS, order)])[0] if f is None else f
        self.scale = _pair_diagonals(pairs)
        scale = self.scale[:, None]
        (a_w, b_w), a_t = f["w"], f["t"][0]
        self.cross = _cross(a_w, a_t)  # zero where a tangent vector is zero
        flat = (np.linalg.norm(self.cross, axis=-1) < RANK_TOL * scale**2).any(axis=-1)
        self.dual = _dual(a_w, a_t, self.cross)
        xy, self.oop = _solve(self.dual, b_w, scale)
        self.lam, self.kap = xy[..., 0], xy[..., 1]
        self.negative = (self.lam < 0.0).any(axis=-1)
        self.g2 = _second_order(f, self.lam, self.kap, self.dual, scale) if order >= 2 else None
        self.gaps = np.linalg.norm(f["point"][0] - f["point"][1], axis=-1).max(axis=-1) / self.scale
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

    def link(self, e: int) -> EdgeLink:
        """Edge e's link, with mu, nu, their residual and the end slopes at order 2."""
        mu, nu, g2_oop, slopes = (None,) * 4 if self.g2 is None else (x[e] for x in self.g2)
        return EdgeLink(ts=_SOLVE_TS, lam_samples=self.lam[e], kap_samples=self.kap[e],
                        oop=self.oop[e], scale=float(self.scale[e]),
                        mu_samples=mu, nu_samples=nu, g2_oop=g2_oop, end_slopes=slopes)


def solve_edge_link(
    a: BezierPatch,
    b: BezierPatch,
    corr: EdgeCorrespondence,
) -> EdgeLink:
    """Solve the first-order link cross_b = lambda*cross_a + kappa*tangent_a.

    At each of the ``SOLVE_SAMPLES`` edge parameters the two scalars are
    obtained by projecting b's cross-boundary derivative onto a's tangent
    basis; the out-of-plane component is recorded as the per-sample
    residual.
    """
    batch = _LinkBatch([(a, b, corr)], 1)
    batch.admit(0)
    return batch.link(0)


@dataclass(frozen=True)
class EdgeReport:
    """Outcome of an edge continuity check: the link test plus its oracle."""

    order: int  # 1 or 2
    link_residual: float
    link_ok: bool
    oracle_residual: float  # max normal angle (G1) / normal-curvature gap (G2)
    oracle_ok: bool
    ok: bool
    link: EdgeLink
    g1: "EdgeReport | None" = None  # for order 2: the underlying G1 report


def check_edges(edges, order: int = 1) -> list[EdgeReport]:
    """G1 (order 1) or G2 (order 2) checks of many shared edges in one batched pass.

    ``edges`` holds (a, b, corr) triples.  Each report is the one
    ``check_g1_edge`` or ``check_g2_edge`` gives for that edge alone.  Edges
    are taken in order: the first whose link solve fails raises its error,
    after the negative-lambda warnings of the edges before it.
    """
    pairs = list(edges)
    if not pairs:
        return []
    # one side-evaluator call; the normal oracle's frames share only the differenced rows
    solve_f, f = _frames(pairs, [(_SOLVE_TS, order), (_VERIFY_TS, 1)])
    batch = _LinkBatch(pairs, order, solve_f)
    for e in range(len(pairs)):
        batch.admit(e)
    # normal oracle: the angle between the normal *lines* of the two patches
    n = _cross(f["w"], f["t"])
    n /= np.linalg.norm(n, axis=-1)[..., None]
    # atan2 keeps precision near zero
    sin = np.linalg.norm(_cross(n[0], n[1]), axis=-1)
    angle = np.arctan2(sin, np.abs(_dot(n[0], n[1]))).max(axis=-1)
    links = [batch.link(e) for e in range(len(pairs))]
    reports = [
        EdgeReport(order=1, link_residual=r, link_ok=r < G1_TOL, oracle_residual=x,
                   oracle_ok=x < NORMAL_ANGLE_TOL, ok=r < G1_TOL and x < NORMAL_ANGLE_TOL,
                   link=link)
        for link, r, x in zip(links, batch.oop.max(axis=-1).tolist(), angle.tolist())
    ]
    if order == 1:
        return reports
    # curvature oracle: both patches' normal curvatures in three pairwise
    # independent directions, with a's unit normal, in units of the net
    # diagonal so that G2_TOL is scale-free
    f = batch.f
    n = batch.cross / np.linalg.norm(batch.cross, axis=-1)[..., None]
    k = normal_curvature(f["w"], f["t"], f["ww"], f["wt"], f["tt"],
                         np.stack([f["w"][0], f["t"][0], f["w"][0] + f["t"][0]])[:, None], n)
    gap = np.abs(k[:, 0] - k[:, 1]).max(axis=(0, -1)) * batch.scale
    return [
        EdgeReport(order=2, link_residual=r, link_ok=r < G2_TOL, oracle_residual=x,
                   oracle_ok=x < G2_TOL, ok=g1.ok and r < G2_TOL and x < G2_TOL,
                   link=g1.link, g1=g1)
        for g1, r, x in zip(reports, batch.g2[2].max(axis=-1).tolist(), gap.tolist())
    ]


def check_g1_edge(a: BezierPatch, b: BezierPatch, corr: EdgeCorrespondence) -> EdgeReport:
    """Tangent-plane continuity along a shared edge, tested two ways.

    (i) link test: the out-of-plane residual of ``solve_edge_link`` stays
    below ``G1_TOL``; (ii) normal oracle: the angle between the two surface
    normals (as unoriented lines) stays below ``NORMAL_ANGLE_TOL`` at the
    ``VERIFY_SAMPLES`` shared samples.  The verdict is the conjunction.
    """
    return check_edges([(a, b, corr)], 1)[0]


def solve_g2_link(
    a: BezierPatch,
    b: BezierPatch,
    corr: EdgeCorrespondence,
    link: EdgeLink,
) -> EdgeLink:
    """Solve the second-order link and return a copy of ``link`` with mu, nu.

    Forms R = b_ww - lambda^2 a_ww - 2 lambda kappa a_wt - kappa^2 a_tt per
    sample and resolves R = mu a_w + nu a_t in least squares.  A large
    out-of-plane component of R signals failure of curvature continuity; it
    is recorded, not raised.  The copy also carries the end slopes.  The
    edge is solved as a batch of one at ``SOLVE_SAMPLES``, as ``link`` is.
    """
    if not np.array_equal(link.ts, _SOLVE_TS):
        raise ValueError(f"link of {_name(corr)} is not sampled at SOLVE_SAMPLES")
    batch = _LinkBatch([(a, b, corr)], 2)
    if batch.errors[0] is not None:
        raise batch.errors[0]
    mu, nu, g2_oop, slopes = (x[0] for x in batch.g2)
    return replace(link, mu_samples=mu, nu_samples=nu, g2_oop=g2_oop, end_slopes=slopes)


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


def check_g2_edge(a: BezierPatch, b: BezierPatch, corr: EdgeCorrespondence) -> EdgeReport:
    """Curvature continuity along a shared edge, tested two ways.

    (i) the second-order link residual stays below ``G2_TOL``; (ii) curvature
    oracle: the normal curvatures of both patches agree within ``G2_TOL`` in
    three pairwise independent tangent directions at the shared samples
    (three directions suffice to pin the full curvature behaviour).
    """
    return check_edges([(a, b, corr)], 2)[0]


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


@dataclass(frozen=True, eq=False)
class CornerConfig:
    """Link values at the common vertex V of four patches, in the canonical arrangement.

    ``values`` maps each link key ("12", "14", "23", "43") to its lambda and
    kappa at V (keys "lam", "kap") and, when built from second-order links,
    lambda', kappa', mu and nu there ("dlam", "dkap", "mu", "nu").
    """

    values: dict

    @classmethod
    def from_links(cls, links: dict) -> "CornerConfig":
        """The corner whose canonical links are read from ``links``, in their own orientation.

        ``links`` maps each link key to (link, t, swapped): V is at the
        link's edge parameter t (0 or 1), and ``swapped`` says that the link
        runs from the canonical b to the canonical a.  Nothing is solved:
        the values are the link's samples at V and its end slopes there,
        mapped by ``_canonical``.
        """
        values = {}
        for key, (link, t, swapped) in links.items():
            i = -1 if t else 0
            at_v = (float(link.lam_samples[i]), float(link.kap_samples[i]))
            if link.mu_samples is not None:
                at_v += (*link.end_slopes[t].tolist(), float(link.mu_samples[i]),
                         float(link.nu_samples[i]))
            mapped = _canonical(at_v, swapped, t != _CORNER_EDGES[key][-1])
            values[key] = dict(zip(_VALUE_NAMES, mapped))
        return cls(values)

    @classmethod
    def from_patches(
        cls, p1: BezierPatch, p2: BezierPatch, p3: BezierPatch, p4: BezierPatch,
    ) -> "CornerConfig":
        """The corner of four patches in the canonical arrangement, with second-order values.

        Its four links are solved in one batch, as ``check_edges`` solves
        them, and read by ``from_links``, where both maps are the identity.
        Raises the GeometryError of the first link that fails.
        """
        quad = {"p1": p1, "p2": p2, "p3": p3, "p4": p4}
        batch = _LinkBatch([(quad[an], quad[bn], EdgeCorrespondence(a_side, b_side, a=an, b=bn))
                            for an, a_side, bn, b_side, _ in _CORNER_EDGES.values()], 2)
        for e in range(len(_CORNER_EDGES)):
            batch.admit(e)
        return cls.from_links({key: (batch.link(e), t_v, False)
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


@dataclass(frozen=True, eq=False)
class CompatReport:
    """Residuals of the vertex compatibility conditions, with verdicts."""

    g1_residuals: np.ndarray  # 4 values
    lambda_product_residual: float
    ok: bool
    g2_residuals: np.ndarray | None = None
    g2_ok: bool | None = None
    vertex_values: dict | None = None


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
    return CompatReport(
        g1_residuals=res, lambda_product_residual=product, ok=ok,
        vertex_values=vals,
    )


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
    return CompatReport(
        g1_residuals=g1.g1_residuals,
        lambda_product_residual=g1.lambda_product_residual,
        ok=g1.ok and g2_ok, g2_residuals=res, g2_ok=g2_ok, vertex_values=vals,
    )
