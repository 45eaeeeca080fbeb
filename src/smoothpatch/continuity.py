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

Evaluation: a check builds one frame pair per edge and sample set, with
each side evaluated once up to the derivative order its consumers need.
At ``SOLVE_SAMPLES`` one pair serves the G0 test, the first-order link
solve and, for G2, the second-order link and the curvature oracle; G1
checks stop at first order.  At ``VERIFY_SAMPLES`` the normal oracle asks
for first order only.  ``CornerConfig`` keeps the pairs of its four links
for ``solve_g2`` and for the link derivatives at the vertex.

Vertex values are read at V itself: the link samples there, and one
solve in the frame at V for the derivatives of lambda and kappa.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field, replace

import numpy as np

from .bezier import BezierPatch, _edge_jet, bounding_diagonal

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
    "check_vertex_g1",
    "check_vertex_g2",
    "theorem1_residuals",
    "theorem2_residuals",
    "normal_curvature",
]

# Default tolerances, applied after normalizing by the joint bounding-box
# diagonal of the nets involved (so they are scale-free).
G0_TOL = 1e-9
G1_TOL = 1e-8
NORMAL_ANGLE_TOL = 1e-7  # radians
G2_TOL = 1e-6
LAMBDA_MIN = 1e-8
RANK_TOL = 1e-10
SOLVE_SAMPLES = 33
VERIFY_SAMPLES = 101


def _frozen(arr):
    """``arr`` as a read-only float64 array that owns its data; copied only if it is not one."""
    if arr is None or (isinstance(arr, np.ndarray) and arr.dtype == np.float64
                       and arr.flags.owndata and not arr.flags.writeable):
        return arr
    out = np.array(arr, dtype=float)
    out.flags.writeable = False
    return out


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


class _EdgeFrame:
    """Derivatives of a patch along one side, in shared edge coordinates.

    ``w`` is the transversal coordinate (positive from patch a into patch
    b), ``t`` the shared edge parameter.  ``into`` is +1/-1 according to
    whether increasing the patch's own cross parameter moves in +w, and
    ``t_sign`` is -1 when the patch's own edge parameter runs against t.
    ``order`` is the highest derivative order evaluated: 0 gives ``point``,
    1 adds ``w`` and ``t``, 2 adds ``ww``, ``wt`` and ``tt``.
    """

    def __init__(self, patch: BezierPatch, side: str, into: int, t: np.ndarray, t_sign: int,
                 order: int):
        s = t if t_sign > 0 else 1.0 - t
        jet = _edge_jet(patch, side, s, order)
        self.point = jet[0, 0]
        if order >= 1:
            self.w = into * jet[1, 0]
            self.t = t_sign * jet[0, 1]
        if order >= 2:
            self.ww = jet[2, 0]
            self.wt = into * t_sign * jet[1, 1]
            self.tt = jet[0, 2]


def _frames(a: BezierPatch, b: BezierPatch, corr: EdgeCorrespondence, t: np.ndarray,
            order: int):
    """The frame pair of one edge at the shared parameters t, up to ``order``."""
    into_a = +1 if corr.a_side in ("u1", "v1") else -1
    into_b = +1 if corr.b_side in ("u0", "v0") else -1
    fa = _EdgeFrame(a, corr.a_side, into_a, t, +1, order)
    fb = _EdgeFrame(b, corr.b_side, into_b, t, -1 if corr.reversed else +1, order)
    return fa, fb


def _max_gap(fa: _EdgeFrame, fb: _EdgeFrame, scale: float) -> float:
    return float(np.max(np.linalg.norm(fa.point - fb.point, axis=1))) / scale


def g0_gap(a: BezierPatch, b: BezierPatch, corr: EdgeCorrespondence) -> float:
    """Largest distance between the identified boundary curves, scale-normalized."""
    fa, fb = _frames(a, b, corr, _SOLVE_TS, 0)
    return _max_gap(fa, fb, bounding_diagonal(a, b))


@dataclass(frozen=True, eq=False)
class EdgeLink:
    """Link functions along one shared edge, as their samples at ``ts``.

    ``oop`` holds the per-sample out-of-plane residual of the first-order
    link solve; ``g2_oop`` (after ``solve_g2_link``) the second-order one.
    All residuals are normalized by the joint net diagonal ``scale``.
    """

    ts: np.ndarray
    lam_samples: np.ndarray
    kap_samples: np.ndarray
    oop: np.ndarray
    scale: float
    mu_samples: np.ndarray | None = None
    nu_samples: np.ndarray | None = None
    g2_oop: np.ndarray | None = None

    def __post_init__(self):
        for name in ("ts", "lam_samples", "kap_samples", "oop",
                     "mu_samples", "nu_samples", "g2_oop"):
            object.__setattr__(self, name, _frozen(getattr(self, name)))

    @property
    def max_oop(self) -> float:
        return float(np.max(self.oop))


def _gram_solve(e_w, e_t, rhs):
    """Per-sample Gram matrix of (e_w, e_t) and the coefficients x, y of rhs in that basis."""
    g = np.empty((len(e_w), 2, 2))
    g[:, 0, 0] = np.einsum("ij,ij->i", e_w, e_w)
    g[:, 0, 1] = g[:, 1, 0] = np.einsum("ij,ij->i", e_w, e_t)
    g[:, 1, 1] = np.einsum("ij,ij->i", e_t, e_t)
    rv = np.stack(
        [np.einsum("ij,ij->i", e_w, rhs), np.einsum("ij,ij->i", e_t, rhs)], axis=1
    )
    return g, np.linalg.solve(g, rv[..., None])[..., 0]


def _solve_in_tangent_basis(e_w, e_t, rhs, scale, what):
    """Least-squares solve rhs = x*e_w + y*e_t per sample; returns x, y, residual."""
    cross = np.cross(e_w, e_t)
    denom = np.linalg.norm(e_w, axis=1) * np.linalg.norm(e_t, axis=1)
    if np.any(denom == 0.0) or np.any(np.linalg.norm(cross, axis=1) < RANK_TOL * scale**2):
        raise DegenerateParametrizationError(
            f"tangent vectors linearly dependent while solving {what}"
        )
    _, xy = _gram_solve(e_w, e_t, rhs)
    resid = rhs - xy[:, :1] * e_w - xy[:, 1:] * e_t
    return xy[:, 0], xy[:, 1], np.linalg.norm(resid, axis=1) / scale


def solve_edge_link(
    a: BezierPatch,
    b: BezierPatch,
    corr: EdgeCorrespondence,
    *,
    frames=None,
) -> EdgeLink:
    """Solve the first-order link cross_b = lambda*cross_a + kappa*tangent_a.

    At each of the ``SOLVE_SAMPLES`` edge parameters the two scalars are
    obtained by projecting b's cross-boundary derivative onto a's tangent
    basis; the out-of-plane component is recorded as the per-sample
    residual.  ``frames`` is the edge's frame pair of order >= 1 at those
    parameters when the caller already holds it, as the edge checks and
    ``CornerConfig`` do so that one pair serves all their consumers; by
    default it is built here.
    """
    fa, fb = frames if frames is not None else _frames(a, b, corr, _SOLVE_TS, 1)
    scale = bounding_diagonal(a, b)
    gap = _max_gap(fa, fb, scale)
    if gap > G0_TOL:
        raise PreconditionError(
            f"boundary curves of {corr.a}:{corr.a_side} and {corr.b}:{corr.b_side} "
            f"do not coincide (normalized gap {gap:.3e} > {G0_TOL:.1e})"
        )
    lam, kap, oop = _solve_in_tangent_basis(
        fa.w, fa.t, fb.w, scale, f"edge link {corr.a}:{corr.a_side} ~ {corr.b}:{corr.b_side}",
    )
    if np.any(np.abs(lam) < LAMBDA_MIN):
        raise DegenerateLinkError(
            f"lambda vanishes along edge {corr.a}:{corr.a_side} ~ {corr.b}:{corr.b_side}"
        )
    if np.any(lam < 0.0):
        warnings.warn(
            f"orientation-reversing join ({corr.a}:{corr.a_side} ~ {corr.b}:{corr.b_side}): "
            "lambda is negative",
            stacklevel=2,
        )
    return EdgeLink(ts=_SOLVE_TS, lam_samples=lam, kap_samples=kap, oop=oop, scale=scale)


@dataclass(frozen=True)
class EdgeReport:
    """Outcome of an edge continuity check: the link test plus its oracle."""

    order: int  # 1 or 2
    link_residual: float
    link_ok: bool
    oracle_residual: float  # max normal angle (G1) / normal-curvature gap (G2)
    oracle_ok: bool
    ok: bool
    tol: float
    oracle_tol: float
    link: EdgeLink
    g1: "EdgeReport | None" = None  # for order 2: the underlying G1 report


def check_g1_edge(
    a: BezierPatch,
    b: BezierPatch,
    corr: EdgeCorrespondence,
    tol: float = G1_TOL,
) -> EdgeReport:
    """Tangent-plane continuity along a shared edge, tested two ways.

    (i) link test: the out-of-plane residual of ``solve_edge_link`` stays
    below ``tol``; (ii) normal oracle: the angle between the two surface
    normals (as unoriented lines) stays below ``NORMAL_ANGLE_TOL`` at the
    ``VERIFY_SAMPLES`` shared samples.  The verdict is the conjunction.
    """
    return _check_g1(a, b, corr, _frames(a, b, corr, _SOLVE_TS, 1), tol)


def _check_g1(a, b, corr, frames, tol):
    """``check_g1_edge`` with the frame pair at the solve samples given."""
    link = solve_edge_link(a, b, corr, frames=frames)
    link_ok = link.max_oop < tol

    fa, fb = _frames(a, b, corr, _VERIFY_TS, 1)
    na = np.cross(fa.w, fa.t)
    nb = np.cross(fb.w, fb.t)
    na /= np.linalg.norm(na, axis=1, keepdims=True)
    nb /= np.linalg.norm(nb, axis=1, keepdims=True)
    # angle between the normal *lines*; atan2 keeps precision near zero
    sinang = np.linalg.norm(np.cross(na, nb), axis=1)
    cosang = np.abs(np.einsum("ij,ij->i", na, nb))
    max_angle = float(np.max(np.arctan2(sinang, cosang)))
    normal_ok = max_angle < NORMAL_ANGLE_TOL

    return EdgeReport(
        order=1, link_residual=link.max_oop, link_ok=link_ok,
        oracle_residual=max_angle, oracle_ok=normal_ok,
        ok=link_ok and normal_ok, tol=tol, oracle_tol=NORMAL_ANGLE_TOL, link=link,
    )


def solve_g2_link(
    a: BezierPatch,
    b: BezierPatch,
    corr: EdgeCorrespondence,
    link: EdgeLink,
    *,
    frames=None,
) -> EdgeLink:
    """Solve the second-order link and return a copy of ``link`` with mu, nu.

    Forms R = b_ww - lambda^2 a_ww - 2 lambda kappa a_wt - kappa^2 a_tt per
    sample and resolves R = mu a_w + nu a_t in least squares.  A large
    out-of-plane component of R signals failure of curvature continuity; it
    is recorded, not raised.  ``frames`` is the edge's frame pair of order 2
    at the samples of ``link`` when the caller already holds it; by default
    it is built here.
    """
    fa, fb = frames if frames is not None else _frames(a, b, corr, link.ts, 2)
    lam, kap = link.lam_samples, link.kap_samples
    rhs = (
        fb.ww
        - lam[:, None] ** 2 * fa.ww
        - 2.0 * (lam * kap)[:, None] * fa.wt
        - kap[:, None] ** 2 * fa.tt
    )
    mu, nu, g2_oop = _solve_in_tangent_basis(
        fa.w, fa.t, rhs, link.scale,
        f"second-order link {corr.a}:{corr.a_side} ~ {corr.b}:{corr.b_side}",
    )
    return replace(link, mu_samples=mu, nu_samples=nu, g2_oop=g2_oop)


def normal_curvature(e_w, e_t, e_ww, e_wt, e_tt, direction, normal) -> np.ndarray:
    """Normal curvature in a 3D tangent ``direction``, per sample.

    The direction is decomposed in the (e_w, e_t) basis by least squares,
    then II/I is evaluated with the supplied unit ``normal`` (one common
    normal must be used when comparing two patches).
    """
    g, xy = _gram_solve(e_w, e_t, direction)
    x, y = xy[:, 0], xy[:, 1]
    big_l = np.einsum("ij,ij->i", e_ww, normal)
    big_m = np.einsum("ij,ij->i", e_wt, normal)
    big_n = np.einsum("ij,ij->i", e_tt, normal)
    first = x**2 * g[:, 0, 0] + 2 * x * y * g[:, 0, 1] + y**2 * g[:, 1, 1]
    second = x**2 * big_l + 2 * x * y * big_m + y**2 * big_n
    return second / first


def check_g2_edge(
    a: BezierPatch,
    b: BezierPatch,
    corr: EdgeCorrespondence,
    tol: float = G2_TOL,
) -> EdgeReport:
    """Curvature continuity along a shared edge, tested two ways.

    (i) the second-order link residual stays below ``tol``; (ii) curvature
    oracle: the normal curvatures of both patches agree within ``tol`` in
    three pairwise independent tangent directions at the shared samples
    (three directions suffice to pin the full curvature behaviour).
    """
    frames = _frames(a, b, corr, _SOLVE_TS, 2)
    g1 = _check_g1(a, b, corr, frames, G1_TOL)
    link = solve_g2_link(a, b, corr, g1.link, frames=frames)
    link_ok = float(np.max(link.g2_oop)) < tol

    fa, fb = frames
    n = np.cross(fa.w, fa.t)
    n /= np.linalg.norm(n, axis=1, keepdims=True)
    # normalize curvature units by the net diagonal so tol is scale-free
    scale = link.scale
    max_gap = 0.0
    for direction in (fa.w, fa.t, fa.w + fa.t):
        ka = normal_curvature(fa.w, fa.t, fa.ww, fa.wt, fa.tt, direction, n)
        kb = normal_curvature(fb.w, fb.t, fb.ww, fb.wt, fb.tt, direction, n)
        max_gap = max(max_gap, float(np.max(np.abs(ka - kb))) * scale)
    oracle_ok = max_gap < tol

    ok = g1.ok and link_ok and oracle_ok
    return EdgeReport(
        order=2, link_residual=float(np.max(link.g2_oop)), link_ok=link_ok,
        oracle_residual=max_gap, oracle_ok=oracle_ok, ok=ok,
        tol=tol, oracle_tol=tol, link=link, g1=g1,
    )


# ---------------------------------------------------------------------------
# 4-patch vertex compatibility

# Canonical corner arrangement: patch 1 lower-left with the vertex V at its
# (u,v) = (1,1) corner, patch 2 to the right of 1, patch 4 above 1, patch 3
# diagonal with V at its (0,0) corner.  The four links are directed
# 1->2, 1->4, 2->3 and 4->3; V sits at edge parameter 1 on the first two
# and at parameter 0 on the last two.
_CORNER_EDGES = {
    "12": ("p1", "u1", "p2", "u0", 1.0),
    "14": ("p1", "v1", "p4", "v0", 1.0),
    "23": ("p2", "v1", "p3", "v0", 0.0),
    "43": ("p4", "u1", "p3", "u0", 0.0),
}


@dataclass(frozen=True, eq=False)
class CornerConfig:
    """Four patches around a common vertex in the canonical arrangement."""

    p1: BezierPatch
    p2: BezierPatch
    p3: BezierPatch
    p4: BezierPatch
    links: dict  # keys "12", "14", "23", "43"
    scale: float
    # order-2 frame pairs of the links at their solve samples, for solve_g2
    # and link_values_at_vertex
    frames: dict = field(repr=False)

    @classmethod
    def from_patches(
        cls, p1: BezierPatch, p2: BezierPatch, p3: BezierPatch, p4: BezierPatch,
    ) -> "CornerConfig":
        patches = {"p1": p1, "p2": p2, "p3": p3, "p4": p4}
        scale = bounding_diagonal(p1, p2, p3, p4)
        v = p1.corner(1, 1)
        for name, other in (("p2", p2.corner(0, 1)), ("p3", p3.corner(0, 0)),
                            ("p4", p4.corner(1, 0))):
            if np.linalg.norm(other - v) > G0_TOL * scale:
                raise PreconditionError(f"{name} does not meet the common vertex V")
        links, frames = {}, {}
        for key, (an, a_side, bn, b_side, _) in _CORNER_EDGES.items():
            corr = EdgeCorrespondence(a_side, b_side, a=an, b=bn)
            frames[key] = _frames(patches[an], patches[bn], corr, _SOLVE_TS, 2)
            links[key] = solve_edge_link(patches[an], patches[bn], corr, frames=frames[key])
        return cls(p1=p1, p2=p2, p3=p3, p4=p4, links=links, scale=scale, frames=frames)

    def solve_g2(self) -> "CornerConfig":
        """Return a copy whose links carry the second-order functions mu, nu."""
        patches = {"p1": self.p1, "p2": self.p2, "p3": self.p3, "p4": self.p4}
        links = {}
        for key, (an, a_side, bn, b_side, _) in _CORNER_EDGES.items():
            corr = EdgeCorrespondence(a_side, b_side, a=an, b=bn)
            links[key] = solve_g2_link(patches[an], patches[bn], corr, self.links[key],
                                       frames=self.frames[key])
        return replace(self, links=links)

    def link_values_at_vertex(self) -> dict:
        """Link values (and derivatives) at the vertex V, per edge key.

        lambda, kappa (and mu, nu) are the link samples at V.  Differentiating
        b_w = lambda a_w + kappa a_t along the edge gives
        b_wt - lambda a_wt - kappa a_tt = lambda' a_w + kappa' a_t, which is
        solved in the frame at V, the sample of ``frames`` there.
        """
        out = {}
        for key, (*_, t_v) in _CORNER_EDGES.items():
            link = self.links[key]
            i = -1 if t_v == 1.0 else 0  # V's sample, first or last
            fa, fb = self.frames[key]
            lam, kap = float(link.lam_samples[i]), float(link.kap_samples[i])
            rhs = fb.wt[[i]] - lam * fa.wt[[i]] - kap * fa.tt[[i]]
            _, ((dlam, dkap),) = _gram_solve(fa.w[[i]], fa.t[[i]], rhs)
            entry = {"lam": lam, "kap": kap, "dlam": float(dlam), "dkap": float(dkap)}
            if link.mu_samples is not None:
                entry["mu"] = float(link.mu_samples[i])
                entry["nu"] = float(link.nu_samples[i])
            out[key] = entry
        return out


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
    tol: float
    ok: bool
    g2_residuals: np.ndarray | None = None
    g2_tol: float | None = None
    g2_ok: bool | None = None
    vertex_values: dict | None = None

    @property
    def verdicts(self):
        out = [bool(r < self.tol) for r in self.g1_residuals]
        out.append(bool(self.lambda_product_residual < self.tol))
        if self.g2_residuals is not None:
            out.extend(bool(r < self.g2_tol) for r in self.g2_residuals)
        return out


def _vertex_scalars(config: CornerConfig):
    vals = config.link_values_at_vertex()
    for key, entry in vals.items():
        if abs(entry["lam"]) < LAMBDA_MIN:
            raise DegenerateLinkError(f"lambda of link ({key}) vanishes at the vertex")
    return vals


def check_vertex_g1(config: CornerConfig, tol: float = G1_TOL) -> CompatReport:
    """First-order compatibility of the four link functions at the vertex."""
    vals = _vertex_scalars(config)
    res, product = theorem1_residuals(
        vals["12"]["lam"], vals["12"]["kap"],
        vals["14"]["lam"], vals["14"]["kap"],
        vals["23"]["lam"], vals["23"]["kap"],
        vals["43"]["lam"], vals["43"]["kap"],
    )
    ok = bool(np.all(res < tol) and product < tol)
    return CompatReport(
        g1_residuals=res, lambda_product_residual=product, tol=tol, ok=ok,
        vertex_values=vals,
    )


def check_vertex_g2(config: CornerConfig, tol: float = G2_TOL) -> CompatReport:
    """Second-order compatibility at the vertex; needs mu, nu on all links."""
    for key, link in config.links.items():
        if link.mu_samples is None:
            raise PreconditionError(
                f"link ({key}) has no second-order data; call CornerConfig.solve_g2 first"
            )
    g1 = check_vertex_g1(config)
    vals = g1.vertex_values
    args = []
    for key in ("12", "14", "23", "43"):
        e = vals[key]
        args.extend([e["lam"], e["kap"], e["dlam"], e["dkap"], e["mu"], e["nu"]])
    res = theorem2_residuals(*args)
    g2_ok = bool(np.all(res < tol))
    return CompatReport(
        g1_residuals=g1.g1_residuals,
        lambda_product_residual=g1.lambda_product_residual,
        tol=g1.tol, ok=g1.ok and g2_ok,
        g2_residuals=res, g2_tol=tol, g2_ok=g2_ok, vertex_values=vals,
    )
