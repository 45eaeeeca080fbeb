"""Shared oracle machinery for the test suite.

Everything here is independent of the code paths it checks: ground-truth
configurations are produced by de Casteljau subdivision of one smooth
surface, by exact polynomial composition with mild reparametrizations, or
by direct control-point propagation of the first-order link relation.
"""

from __future__ import annotations

import numpy as np

from smoothpatch.bezier import BezierPatch, binom, split_grid, split_patch


# ---------------------------------------------------------------------------
# random patches

def smooth_net(rng, nu=4, nv=4, span=1.0, z_scale=0.15, xy_noise=0.0):
    """Graph-like control net over a [0, span]^2 footprint; always regular."""
    xs = np.linspace(0.0, span, nu)
    ys = np.linspace(0.0, span, nv)
    net = np.zeros((nu, nv, 3))
    net[:, :, 0] = xs[:, None]
    net[:, :, 1] = ys[None, :]
    net[:, :, 2] = rng.normal(scale=z_scale, size=(nu, nv))
    if xy_noise:
        net[:, :, :2] += rng.normal(scale=xy_noise, size=(nu, nv, 2))
    return net


def smooth_patch(rng, degree_u=3, degree_v=3, **kw) -> BezierPatch:
    return BezierPatch.from_net(smooth_net(rng, degree_u + 1, degree_v + 1, **kw))


def paraboloid_patch() -> BezierPatch:
    """Exact Bezier form of z = u^2 + v^2 over the unit square."""
    lin = np.array([0.0, 0.5, 1.0])
    quad = np.array([0.0, 0.0, 1.0])
    net = np.zeros((3, 3, 3))
    net[:, :, 0] = lin[:, None]
    net[:, :, 1] = lin[None, :]
    net[:, :, 2] = quad[:, None] + quad[None, :]
    return BezierPatch.from_net(net)


# ---------------------------------------------------------------------------
# polynomial composition (for the reparametrized-split oracle family)

def bern_to_power(n: int) -> np.ndarray:
    mat = np.zeros((n + 1, n + 1))
    for k in range(n + 1):
        for i in range(k + 1):
            mat[k, i] = (-1) ** (k - i) * binom(n, i) * binom(n - i, k - i)
    return mat


def power_to_bern(n: int) -> np.ndarray:
    mat = np.zeros((n + 1, n + 1))
    for i in range(n + 1):
        for k in range(i + 1):
            mat[i, k] = binom(i, k) / binom(n, k)
    return mat


def _pmul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    out = np.zeros((a.shape[0] + b.shape[0] - 1, a.shape[1] + b.shape[1] - 1))
    for i in range(a.shape[0]):
        for j in range(a.shape[1]):
            if a[i, j] != 0.0:
                out[i:i + b.shape[0], j:j + b.shape[1]] += a[i, j] * b
    return out


def _padd(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    out = np.zeros((max(a.shape[0], b.shape[0]), max(a.shape[1], b.shape[1])))
    out[: a.shape[0], : a.shape[1]] += a
    out[: b.shape[0], : b.shape[1]] += b
    return out


def compose_with_quad(net: np.ndarray, quad) -> BezierPatch:
    """Exact Bezier net of G(Phi(u, v)) for a bilinear quad map Phi.

    ``net`` is the Bernstein net of a bi-degree (n, n) surface G over the
    unit square and ``quad`` the four 2D corners [[P00, P01], [P10, P11]]
    of the parameter-domain quadrilateral; the composite has bi-degree
    (2n, 2n).  Conversion runs through the power basis, which is exact for
    these small degrees.
    """
    n = net.shape[0] - 1
    t = bern_to_power(n)
    gpow = np.einsum("ki,ijc,lj->klc", t, net, t)
    p00 = np.asarray(quad[0][0], float)
    p01 = np.asarray(quad[0][1], float)
    p10 = np.asarray(quad[1][0], float)
    p11 = np.asarray(quad[1][1], float)
    x = np.zeros((2, 2))
    y = np.zeros((2, 2))
    x[0, 0], y[0, 0] = p00
    x[1, 0], y[1, 0] = p10 - p00
    x[0, 1], y[0, 1] = p01 - p00
    x[1, 1], y[1, 1] = p11 - p10 - p01 + p00
    ypow = [np.ones((1, 1))]
    for _ in range(n):
        ypow.append(_pmul(ypow[-1], y))
    coords = []
    for c in range(3):
        acc = np.zeros((1, 1))
        for k in range(n, -1, -1):
            inner = np.zeros((1, 1))
            for l in range(n + 1):
                if gpow[k, l, c] != 0.0:
                    inner = _padd(inner, gpow[k, l, c] * ypow[l])
            acc = _padd(_pmul(acc, x), inner)
        coords.append(acc)
    du = max(a.shape[0] for a in coords) - 1
    dv = max(a.shape[1] for a in coords) - 1
    pow3 = np.zeros((du + 1, dv + 1, 3))
    for c in range(3):
        a = coords[c]
        pow3[: a.shape[0], : a.shape[1], c] = a
    mu = power_to_bern(du)
    mv = power_to_bern(dv)
    return BezierPatch(du, dv, np.einsum("ik,klc,jl->ijc", mu, pow3, mv))


def quad_split_config(rng, slant=0.03):
    """Four patches cutting one bi-quartic along a slanted interior cross.

    The composite is a single smooth surface, so the configuration is
    exactly G2; the slants make the vertex kappa values non-zero and the
    link functions non-constant.  Returns (global patch, p1, p2, p3, p4)
    in the canonical corner arrangement.
    """
    net = smooth_net(rng, 5, 5, span=1.0, z_scale=0.25, xy_noise=0.03)
    a = 0.5 + rng.uniform(-0.08, 0.08)
    b = 0.5 + rng.uniform(-0.08, 0.08)
    a0 = a + rng.uniform(-slant, slant)
    a1 = a + rng.uniform(-slant, slant)
    b0 = b + rng.uniform(-slant, slant)
    b1 = b + rng.uniform(-slant, slant)
    q1 = [[(0, 0), (0, b0)], [(a0, 0), (a, b)]]
    q2 = [[(a0, 0), (a, b)], [(1, 0), (1, b1)]]
    q4 = [[(0, b0), (0, 1)], [(a, b), (a1, 1)]]
    q3 = [[(a, b), (a1, 1)], [(1, b1), (1, 1)]]
    return (
        BezierPatch.from_net(net),
        compose_with_quad(net, q1),
        compose_with_quad(net, q2),
        compose_with_quad(net, q3),
        compose_with_quad(net, q4),
    )


# ---------------------------------------------------------------------------
# pairwise G1 constructions and crease fixtures

def _extend(net, rng, axis, scale=0.05):
    """Continue the first two rows/columns of a bi-cubic net smoothly."""
    if axis == "v":
        for i in range(4):
            step = net[i, 1] - net[i, 0]
            net[i, 2] = net[i, 1] + step + rng.normal(scale=scale, size=3)
            net[i, 3] = net[i, 2] + step + rng.normal(scale=scale, size=3)
    else:
        for j in range(4):
            step = net[1, j] - net[0, j]
            net[2, j] = net[1, j] + step + rng.normal(scale=scale, size=3)
            net[3, j] = net[2, j] + step + rng.normal(scale=scale, size=3)
    return net


def g1_join_up(base: BezierPatch, rng, lam: float) -> BezierPatch:
    """Bi-cubic neighbour above base: constant lambda, zero kappa."""
    net = np.zeros((4, 4, 3))
    net[:, 0] = base.net[:, 3]
    net[:, 1] = net[:, 0] + lam * (base.net[:, 3] - base.net[:, 2])
    return BezierPatch.from_net(_extend(net, rng, "v"))


def g1_join_right(base: BezierPatch, rng, lam: float) -> BezierPatch:
    """Bi-cubic neighbour right of base: constant lambda, zero kappa."""
    net = np.zeros((4, 4, 3))
    net[0] = base.net[3]
    net[1] = net[0] + lam * (base.net[3] - base.net[2])
    return BezierPatch.from_net(_extend(net, rng, "u"))


def g1_pair(rng):
    """Random G1 pair across a u-edge with polynomial (non-constant) link.

    The neighbour has bi-degree (3, 5): its first two cross-boundary rows
    come from the quadratic-lambda / cubic-kappa band relation (transverse
    degree 3), the remaining rows are random but smooth.  Returns
    (a, b, lambda ordinates, kappa ordinates); the correspondence is a's
    u=1 side to b's u=0 side.
    """
    from smoothpatch.bezier import elevate_row
    from smoothpatch.construct import g1_band_offsets

    a = smooth_patch(rng)
    lam_o = rng.uniform(0.5, 2.0, size=3)
    kap_o = rng.uniform(-0.4, 0.4, size=4)
    bnd = a.net[3, :]
    inr = a.net[2, :]
    net = np.zeros((4, 6, 3))
    net[0] = elevate_row(bnd, 5)
    net[1] = net[0] + g1_band_offsets(bnd, inr, lam_o, kap_o) / 3.0
    for i in (2, 3):
        for j in range(6):
            net[i, j] = 2 * net[i - 1, j] - net[i - 2, j] + rng.normal(scale=0.04, size=3)
    return a, BezierPatch.from_net(net), lam_o, kap_o


def creased_pair(rng):
    """G0 pair whose tangent planes disagree along the shared edge."""
    from smoothpatch.bezier import normal_vector

    a, b, _, _ = g1_pair(rng)
    net = b.net.copy()
    # kick the band row off the tangent plane, along the surface normal
    normal = normal_vector(a, 1.0, 0.5)
    direction = normal / np.linalg.norm(normal)
    net[1, :] += (0.05 + rng.uniform(0.0, 0.2)) * direction
    return a, BezierPatch.from_net(net)


def flat_crease_pair(angle):
    """Planar unit patch plus a copy folded by ``angle`` about the shared edge."""
    a = BezierPatch.from_net([[[0, 0, 0], [0, 1, 0]], [[1, 0, 0], [1, 1, 0]]])
    c, s = np.cos(angle), np.sin(angle)
    b = BezierPatch.from_net([[[1, 0, 0], [1, 1, 0]], [[1 + c, 0, s], [1 + c, 1, s]]])
    return a, b


# ---------------------------------------------------------------------------
# corner and ring generators

def split_corner(rng, u=0.5, v=0.5, degree=3):
    """Quadrant split of one smooth patch: exactly G2, lambda constant."""
    g = smooth_patch(rng, degree, degree)
    ll, hl, lh, hh = split_patch(g, u=u, v=v)
    return g, ll, hl, lh, hh  # p1, p2, p4, p3 ordering: (ll, hl, lh, hh)


def constructive_corner(rng, lam12=None, lam14=None):
    """Three bi-cubics forming a G1 corner with constant lambdas, zero kappa."""
    lam12 = rng.uniform(0.5, 2.0) if lam12 is None else lam12
    lam14 = rng.uniform(0.5, 2.0) if lam14 is None else lam14
    r1 = smooth_patch(rng)
    r2 = g1_join_right(r1, rng, lam12)
    r4 = g1_join_up(r1, rng, lam14)
    return r1, r2, r4, lam12, lam14


def kappa_corner(rng, kap12_0=0.3, kap14_0=-0.2):
    """G1 corner whose joins carry the vertex-vanishing linear kappa shape.

    kappa(t) = kappa(0) * (1 - t): multiplying the degree-2 edge derivative
    by (1 - t) re-weights its Bernstein coefficients by (1, 2/3, 1/3, 0) at
    degree 3, which gives the control-point recipe below.
    """
    lam12 = rng.uniform(0.8, 1.5)
    lam14 = rng.uniform(0.8, 1.5)
    r1 = smooth_patch(rng)
    w = np.array([1.0, 2.0 / 3.0, 1.0 / 3.0])
    net2 = np.zeros((4, 4, 3))
    net2[0] = r1.net[3]
    net2[1] = net2[0] + lam12 * (r1.net[3] - r1.net[2])
    edge = r1.net[3, 1:] - r1.net[3, :-1]
    for j in range(3):
        net2[1, j] += kap12_0 * w[j] * edge[j]
    r2 = BezierPatch.from_net(_extend(net2, rng, "u"))
    net4 = np.zeros((4, 4, 3))
    net4[:, 0] = r1.net[:, 3]
    net4[:, 1] = net4[:, 0] + lam14 * (r1.net[:, 3] - r1.net[:, 2])
    edge_u = r1.net[1:, 3] - r1.net[:-1, 3]
    for i in range(3):
        net4[i, 1] += kap14_0 * w[i] * edge_u[i]
    r4 = BezierPatch.from_net(_extend(net4, rng, "v"))
    return r1, r2, r4, lam12, lam14


def uniform_ring(rng):
    """3x3 subdivision of one bi-cubic; ring patches plus the true centre."""
    g = smooth_patch(rng, span=3.0, z_scale=0.4)
    cells = split_grid(g, [1 / 3, 2 / 3], [1 / 3, 2 / 3])
    patches = {1: cells[0][0], 2: cells[0][1], 3: cells[0][2], 4: cells[1][0],
               6: cells[1][2], 7: cells[2][0], 8: cells[2][1], 9: cells[2][2]}
    return patches, cells[1][1]


def random_ring(rng):
    """Ring with an independent lambda constant on each of the 8 joins.

    Built by propagating the join relation patch by patch; the free control
    points of patches 8 and 9 are chosen so the last corner closes (one
    square of the ring is doubly constrained).
    """
    lam = {k: rng.uniform(0.5, 2.0) for k in ("12", "32", "14", "74", "78", "98", "36", "96")}
    p1 = smooth_patch(rng)
    p2 = g1_join_up(p1, rng, lam["12"])
    p3 = g1_join_up(p2, rng, 1.0 / lam["32"])
    p4 = g1_join_right(p1, rng, lam["14"])
    p7 = g1_join_right(p4, rng, 1.0 / lam["74"])
    p6 = g1_join_right(p3, rng, lam["36"])
    p8 = g1_join_up(p7, rng, lam["78"])
    lam69 = 1.0 / lam["96"]
    lam89 = 1.0 / lam["98"]
    n8 = p8.net.copy()
    q6 = p6.net
    n8[0, 3] = q6[3, 0]
    n8[0, 2] = n8[0, 3] - (q6[3, 1] - q6[3, 0]) / lam89
    n8[1, 3] = q6[3, 0] + lam69 * (q6[3, 0] - q6[2, 0])
    q9_11 = q6[3, 1] + lam69 * (q6[3, 1] - q6[2, 1])
    n8[1, 2] = n8[1, 3] - (q9_11 - n8[1, 3]) / lam89
    p8 = BezierPatch.from_net(n8)
    n9 = np.zeros((4, 4, 3))
    n9[0, :] = q6[3, :]
    n9[1, :] = n9[0, :] + lam69 * (q6[3, :] - q6[2, :])
    n9[:, 0] = p8.net[:, 3]
    n9[:, 1] = p8.net[:, 3] + lam89 * (p8.net[:, 3] - p8.net[:, 2])
    for i in (2, 3):
        step = n9[i, 1] - n9[i, 0]
        n9[i, 2] = n9[i, 1] + step + rng.normal(scale=0.05, size=3)
        n9[i, 3] = n9[i, 2] + step + rng.normal(scale=0.05, size=3)
    patches = {1: p1, 2: p2, 3: p3, 4: p4, 6: p6, 7: p7, 8: p8,
               9: BezierPatch.from_net(n9)}
    return patches, lam


def random_strips(rng, n_rows):
    """Two internally-G1 strips (constant lambda, zero kappa joins)."""
    a0 = smooth_patch(rng)
    b0 = BezierPatch.from_net(smooth_net(rng) + np.array([2.5, 0.0, 0.0]))
    strip_a, strip_b = [a0], [b0]
    for _ in range(n_rows - 1):
        strip_a.append(g1_join_up(strip_a[-1], rng, rng.uniform(0.6, 1.6)))
        strip_b.append(g1_join_up(strip_b[-1], rng, rng.uniform(0.6, 1.6)))
    return strip_a, strip_b


def rigid_motion(rng):
    """Random rotation matrix and translation vector."""
    m = rng.normal(size=(3, 3))
    q, r = np.linalg.qr(m)
    q *= np.sign(np.diag(r))
    if np.linalg.det(q) < 0:
        q[:, 0] = -q[:, 0]
    return q, rng.normal(scale=2.0, size=3)


# ---------------------------------------------------------------------------
# mixed grid document (golden check reports)

# (transpose, flip u, flip v), applied in that order; cell k gets entry k % 8
_ORIENTATIONS = tuple((s, fu, fv) for s in (False, True) for fu in (False, True)
                      for fv in (False, True))


def _reoriented_side(side, op):
    """Side of the reoriented patch that was ``side``, and whether it now runs backwards."""
    swap, fu, fv = op
    reversed_ = False
    if swap:
        side = {"u": "v", "v": "u"}[side[0]] + side[1]
    for axis, flip in (("u", fu), ("v", fv)):
        if flip:
            if side[0] == axis:
                side = axis + ("1" if side[1] == "0" else "0")
            else:
                reversed_ = not reversed_
    return side, reversed_


def _reorient_net(net, op):
    swap, fu, fv = op
    if swap:
        net = np.swapaxes(net, 0, 1)
    if fu:
        net = net[::-1]
    if fv:
        net = net[:, ::-1]
    return net.copy()


def _elevate_net(net, du, dv):
    from smoothpatch.bezier import elevation_matrix

    eu = elevation_matrix(net.shape[0] - 1, du)
    ev = elevation_matrix(net.shape[1] - 1, dv)
    return np.einsum("ai,ijc,bj->abc", eu, net, ev)


def mixed_grid_document(rng=None):
    """3x3 split of one bi-cubic with every orientation, unequal degrees and a crease.

    Cell (i, j) is named ``c{i}{j}``.  Cells are reoriented by all eight
    (transpose, flip) combinations, so edge records use every side and many
    are reversed; cell c11 is elevated to (4, 4) and c20 to (5, 3) before
    reorientation.  One control point of c00 is moved off the surface at
    distance 1 from its u1 side and 2 from its v1 side: G1 and G2 break across
    c00 ~ c10, only G2 across c00 ~ c01.
    Returns a ``SurfaceDocument``.
    """
    rng = np.random.default_rng(2010) if rng is None else rng
    g = smooth_patch(rng, span=3.0, z_scale=0.4, xy_noise=0.05)
    cells = split_grid(g, [0.3, 0.65], [0.35, 0.7])
    nets = {(i, j): cells[i][j].net.copy() for i in range(3) for j in range(3)}
    nets[0, 0][2, 1] += np.array([0.0, 0.0, 0.08])
    nets[1, 1] = _elevate_net(nets[1, 1], 4, 4)
    nets[2, 0] = _elevate_net(nets[2, 0], 5, 3)
    ops = {ij: _ORIENTATIONS[(3 * ij[0] + ij[1]) % 8] for ij in nets}
    return oriented_grid_document(nets, ops)


def oriented_grid_document(nets, ops):
    """Document of the grid cells ``nets[i, j]``, cell (i, j) reoriented by ``ops[i, j]``.

    Cell (i, j) is named ``c{i}{j}``.  Before reorientation its u1 side meets
    cell (i + 1, j) and its v1 side cell (i, j + 1); the edge records name the
    sides as they are after it.
    """
    from smoothpatch.continuity import EdgeCorrespondence
    from smoothpatch.surfio import SurfaceDocument

    patches = {f"c{i}{j}": BezierPatch.from_net(_reorient_net(nets[i, j], ops[i, j]))
               for (i, j) in sorted(nets)}
    edges = []
    for (i, j) in sorted(nets):
        for (a_side, b_side, nb) in (("u1", "u0", (i + 1, j)), ("v1", "v0", (i, j + 1))):
            if nb not in nets:
                continue
            sa, ra = _reoriented_side(a_side, ops[i, j])
            sb, rb = _reoriented_side(b_side, ops[nb])
            edges.append(EdgeCorrespondence(sa, sb, reversed=ra != rb,
                                            a=f"c{i}{j}", b=f"c{nb[0]}{nb[1]}"))
    return SurfaceDocument(patches=patches, edges=edges)


# ---------------------------------------------------------------------------
# the canonical corner arrangement by reorientation (reference for the vertex
# values that check commands read from edge records)

# roles r1..r4: the corner at the vertex, and the role of the u-neighbour
_ROLE_CORNERS = ((1, 1), (0, 1), (0, 0), (1, 0))
_U_NEIGHBOURS = (1, 0, 3, 2)
_CORNERS = ((0, 0), (0, 1), (1, 0), (1, 1))


def orient_patch(patch: BezierPatch, corner, side: str, target) -> BezierPatch:
    """Reorient ``patch`` so that ``corner`` moves to ``target`` and ``side`` becomes a u-side."""
    from smoothpatch.bezier import flip_u, flip_v, transpose_patch

    iu, jv = corner
    if side[0] == "v":
        patch, iu, jv = transpose_patch(patch), jv, iu
    if iu != target[0]:
        patch = flip_u(patch)
    if jv != target[1]:
        patch = flip_v(patch)
    return patch


def reoriented_corner(doc, names):
    """The patches ``names`` (r1..r4) of a vertex of ``doc``, reoriented into the canonical arrangement.

    Each patch's corner at V is the one nearest the corner that r1 shares
    with r3; its side toward its u-neighbour comes from the one record that
    joins the two.
    """
    p = [doc.patch(name) for name in names]
    v = min((p[0].corner(*c) for c in _CORNERS),
            key=lambda x: min(np.linalg.norm(x - p[2].corner(*c)) for c in _CORNERS))
    out = []
    for k, (name, target) in enumerate(zip(names, _ROLE_CORNERS)):
        corner = min(_CORNERS, key=lambda c: np.linalg.norm(p[k].corner(*c) - v))
        neighbour = names[_U_NEIGHBOURS[k]]
        (side,) = [c.a_side if c.a == name else c.b_side for c in doc.edges
                   if {c.a, c.b} == {name, neighbour}]
        out.append(orient_patch(p[k], corner, side, target))
    return tuple(out)


def swapped(corr):
    """The same edge record with a and b exchanged."""
    from smoothpatch.continuity import EdgeCorrespondence

    return EdgeCorrespondence(corr.b_side, corr.a_side, reversed=corr.reversed,
                              a=corr.b, b=corr.a)


def slanted_grid_nets(rng, k=3, slant=0.04):
    """Nets of a k x k split of one bi-quartic along slanted lines, as {(i, j): net}.

    As in ``quad_split_config``, the composite is one smooth surface, so
    every edge and vertex is exactly G2, and the slants make kappa, the
    derivatives of lambda and kappa, mu and nu non-zero at the vertices.
    Cell (i, j) meets cell (i + 1, j) across its u1 side and cell (i, j + 1)
    across its v1 side, as ``oriented_grid_document`` expects.
    """
    net = smooth_net(rng, 5, 5, span=1.0, z_scale=0.25, xy_noise=0.03)
    ticks = np.linspace(0.0, 1.0, k + 1)
    pts = np.stack(np.meshgrid(ticks, ticks, indexing="ij"), axis=-1)
    pts[1:-1, :, 0] += rng.uniform(-slant, slant, size=(k - 1, k + 1))
    pts[:, 1:-1, 1] += rng.uniform(-slant, slant, size=(k + 1, k - 1))
    return {(i, j): compose_with_quad(net, pts[i:i + 2, j:j + 2]).net
            for i in range(k) for j in range(k)}


# ---------------------------------------------------------------------------
# per-entry references for the array-shaped construction primitives

def product_matrix_reference(n: int, coeffs) -> np.ndarray:
    """The Bernstein product matrix filled entry by entry (Farouki & Rajan, CAGD 1988).

    Entry (i, j) is C(n, j) C(L, i - j) / C(n + L, i) * f[i - j], the
    binomials multiplied and divided as integers; entries off the band are
    +0.0.
    """
    f = np.asarray(coeffs, dtype=float)
    big_l = f.size - 1
    mat = np.zeros((n + big_l + 1, n + 1))
    for i in range(n + big_l + 1):
        for j in range(max(0, i - big_l), min(n, i) + 1):
            mat[i, j] = binom(n, j) * binom(big_l, i - j) / binom(n + big_l, i) * f[i - j]
    return mat


def assemble_reference(m: int, scale: float, sides) -> np.ndarray:
    """A construction net written and checked one control point at a time.

    Every side's boundary row, then every band, in the order the sides are
    listed.  A point whose x is NaN counts as unwritten; a later write to a
    written point must lie within 1e-9 * scale of it, or the first that does
    not raises ``CornerConsistencyError`` naming the point.
    """
    from smoothpatch.continuity import CornerConsistencyError

    net = np.full((m + 1, m + 1, 3), np.nan)
    rows = [side.rows(m) for side in sides]
    for offset, what in ((0, "boundary"), (1, "band")):
        for side, row in zip(sides, rows):
            for flat, value in zip(side.points(m, offset).tolist(), row[offset]):
                i, j = divmod(flat, m + 1)
                if np.isnan(net[i, j, 0]):
                    net[i, j] = value
                    continue
                gap = float(np.linalg.norm(net[i, j] - value))
                if gap > 1e-9 * scale:
                    raise CornerConsistencyError(
                        f"control point ({i},{j}) doubly determined with gap "
                        f"{gap / scale:.3e} ({what} across {side.side})"
                    )
    return net
