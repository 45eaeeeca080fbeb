"""Bezier arithmetic of the benchmark's own, independent of smoothpatch.

The benchmark builds its inputs and checks the program's outputs with these
few numpy routines, so a defect in the program cannot make a wrong result
look right.  Nets have shape (degree_u + 1, degree_v + 1, 3), as in the
surface document schema.
"""

from __future__ import annotations

import math

import numpy as np

# Eight reorientations (transpose, flip u, flip v), applied in that order.
ORIENTATIONS = tuple((swap, fu, fv) for swap in (False, True) for fu in (False, True)
                     for fv in (False, True))


def bernstein(n: int, t) -> np.ndarray:
    """Bernstein basis of degree n at parameters t; shape (len(t), n + 1)."""
    t = np.asarray(t, dtype=float)[:, None]
    i = np.arange(n + 1)
    coeff = np.array([math.comb(n, k) for k in range(n + 1)], dtype=float)
    return coeff * t**i * (1.0 - t) ** (n - i)


def evaluate(net: np.ndarray, us, vs) -> np.ndarray:
    """Points on the tensor grid us x vs; shape (len(us), len(vs), 3)."""
    bu = bernstein(net.shape[0] - 1, us)
    bv = bernstein(net.shape[1] - 1, vs)
    return np.einsum("ai,ijc,bj->abc", bu, net, bv)


def hodograph(net: np.ndarray, axis: int) -> np.ndarray:
    """Difference net of the first partial derivative along axis 0 (u) or 1 (v)."""
    n = net.shape[axis] - 1
    return n * np.diff(net, axis=axis)


def split(net: np.ndarray, t: float, axis: int):
    """De Casteljau subdivision at t along one axis; returns (low, high)."""
    pts = np.moveaxis(net, axis, 0)
    low, high = [pts[0]], [pts[-1]]
    for _ in range(pts.shape[0] - 1):
        pts = (1.0 - t) * pts[:-1] + t * pts[1:]
        low.append(pts[0])
        high.append(pts[-1])
    return (np.moveaxis(np.stack(low), 0, axis),
            np.moveaxis(np.stack(high[::-1]), 0, axis))


def split_grid(net: np.ndarray, u_breaks, v_breaks):
    """Cells of a split at increasing breaks; cells[i][j] is u-cell i, v-cell j."""

    def split_1d(piece, breaks, axis):
        out, lo = [], 0.0
        for b in breaks:
            left, piece = split(piece, (b - lo) / (1.0 - lo), axis)
            out.append(left)
            lo = b
        out.append(piece)
        return out

    return [split_1d(col, v_breaks, 1) for col in split_1d(net, u_breaks, 0)]


def elevate(net: np.ndarray, degree: int) -> np.ndarray:
    """Raise both degrees of a net to ``degree`` exactly."""
    for axis in (0, 1):
        pts = np.moveaxis(net, axis, 0)
        while pts.shape[0] - 1 < degree:
            n = pts.shape[0] - 1
            i = np.arange(1, n + 1)[:, None, None] / (n + 1)
            pts = np.concatenate([pts[:1], i * pts[:-1] + (1 - i) * pts[1:], pts[-1:]])
        net = np.moveaxis(pts, 0, axis)
    return net


def reorient(net: np.ndarray, op) -> np.ndarray:
    swap, fu, fv = op
    if swap:
        net = np.swapaxes(net, 0, 1)
    if fu:
        net = net[::-1]
    if fv:
        net = net[:, ::-1]
    return np.ascontiguousarray(net)


def reoriented_side(side: str, op):
    """Where a side of the original net lies after ``reorient(net, op)``.

    Returns (new side, whether its edge parameter now runs backwards).
    """
    swap, fu, fv = op
    backwards = False
    if swap:
        side = {"u0": "v0", "u1": "v1", "v0": "u0", "v1": "u1"}[side]
    if fu:
        if side[0] == "u":
            side = "u1" if side == "u0" else "u0"
        else:
            backwards = not backwards
    if fv:
        if side[0] == "v":
            side = "v1" if side == "v0" else "v0"
        else:
            backwards = not backwards
    return side, backwards


def _side_params(side: str, s: np.ndarray):
    fixed = 0.0 if side.endswith("0") else 1.0
    return ([fixed], s) if side[0] == "u" else (s, [fixed])


def _on_side(net: np.ndarray, side: str, s: np.ndarray) -> np.ndarray:
    us, vs = _side_params(side, s)
    grid = evaluate(net, us, vs)
    return grid[0] if side[0] == "u" else grid[:, 0]


def edge_joint(net_a, side_a, net_b, side_b, reversed_, n: int = 65):
    """G0 gap (over the joint net diagonal) and largest normal-line angle.

    Samples the shared edge at n parameters of patch a; patch b's edge
    parameter runs backwards when ``reversed_``.
    """
    t = np.linspace(0.0, 1.0, n)
    tb = 1.0 - t if reversed_ else t
    pa, pb = _on_side(net_a, side_a, t), _on_side(net_b, side_b, tb)
    pts = np.concatenate([net_a.reshape(-1, 3), net_b.reshape(-1, 3)])
    diag = float(np.linalg.norm(pts.max(axis=0) - pts.min(axis=0))) or 1.0
    gap = float(np.max(np.linalg.norm(pa - pb, axis=1))) / diag

    def normals(net, side, s):
        du = _on_side(hodograph(net, 0), side, s)
        dv = _on_side(hodograph(net, 1), side, s)
        nrm = np.cross(du, dv)
        return nrm / np.linalg.norm(nrm, axis=1, keepdims=True)

    na, nb = normals(net_a, side_a, t), normals(net_b, side_b, tb)
    sin = np.linalg.norm(np.cross(na, nb), axis=1)
    cos = np.abs(np.einsum("ij,ij->i", na, nb))
    return gap, float(np.max(np.arctan2(sin, cos)))
