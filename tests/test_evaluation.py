"""Batched evaluation: edge jets, patch grids, the cached basis, evaluation counts, golden reports."""

import json
from collections import Counter
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import smoothpatch.continuity as continuity
import smoothpatch.surfio as surfio
from smoothpatch.bezier import (
    BezierPatch,
    _basis_matrix,
    _edge_jets,
    _eval_grids,
    _side_view,
    bernstein_basis,
    bounding_diagonal,
    patch_derivative,
    split_patch,
)
from smoothpatch.cli import find_corner_configs, main
from smoothpatch.construct import NinePatchRing, _Side, build_fillet, complete_fourth_patch
from smoothpatch.continuity import (
    SOLVE_SAMPLES,
    VERIFY_SAMPLES,
    CornerConfig,
    EdgeLink,
    check_edges,
    check_g1_edge,
    check_g2_edge,
)
from smoothpatch.surfio import SurfaceDocument, load_surface, save_surface

from helpers import (
    _ORIENTATIONS,
    _elevate_net,
    constructive_corner,
    mixed_grid_document,
    oriented_grid_document,
    quad_split_config,
    random_ring,
    random_strips,
    reoriented_corner,
    smooth_patch,
)

DATA = Path(__file__).parent / "data"
GOLDEN_DOC = DATA / "mixed_grid.json"
GOLDEN_REPORTS = DATA / "mixed_grid_reports.json"


# --- the edge evaluator -----------------------------------------------------

@pytest.mark.parametrize("degrees", [(1, 1), (2, 3), (3, 3), (5, 2), (4, 6)])
@pytest.mark.parametrize("side", ["u0", "u1", "v0", "v1"])
def test_edge_jet_matches_patch_derivative(degrees, side):
    rng = np.random.default_rng(sum(degrees))
    p = BezierPatch(*degrees, rng.normal(size=(degrees[0] + 1, degrees[1] + 1, 3)))
    q = BezierPatch(2, 2, rng.normal(size=(3, 3, 3)))  # a second degree group in the batch
    s = np.linspace(0.0, 1.0, 7)
    jets = _edge_jets([(p, side, False), (q, "u0", False), (p, side, True)], [(s, 2)])[0]
    assert set(jets) == {(0, 0), (1, 0), (0, 1), (2, 0), (1, 1), (0, 2)}
    for (k, l), values in jets.items():
        assert values.shape == (3, len(s), 3)
        # (into, along) orders -> (u, v) orders; into a far side is -u or -v
        du, dv = (k, l) if side[0] == "u" else (l, k)
        fixed = 1.0 if side[1] == "1" else 0.0
        sign = (-1.0) ** k if side[1] == "1" else 1.0
        # the reversed side runs backwards: it is read at 1 - s, along -t
        for row, params, along in ((0, s, 1.0), (2, 1.0 - s, (-1.0) ** l)):
            for x, value in zip(params, values[row]):
                u, v = (fixed, x) if side[0] == "u" else (x, fixed)
                np.testing.assert_allclose(value, sign * along * patch_derivative(p, u, v, du, dv),
                                           atol=1e-12)


def _random_patches(rng, degrees, signed_zeros):
    patches = []
    for du, dv in degrees:
        net = rng.uniform(-1.0, 1.0, size=(du + 1, dv + 1, 3))
        if signed_zeros:  # exact zeros of both signs
            net[rng.random(net.shape) < 0.3] = 0.0
            net[rng.random(net.shape) < 0.3] = -0.0
        patches.append(BezierPatch(du, dv, net))
    return patches


_SIDE_SPECS = st.tuples(st.integers(0, 3), st.sampled_from(["u0", "u1", "v0", "v1"]), st.booleans())


@settings(max_examples=60, deadline=None)
@given(degrees=st.lists(st.tuples(st.integers(1, 6), st.integers(1, 6)), min_size=1, max_size=4),
       seed=st.integers(0, 2**32 - 1), specs=st.lists(_SIDE_SPECS, min_size=1, max_size=10),
       order=st.integers(0, 2), n=st.integers(0, 9), signed_zeros=st.booleans())
def test_edge_jets_of_a_side_do_not_depend_on_its_batch(degrees, seed, specs, order, n,
                                                         signed_zeros):
    rng = np.random.default_rng(seed)
    patches = _random_patches(rng, degrees, signed_zeros)
    # the same patch may appear more than once, on any side
    sides = [(patches[i % len(patches)], side, rev) for i, side, rev in specs]
    s = rng.random(n) if n % 2 else np.linspace(0.0, 1.0, n)
    jets = _edge_jets(sides, [(s, order)])[0]
    assert len(jets) == (order + 1) * (order + 2) // 2
    for i, (p, side, rev) in enumerate(sides):
        alone = _edge_jets([(p, side, rev)], [(s, order)])[0]
        for (k, l), values in jets.items():
            # the same bits, signs of zero included
            np.testing.assert_array_equal(values[i], alone[k, l][0])
            np.testing.assert_array_equal(np.signbit(values[i]), np.signbit(alone[k, l][0]))
            du, dv = (k, l) if side[0] == "u" else (l, k)
            fixed = 1.0 if side[1] == "1" else 0.0
            # into the patch on far sides, along the shared t on reversed ones
            sign = (-1.0) ** (k * (side[1] == "1") + l * rev)
            for x, value in zip(1.0 - s if rev else s, values[i]):
                u, v = (fixed, x) if side[0] == "u" else (x, fixed)
                np.testing.assert_allclose(value, sign * patch_derivative(p, u, v, du, dv),
                                           atol=1e-12)


_REQUESTS = st.lists(st.tuples(st.integers(0, 9), st.integers(0, 2), st.booleans()),
                     min_size=1, max_size=4)


@settings(max_examples=60, deadline=None)
@given(degrees=st.lists(st.tuples(st.integers(1, 6), st.integers(1, 6)), min_size=1, max_size=4),
       seed=st.integers(0, 2**32 - 1), specs=st.lists(_SIDE_SPECS, min_size=1, max_size=10),
       requests=_REQUESTS, signed_zeros=st.booleans())
def test_each_request_of_an_edge_jets_call_equals_a_call_of_its_own(degrees, seed, specs,
                                                                    requests, signed_zeros):
    # one call differences each side's rows once, to the highest order asked
    # for; every sample set must still get the bits a call of its own gives
    rng = np.random.default_rng(seed)
    patches = _random_patches(rng, degrees, signed_zeros)
    sides = [(patches[i % len(patches)], side, rev) for i, side, rev in specs]
    sets = [(rng.random(n) if spread else np.linspace(0.0, 1.0, n), order)
            for n, order, spread in requests]
    together = _edge_jets(sides, sets)
    assert len(together) == len(sets)
    for jets, request in zip(together, sets):
        (alone,) = _edge_jets(sides, [request])
        assert set(jets) == set(alone)
        for key, values in jets.items():
            assert values.shape == alone[key].shape
            np.testing.assert_array_equal(values, alone[key])
            np.testing.assert_array_equal(np.signbit(values), np.signbit(alone[key]))


def test_edge_jet_stops_at_the_requested_order():
    p = BezierPatch(3, 3, np.random.default_rng(1).normal(size=(4, 4, 3)))
    s = np.linspace(0.0, 1.0, 5)
    assert set(_edge_jets([(p, "v1", False)], [(s, 0)])[0]) == {(0, 0)}
    assert set(_edge_jets([(p, "v1", False)], [(s, 1)])[0]) == {(0, 0), (1, 0), (0, 1)}


@settings(max_examples=80, deadline=None)
@given(degrees=st.tuples(st.integers(1, 6), st.integers(1, 6)),
       side=st.sampled_from(["u0", "u1", "v0", "v1"]), rev=st.booleans())
def test_side_view_and_side_points_follow_the_index_formulas(degrees, side, rev):
    # explicit index formulas are the reference for the view and the join points
    n, m = degrees
    net = np.arange((n + 1) * (m + 1) * 3, dtype=float).reshape(n + 1, m + 1, 3)
    view = _side_view(net, side, rev)
    across, along = (n, m) if side[0] == "u" else (m, n)
    assert view.shape == (across + 1, along + 1, 3) and np.shares_memory(view, net)
    for k in range(across + 1):
        i = k if side[1] == "0" else across - k  # k rows in from the side
        for t in range(along + 1):
            j = along - t if rev else t  # t runs backwards on a reversed side
            np.testing.assert_array_equal(view[k, t], net[i, j] if side[0] == "u" else net[j, i])
    # a new (n, n) patch joined across the neighbour's side lies beyond it; its
    # row's points are flat net indices (n+1)*i + j
    for offset in range(n + 1):
        k = offset if side[1] == "1" else n - offset
        want = [(n + 1) * k + t if side[0] == "u" else (n + 1) * t + k for t in range(n + 1)]
        assert _Side(None, side, None, None).points(n, offset).tolist() == want


def test_basis_matrix_is_cached_and_read_only():
    t = np.linspace(0.0, 1.0, 13)
    first = _basis_matrix(4, t.tobytes())
    assert _basis_matrix(4, t.copy().tobytes()) is first  # keyed by the samples' bytes
    np.testing.assert_array_equal(first, bernstein_basis(4, t))
    assert not first.flags.writeable
    with pytest.raises(ValueError):
        first[0, 0] = 2.0
    t[3] = 0.5  # mutating the caller's samples does not reach the cached matrix
    assert _basis_matrix(4, np.linspace(0.0, 1.0, 13).tobytes()) is first
    assert _basis_matrix(4, t.tobytes()) is not first
    assert _basis_matrix.cache_info().maxsize is not None


# --- the grid evaluator -----------------------------------------------------

def _einsum_grid(p, us, vs):
    """The per-patch reference: one einsum over the Bernstein bases and the net."""
    bu, bv = bernstein_basis(p.degree_u, us), bernstein_basis(p.degree_v, vs)
    return np.einsum("ai,ijc,bj->abc", bu, p.net, bv)


def _bits(a):
    return np.asarray(a).view(np.int64)


_GRID_SAMPLES = st.lists(st.floats(0.0, 1.0), min_size=1, max_size=30)


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 2**32 - 1),
       st.lists(st.tuples(st.integers(1, 6), st.integers(1, 6)), min_size=1, max_size=6),
       _GRID_SAMPLES, _GRID_SAMPLES)
def test_grid_evaluator_matches_a_per_patch_einsum_bit_for_bit(seed, degrees, us, vs):
    rng = np.random.default_rng(seed)
    patches = []
    for n, m in degrees:
        net = rng.normal(size=(n + 1, m + 1, 3)) * 10.0 ** rng.integers(-3, 4)
        net[rng.random(net.shape) < 0.25] = -0.0
        patches.append(BezierPatch(n, m, net))
    grids = _eval_grids(patches, us, vs)
    assert grids.shape == (len(patches), len(us), len(vs), 3)
    for p, grid in zip(patches, grids):
        np.testing.assert_array_equal(_bits(grid), _bits(_einsum_grid(p, np.array(us), np.array(vs))))


def test_a_patch_grid_does_not_depend_on_its_batch():
    rng = np.random.default_rng(12)
    patches = [BezierPatch(n, m, rng.normal(size=(n + 1, m + 1, 3)))
               for n, m in [(3, 3), (2, 5), (3, 3), (6, 1), (2, 5), (3, 3)]]
    us, vs = np.linspace(0.0, 1.0, 9), rng.random(4)
    grids = _eval_grids(patches, us, vs)
    backwards = _eval_grids(patches[::-1], us, vs)[::-1]
    for k, p in enumerate(patches):
        np.testing.assert_array_equal(_bits(_eval_grids([p], us, vs)[0]), _bits(grids[k]))
        np.testing.assert_array_equal(_bits(backwards[k]), _bits(grids[k]))
        np.testing.assert_array_equal(_bits(_eval_grids(patches[k:k + 2], us, vs)[0]), _bits(grids[k]))


# --- evaluation counts ----------------------------------------------------------

@pytest.fixture
def jet_calls(monkeypatch):
    """Record each call of the side evaluator in continuity: per request, sides, samples, order.

    A call is recorded as a list with one (sides, samples, order) entry per
    sample set.  A side is recorded as (patch id, side, bytes of the samples
    it is read at), so a reversed side counts at ``1 - t``.
    """
    calls = []

    def counting(sides, requests):
        record = []
        for t, order in requests:
            t = np.asarray(t, dtype=float)
            record.append(([(id(p), side, (1.0 - t if rev else t).tobytes())
                            for p, side, rev in sides], len(t), order))
        calls.append(record)
        return _edge_jets(sides, requests)

    monkeypatch.setattr(continuity, "_edge_jets", counting)
    return calls


def _edge_cases():
    doc = mixed_grid_document()
    return [(doc.patch(c.a), doc.patch(c.b), c) for c in doc.edges]


def _once_per_side_and_sample_set(calls):
    per_key = Counter(side for call in calls for sides, *_ in call for side in sides)
    return all(n == 1 for n in per_key.values())


def _sides(calls):
    return sum(len(sides) for call in calls for sides, *_ in call)


def _sample_sets(calls):
    """Per call, the (samples, order) of each of its requests, in order."""
    return [[(n, order) for _, n, order in call] for call in calls]


def test_check_g2_edge_evaluates_each_side_once_per_sample_set(jet_calls):
    for a, b, corr in _edge_cases():
        jet_calls.clear()
        check_g2_edge(a, b, corr)
        assert _once_per_side_and_sample_set(jet_calls)
        # one call, whose two sample sets each read both sides
        assert _sample_sets(jet_calls) == [[(SOLVE_SAMPLES, 2), (VERIFY_SAMPLES, 1)]]
        assert [len(sides) for sides, *_ in jet_calls[0]] == [2, 2]
    jet_calls.clear()
    check_edges(_edge_cases(), 2)  # the batch: one call for both sample sets
    assert _once_per_side_and_sample_set(jet_calls)
    assert _sample_sets(jet_calls) == [[(SOLVE_SAMPLES, 2), (VERIFY_SAMPLES, 1)]]
    assert [len(sides) for sides, *_ in jet_calls[0]] == [2 * len(_edge_cases())] * 2


def test_check_g1_edge_never_asks_for_second_order(jet_calls):
    for a, b, corr in _edge_cases():
        jet_calls.clear()
        check_g1_edge(a, b, corr)
        assert _once_per_side_and_sample_set(jet_calls)
        assert _sample_sets(jet_calls) == [[(SOLVE_SAMPLES, 1), (VERIFY_SAMPLES, 1)]]
        assert [len(sides) for sides, *_ in jet_calls[0]] == [2, 2]
    jet_calls.clear()
    check_edges(_edge_cases(), 1)
    assert _once_per_side_and_sample_set(jet_calls)
    assert _sample_sets(jet_calls) == [[(SOLVE_SAMPLES, 1), (VERIFY_SAMPLES, 1)]]
    assert [len(sides) for sides, *_ in jet_calls[0]] == [2 * len(_edge_cases())] * 2


def test_corner_config_from_patches_evaluates_each_side_once(jet_calls):
    for seed in range(3):
        _, p1, p2, p3, p4 = quad_split_config(np.random.default_rng(seed))
        jet_calls.clear()
        config = CornerConfig.from_patches(p1, p2, p3, p4)
        assert len(jet_calls) == 1 and _sides(jet_calls) == 8
        assert _once_per_side_and_sample_set(jet_calls)
        assert _sample_sets(jet_calls) == [[(SOLVE_SAMPLES, 2)]]
        jet_calls.clear()
        assert config.solve_g2() is config and jet_calls == []


def test_links_of_a_batch_are_read_only_views_of_its_arrays(monkeypatch):
    batches = []

    class Recorded(continuity._LinkBatch):
        def __init__(self, *args):
            super().__init__(*args)
            batches.append(self)

    monkeypatch.setattr(continuity, "_LinkBatch", Recorded)
    reports = check_edges(_edge_cases(), 2)
    (batch,) = batches
    second = reports[0].link.mu_samples.base  # mu, nu of every link: one array
    for e, report in enumerate(reports):
        link = report.link
        for name, whole in (("lam_samples", batch.lam), ("kap_samples", batch.kap),
                            ("oop", batch.oop), ("mu_samples", second),
                            ("nu_samples", second)):
            arr = getattr(link, name)
            assert np.shares_memory(arr, whole), name
            for target in (arr, arr.base):
                with pytest.raises(ValueError):
                    target[0] = 1.0
        np.testing.assert_array_equal(link.lam_samples, batch.lam[e])
    g2_oop = reports[0].link.g2_oop.base
    assert all(np.shares_memory(r.link.g2_oop, g2_oop) for r in reports)
    # a writeable array is copied, so a later write to it cannot reach the link
    ts = np.linspace(0.0, 1.0, 3)
    link = EdgeLink(ts=ts, lam_samples=np.ones(3), kap_samples=np.zeros(3), oop=np.zeros(3),
                    scale=1.0)
    assert not np.shares_memory(link.ts, ts) and not link.ts.flags.writeable
    ts[0] = 5.0
    assert link.ts[0] == 0.0


@pytest.mark.parametrize("order", [1, 2])
def test_check_edges_builds_one_link_per_edge(monkeypatch, order):
    built = []
    real = continuity.EdgeLink
    monkeypatch.setattr(continuity, "EdgeLink", lambda **kw: built.append(kw) or real(**kw))
    reports = check_edges(_edge_cases(), order)
    assert len(built) == len(reports)
    # a G2 report and its G1 sub-report share the link, which carries mu and nu
    assert all(r.g1 is None or r.g1.link is r.link for r in reports)
    assert all((r.link.mu_samples is None) == (order == 1) for r in reports)


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 2**32 - 1), st.floats(1.0, 30.0), st.floats(-3.0, 3.0))
def test_closed_form_solve_matches_lapack_and_is_read_only(seed, cond, log_size):
    # tangent bases of condition number at most `cond`, at any scale, and
    # right-hand sides with a part off the basis
    rng = np.random.default_rng(seed)
    shape, size = (4, 5), 10.0**log_size
    u, _ = np.linalg.qr(rng.standard_normal(shape + (3, 2)))
    v, _ = np.linalg.qr(rng.standard_normal(shape + (2, 2)))
    s = size * np.stack([np.ones(shape), 1.0 / rng.uniform(1.0, cond, shape)], axis=-1)
    e_w, e_t = np.moveaxis((u * s[..., None, :]) @ np.swapaxes(v, -1, -2), -1, 0)
    rhs = size * rng.standard_normal(shape + (3,))
    xy, oop = continuity._solve(continuity._dual(e_w, e_t, np.cross(e_w, e_t)), rhs, 2.0)
    basis = np.stack([e_w, e_t], axis=-1)
    gram = np.swapaxes(basis, -1, -2) @ basis
    want = np.linalg.solve(gram, np.swapaxes(basis, -1, -2) @ rhs[..., None])[..., 0]
    err = np.linalg.norm(xy - want, axis=-1) / np.linalg.norm(want, axis=-1)
    assert err.max() <= 1e-12
    off = np.linalg.norm(rhs - (basis @ want[..., None])[..., 0], axis=-1) / 2.0
    np.testing.assert_allclose(oop, off, rtol=1e-12, atol=1e-12 * size)
    assert not xy.flags.writeable and not oop.flags.writeable


_COORDINATES = st.one_of(st.sampled_from([0.0, -0.0, 1.0, -1.0]),
                         st.floats(-1e150, 1e150, allow_nan=False))


@settings(max_examples=100, deadline=None)
@given(x=st.lists(_COORDINATES, min_size=6, max_size=6),
       y=st.lists(_COORDINATES, min_size=3, max_size=3))
def test_private_cross_is_np_cross_bit_for_bit(x, y):
    # broadcast a (2, 3) stack against one vector, as the oracles do
    x, y = np.reshape(x, (2, 3)), np.array(y)
    for a, b in ((x, y), (y, x), (x, x[::-1])):
        np.testing.assert_array_equal(continuity._cross(a, b).view(np.int64),
                                      np.cross(a, b).view(np.int64))


def test_stacked_normal_curvature_equals_one_direction_at_a_time():
    rng = np.random.default_rng(81)
    pairs = [(smooth_patch(rng), smooth_patch(rng), continuity.EdgeCorrespondence(a, b))
             for a, b in (("u1", "u0"), ("v0", "v1"), ("u0", "v1"))]
    (f,) = continuity._frames(pairs, [(np.linspace(0.0, 1.0, 7), 2)])
    n = np.cross(f["w"][0], f["t"][0])
    n /= np.linalg.norm(n, axis=-1)[..., None]
    frame = (f["w"], f["t"], f["ww"], f["wt"], f["tt"])
    directions = [f["w"][0], f["t"][0], f["w"][0] + 0.5 * f["t"][1]]
    stacked = continuity.normal_curvature(*frame, np.stack(directions)[:, None], n)
    assert stacked.shape == (3, 2, 3, 7)
    for got, direction in zip(stacked, directions):
        np.testing.assert_allclose(got, continuity.normal_curvature(*frame, direction, n),
                                   rtol=1e-12, atol=0.0)


@pytest.mark.parametrize("doc", [GOLDEN_DOC, None], ids=["stored", "built"])
def test_batch_scales_are_the_bounding_diagonals_bit_for_bit(doc):
    doc = load_surface(doc) if doc else mixed_grid_document()
    pairs = [(doc.patch(c.a), doc.patch(c.b), c) for c in doc.edges]
    boxes = [np.concatenate([a.net.reshape(-1, 3), b.net.reshape(-1, 3)]) for a, b, _ in pairs]
    want = [float(np.linalg.norm(pts.max(axis=0) - pts.min(axis=0))) for pts in boxes]
    assert continuity._LinkBatch(pairs, 1).scale.tolist() == want
    assert [bounding_diagonal(a, b) for a, b, _ in pairs] == want


def _two_copies(doc):
    """Two disjoint copies of ``doc``: the patches of the second get a ``'`` suffix."""
    patches = dict(doc.patches)
    patches.update({f"{name}'": p for name, p in doc.patches.items()})
    edges = list(doc.edges) + [replace(c, a=f"{c.a}'", b=f"{c.b}'") for c in doc.edges]
    return SurfaceDocument(patches=patches, edges=edges)


@pytest.mark.parametrize("command", ["check-g1", "check-g2"])
def test_evaluator_calls_per_check_do_not_grow_with_the_edge_count(jet_calls, tmp_path, capsys,
                                                                   command):
    double = tmp_path / "double.json"
    save_surface(_two_copies(load_surface(GOLDEN_DOC)), double)
    counts = []
    for path in (GOLDEN_DOC, double):
        jet_calls.clear()
        main([command, str(path)])
        counts.append((len(jet_calls), _sides(jet_calls)))
    capsys.readouterr()
    (calls_one, sides_one), (calls_two, sides_two) = counts
    # one call for the solve and the verify sample sets, each side of each
    # record once per set: the vertices solve nothing
    assert calls_one == calls_two == 1
    assert sides_one == 4 * len(load_surface(GOLDEN_DOC).edges) and sides_two == 2 * sides_one


def test_constructions_read_their_joins_in_one_evaluator_call(jet_calls):
    rng = np.random.default_rng(41)
    complete_fourth_patch(*constructive_corner(rng)[:3])
    assert _sides(jet_calls) == 4 and len(jet_calls) == 1  # its 2 corner joins
    assert _sample_sets(jet_calls) == [[(SOLVE_SAMPLES, 1)]]
    jet_calls.clear()
    NinePatchRing.from_patches(random_ring(rng)[0])
    assert _sides(jet_calls) == 16 and len(jet_calls) == 1  # the 8 ring joins
    assert _sample_sets(jet_calls) == [[(SOLVE_SAMPLES, 1)]]
    jet_calls.clear()
    build_fillet(*random_strips(rng, 4))
    # both strips' 3 + 3 internal joins, read once: the rings of rows 1 and 3 solve none
    assert _sides(jet_calls) == 12 and len(jet_calls) == 1
    assert _once_per_side_and_sample_set(jet_calls)
    assert _sample_sets(jet_calls) == [[(SOLVE_SAMPLES, 1)]]


def test_export_evaluates_the_whole_document_in_one_call(monkeypatch, tmp_path, capsys):
    calls = []

    def counting(patches, us, vs):
        calls.append(len(patches))
        return _eval_grids(patches, us, vs)

    monkeypatch.setattr(surfio, "_eval_grids", counting)
    double = tmp_path / "double.json"
    save_surface(_two_copies(load_surface(GOLDEN_DOC)), double)
    counts = []
    for path in (GOLDEN_DOC, double):
        calls.clear()
        assert main(["export", str(path), "--obj", str(tmp_path / "out.obj"), "--samples", "4,3"]) == 0
        counts.append(list(calls))
    capsys.readouterr()
    n = len(load_surface(GOLDEN_DOC).patches)
    assert counts == [[n], [2 * n]]


# --- batched checks: each edge as if alone ------------------------------------------

def _split_edge(spec, k):
    """One edge between the halves of a split smooth patch, elevated and reoriented.

    ``spec`` is (seed, split direction, base degrees, elevation of each half,
    orientation index of each half); the halves reach bi-degrees up to (6, 6)
    and every side pair, reversed or not.  Names carry ``k`` so that edges stay
    distinct in one batch.
    """
    seed, direction, (du, dv), (ea_u, ea_v), (eb_u, eb_v), oa, ob = spec
    g = smooth_patch(np.random.default_rng(seed), du, dv, span=2.0, z_scale=0.3)
    low, high = split_patch(g, **{direction: 0.4})
    other = (1, 0) if direction == "u" else (0, 1)
    nets = {(0, 0): _elevate_net(low.net, du + ea_u, dv + ea_v),
            other: _elevate_net(high.net, du + eb_u, dv + eb_v)}
    doc = oriented_grid_document(nets, {(0, 0): _ORIENTATIONS[oa], other: _ORIENTATIONS[ob]})
    (corr,) = doc.edges
    return doc.patch(corr.a), doc.patch(corr.b), replace(corr, a=f"{corr.a}.{k}", b=f"{corr.b}.{k}")


def _assert_same_report(got, want):
    for name in ("order", "link_ok", "oracle_ok", "ok"):
        assert getattr(got, name) == getattr(want, name), name
    for name in ("link_residual", "oracle_residual"):
        assert abs(getattr(got, name) - getattr(want, name)) <= 1e-12, name
    assert abs(got.link.scale - want.link.scale) <= 1e-12
    for name in ("lam_samples", "kap_samples", "oop", "mu_samples", "nu_samples", "g2_oop"):
        g, w = getattr(got.link, name), getattr(want.link, name)
        assert (g is None) == (w is None), name
        if w is not None:
            np.testing.assert_allclose(g, w, rtol=0.0, atol=1e-12, err_msg=name)
    assert (got.g1 is None) == (want.g1 is None)
    if want.g1 is not None:
        _assert_same_report(got.g1, want.g1)


_EDGE_SPECS = st.tuples(
    st.integers(0, 2**32 - 1), st.sampled_from("uv"),
    st.tuples(st.integers(1, 3), st.integers(1, 3)),
    st.tuples(st.integers(0, 3), st.integers(0, 3)),
    st.tuples(st.integers(0, 3), st.integers(0, 3)),
    st.integers(0, 7), st.integers(0, 7),
)


@settings(max_examples=30, deadline=None)
@given(specs=st.lists(_EDGE_SPECS, min_size=1, max_size=6), order=st.sampled_from((1, 2)),
       data=st.data())
def test_batched_edge_reports_equal_batch_of_one_under_any_order(specs, order, data):
    edges = [_split_edge(spec, k) for k, spec in enumerate(specs)]
    batch = check_edges(edges, order)
    for edge, got in zip(edges, batch):
        _assert_same_report(got, check_edges([edge], order)[0])
    perm = data.draw(st.permutations(range(len(edges))))
    for k, got in zip(perm, check_edges([edges[k] for k in perm], order)):
        _assert_same_report(got, batch[k])


def test_one_batch_of_every_side_pair_reversal_and_degree_group():
    edges = [_split_edge((k, "uv"[k % 2], (1 + k % 3, 1 + k // 3 % 3), (k % 4, k // 4 % 4),
                          (k // 2 % 4, k // 8 % 4), k % 8, k // 8), k) for k in range(64)]
    assert len({(c.a_side, c.b_side) for *_, c in edges}) == 16
    assert {c.reversed for *_, c in edges} == {False, True}
    degrees = {(p.degree_u, p.degree_v) for a, b, _ in edges for p in (a, b)}
    assert {d for pair in degrees for d in pair} == set(range(1, 7))
    for order in (1, 2):
        batch = check_edges(edges, order)
        assert all(rep.ok for rep in batch)
        for edge, got in zip(edges, batch):
            _assert_same_report(got, check_edges([edge], order)[0])


@pytest.mark.parametrize("order", [1, 2])
def test_batched_corner_configs_equal_one_corner_at_a_time(order):
    # the corners of two different documents, read from one batch of records,
    # against from_patches of each corner's patches reoriented alone
    first, second = mixed_grid_document(), mixed_grid_document(np.random.default_rng(5))
    doc = SurfaceDocument(
        patches={**first.patches, **{f"{name}'": p for name, p in second.patches.items()}},
        edges=list(first.edges) + [replace(c, a=f"{c.a}'", b=f"{c.b}'") for c in second.edges])
    reports = check_edges([(doc.patch(c.a), doc.patch(c.b), c) for c in doc.edges], order)
    found = find_corner_configs(doc, reports)
    assert len(found) == 8
    for names, got in found:
        want = CornerConfig.from_patches(*reoriented_corner(doc, names)).values
        assert list(got.values) == list(want)
        for key, entry in got.values.items():
            assert list(entry) == list(want[key])[:2 if order == 1 else 6]
            np.testing.assert_allclose(list(entry.values()), [want[key][n] for n in entry],
                                       rtol=0.0, atol=1e-12)


@pytest.fixture
def lapack_calls(monkeypatch):
    """Count the least-squares fits and the LAPACK solves, wherever they are called from."""
    calls = []

    def counting(name, function):
        def call(*args, **kwargs):
            calls.append((name, args[0].shape))
            return function(*args, **kwargs)
        return call

    for name in ("lstsq", "solve"):
        monkeypatch.setattr(np.linalg, name, counting(name, getattr(np.linalg, name)))
    return calls


@pytest.mark.parametrize("command", ["check-g1", "check-g2"])
def test_checks_fit_no_link_function(lapack_calls, capsys, command):
    # the 2x2 link systems are solved in closed form
    main([command, str(GOLDEN_DOC)])
    capsys.readouterr()
    assert lapack_calls == []


# --- golden reports ---------------------------------------------------------------

def test_mixed_grid_fixture_is_the_stored_document(tmp_path):
    path = tmp_path / "mixed_grid.json"
    save_surface(mixed_grid_document(), path)
    assert path.read_bytes() == GOLDEN_DOC.read_bytes()


def _assert_close(got, want, where=""):
    if isinstance(want, dict):
        assert list(got) == list(want), where
        for key in want:
            _assert_close(got[key], want[key], f"{where}.{key}")
    elif isinstance(want, list):
        assert len(got) == len(want), where
        for k, (g, w) in enumerate(zip(got, want)):
            _assert_close(g, w, f"{where}[{k}]")
    elif isinstance(want, float):
        assert isinstance(got, float) and abs(got - want) <= 1e-12, (where, got, want)
    else:
        assert got == want and type(got) is type(want), (where, got, want)


@pytest.mark.parametrize("command", ["check-g1", "check-g2"])
def test_mixed_grid_reports_match_golden(tmp_path, capsys, command):
    # reversed edges, all eight orientations, unequal degrees and one crease;
    # the edge rows were captured before the edge evaluation was shared, the
    # vertex rows when vertex values came to be read from the samples at V
    golden = json.loads(GOLDEN_REPORTS.read_text())[command]
    report_path = tmp_path / "report.json"
    assert main([command, str(GOLDEN_DOC), "--report", str(report_path)]) == golden["exit_code"]
    capsys.readouterr()
    report = json.loads(report_path.read_text())
    assert report.pop("surface") == str(GOLDEN_DOC)
    _assert_close(report, golden["report"])
    assert len(load_surface(GOLDEN_DOC).edges) == len(report["edges"]) == 12
