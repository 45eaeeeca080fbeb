"""Shared edge evaluation: the edge jet, the cached basis, evaluation counts, golden reports."""

import json
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

import smoothpatch.continuity as continuity
from smoothpatch.bezier import (
    BezierPatch,
    _basis_matrix,
    _cached_basis,
    _edge_jet,
    bernstein_basis,
    patch_derivative,
)
from smoothpatch.cli import find_corner_configs, main
from smoothpatch.continuity import (
    SOLVE_SAMPLES,
    VERIFY_SAMPLES,
    CornerConfig,
    check_g1_edge,
    check_g2_edge,
)
from smoothpatch.surfio import load_surface, save_surface

from helpers import mixed_grid_document

DATA = Path(__file__).parent / "data"
GOLDEN_DOC = DATA / "mixed_grid.json"
GOLDEN_REPORTS = DATA / "mixed_grid_reports.json"


# --- the edge evaluator -----------------------------------------------------

@pytest.mark.parametrize("degrees", [(1, 1), (2, 3), (3, 3), (5, 2), (4, 6)])
@pytest.mark.parametrize("side", ["u0", "u1", "v0", "v1"])
def test_edge_jet_matches_patch_derivative(degrees, side):
    rng = np.random.default_rng(sum(degrees))
    p = BezierPatch(*degrees, rng.normal(size=(degrees[0] + 1, degrees[1] + 1, 3)))
    s = np.linspace(0.0, 1.0, 7)
    jet = _edge_jet(p, side, s, 2)
    assert set(jet) == {(0, 0), (1, 0), (0, 1), (2, 0), (1, 1), (0, 2)}
    for (k, l), values in jet.items():
        # (cross, along) orders -> (u, v) orders
        du, dv = (k, l) if side[0] == "u" else (l, k)
        fixed = 1.0 if side[1] == "1" else 0.0
        for x, value in zip(s, values):
            u, v = (fixed, x) if side[0] == "u" else (x, fixed)
            np.testing.assert_allclose(value, patch_derivative(p, u, v, du, dv), atol=1e-12)


def test_edge_jet_stops_at_the_requested_order():
    p = BezierPatch(3, 3, np.random.default_rng(1).normal(size=(4, 4, 3)))
    s = np.linspace(0.0, 1.0, 5)
    assert set(_edge_jet(p, "v1", s, 0)) == {(0, 0)}
    assert set(_edge_jet(p, "v1", s, 1)) == {(0, 0), (1, 0), (0, 1)}


def test_basis_matrix_is_cached_and_read_only():
    t = np.linspace(0.0, 1.0, 13)
    first = _basis_matrix(4, t)
    assert _basis_matrix(4, t.copy()) is first  # keyed by the samples, not the array
    np.testing.assert_array_equal(first, bernstein_basis(4, t))
    assert not first.flags.writeable
    with pytest.raises(ValueError):
        first[0, 0] = 2.0
    t[3] = 0.5  # mutating the caller's samples does not reach the cached matrix
    assert _basis_matrix(4, np.linspace(0.0, 1.0, 13)) is first
    assert _basis_matrix(4, t) is not first
    assert _cached_basis.cache_info().maxsize is not None


# --- evaluation counts ----------------------------------------------------------

@pytest.fixture
def jet_calls(monkeypatch):
    """Record (patch, side, samples, order) of every edge evaluation in continuity."""
    calls = []

    def counting(p, side, s, order):
        calls.append((id(p), side, len(s), np.asarray(s).tobytes(), order))
        return _edge_jet(p, side, s, order)

    monkeypatch.setattr(continuity, "_edge_jet", counting)
    return calls


def _edge_cases():
    doc = mixed_grid_document()
    return [(doc.patch(c.a), doc.patch(c.b), c) for c in doc.edges]


def _once_per_side_and_sample_set(calls):
    per_key = Counter(call[:4] for call in calls)
    return all(n == 1 for n in per_key.values())


def test_check_g2_edge_evaluates_each_side_once_per_sample_set(jet_calls):
    for a, b, corr in _edge_cases():
        jet_calls.clear()
        check_g2_edge(a, b, corr)
        assert _once_per_side_and_sample_set(jet_calls)
        orders = {(n, order) for _, _, n, _, order in jet_calls}
        assert orders == {(SOLVE_SAMPLES, 2), (VERIFY_SAMPLES, 1)}
        assert len(jet_calls) == 4


def test_check_g1_edge_never_asks_for_second_order(jet_calls):
    for a, b, corr in _edge_cases():
        jet_calls.clear()
        check_g1_edge(a, b, corr)
        assert _once_per_side_and_sample_set(jet_calls)
        assert {order for *_, order in jet_calls} == {1}
        assert len(jet_calls) == 4


def test_corner_config_solve_g2_reuses_the_link_frames(jet_calls):
    configs = find_corner_configs(mixed_grid_document())
    assert len(configs) == 4
    for _, config in configs:
        jet_calls.clear()
        config.solve_g2()
        assert jet_calls == []
        jet_calls.clear()
        CornerConfig.from_patches(config.p1, config.p2, config.p3, config.p4)
        assert len(jet_calls) == 8 and _once_per_side_and_sample_set(jet_calls)


@pytest.fixture
def lstsq_calls(monkeypatch):
    """Count the least-squares fits, wherever they are called from."""
    calls = []
    lstsq = np.linalg.lstsq

    def counting(*args, **kwargs):
        calls.append(args[0].shape)
        return lstsq(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "lstsq", counting)
    return calls


@pytest.mark.parametrize("command", ["check-g1", "check-g2"])
def test_checks_fit_no_link_function(lstsq_calls, capsys, command):
    main([command, str(GOLDEN_DOC)])
    capsys.readouterr()
    assert lstsq_calls == []


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
