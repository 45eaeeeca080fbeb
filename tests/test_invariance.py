"""Edge verdicts do not depend on how a surface is parametrized, placed or written.

The paper's conditions are independent of the parametrization, so splitting
both patches of a join at the same edge parameter, elevating a patch's
degree, storing the patches in any of the eight orientations with records
either way round, and moving the document rigidly with a uniform scale must
leave every edge verdict as it was.  Sampled oracles can tip near a
tolerance, so the documents are drawn far from every tolerance: the split
grid passes by orders of magnitude (its residuals are round-off), and the
seeded defects fail by orders of magnitude (a control point moved by 5% of
the cell's size).  ``_margins`` asserts both on the untransformed documents.

The bench's grid documents, built by ``bench/inputs.grid_doc``, also give
the same check bytes when scaled by any power of two, as the golden
document does (``test_robustness``).
"""

import functools
import json
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from smoothpatch.bezier import BezierPatch, elevation_matrix, split_patch, transform_patch
from smoothpatch.continuity import G1_TOL, G2_TOL, NORMAL_ANGLE_TOL, check_edges

from helpers import (
    _ORIENTATIONS,
    oriented_grid_document,
    rigid_motion,
    scaled_by_power_of_two,
    slanted_grid_nets,
    swapped,
)
from test_robustness import _run

ORDERS = (1, 2)
# the link and oracle tolerances of each order
_TOLERANCES = {1: (G1_TOL, NORMAL_ANGLE_TOL), 2: (G2_TOL, G2_TOL)}


@functools.cache
def _nets(kind):
    """Cell nets of a 3x3 split grid: every join G2 (``split``), or with two seeded defects.

    In ``defects``, cell (0, 0) has a control point one row in from its u1 side
    moved off the surface (a G1 crease across it), and cell (1, 1) one two rows
    in from its v1 side (G2 breaks across it, G1 holds).
    """
    nets = {ij: net.copy() for ij, net in slanted_grid_nets(np.random.default_rng(131)).items()}
    if kind == "defects":
        for (ij, point) in (((0, 0), (7, 4)), ((1, 1), (4, 6))):
            size = np.linalg.norm(np.ptp(nets[ij].reshape(-1, 3), axis=0))
            nets[ij][point] += [0.0, 0.0, 0.05 * size]
    return nets


def _document(kind, ops=None):
    nets = _nets(kind)
    return oriented_grid_document(nets, ops or {ij: _ORIENTATIONS[0] for ij in nets})


def _verdicts(triples, order):
    """(link_ok, oracle_ok, ok) of each (a, b, record) edge."""
    checks = check_edges(triples, order)
    return list(zip(checks.link_ok.tolist(), checks.oracle_ok.tolist(), checks.ok.tolist()))


def _edges(doc):
    return [(doc.patch(c.a), doc.patch(c.b), c) for c in doc.edges]


@functools.cache
def _reference(kind, order):
    """The verdicts of the untransformed document, by (a, b) names."""
    doc = _document(kind)
    return dict(zip([(c.a, c.b) for c in doc.edges], _verdicts(_edges(doc), order)))


@pytest.mark.parametrize("order", ORDERS)
@pytest.mark.parametrize("kind", ["split", "defects"])
def test_margins(kind, order):
    # every residual of the untransformed documents is round-off or a defect:
    # at least 100 times below or above its tolerance
    checks = check_edges(_edges(_document(kind)), order)
    for residual, tol in zip((checks.link_residual, checks.oracle_residual), _TOLERANCES[order]):
        assert ((residual < tol / 100) | (residual > 100 * tol)).all(), (residual, tol)
    failing = int((~checks.ok).sum())
    assert failing == {("split", 1): 0, ("split", 2): 0, ("defects", 1): 1, ("defects", 2): 2}[
        kind, order]


@pytest.mark.parametrize("order", ORDERS)
@pytest.mark.parametrize("kind", ["split", "defects"])
@settings(max_examples=8, deadline=None)
@given(t=st.floats(0.05, 0.95))
def test_splitting_both_patches_of_a_join_keeps_its_verdict(kind, order, t):
    doc = _document(kind)
    triples, want = [], []
    for a, b, corr in _edges(doc):
        # the join runs along v for u-sides, along u for v-sides
        split = {"u": lambda p: split_patch(p, v=t), "v": lambda p: split_patch(p, u=t)}
        for half_a, half_b in zip(split[corr.a_side[0]](a), split[corr.a_side[0]](b)):
            triples.append((half_a, half_b, corr))
            want.append(_reference(kind, order)[corr.a, corr.b])
    assert _verdicts(triples, order) == want


def _elevated(p, du, dv):
    eu = elevation_matrix(p.degree_u, p.degree_u + du)
    ev = elevation_matrix(p.degree_v, p.degree_v + dv)
    return BezierPatch.from_net(np.einsum("ai,ijc,bj->abc", eu, p.net, ev))


@pytest.mark.parametrize("order", ORDERS)
@pytest.mark.parametrize("kind", ["split", "defects"])
@settings(max_examples=8, deadline=None)
@given(raise_a=st.tuples(st.integers(0, 2), st.integers(0, 2)),
       raise_b=st.tuples(st.integers(0, 2), st.integers(0, 2)))
@example(raise_a=(1, 0), raise_b=(0, 0))
@example(raise_a=(0, 0), raise_b=(2, 1))
def test_elevating_either_patch_keeps_the_verdicts(kind, order, raise_a, raise_b):
    doc = _document(kind)
    triples = [(_elevated(a, *raise_a), _elevated(b, *raise_b), corr) for a, b, corr in _edges(doc)]
    assert _verdicts(triples, order) == [_reference(kind, order)[c.a, c.b] for c in doc.edges]


@pytest.mark.parametrize("order", ORDERS)
@pytest.mark.parametrize("kind", ["split", "defects"])
@settings(max_examples=8, deadline=None)
@given(data=st.data())
def test_orientations_and_record_direction_keep_the_verdicts(kind, order, data):
    # each cell stored in any of the eight orientations, each record either way round
    cells = sorted(_nets(kind))
    ops = dict(zip(cells, data.draw(st.lists(st.sampled_from(_ORIENTATIONS),
                                             min_size=len(cells), max_size=len(cells)))))
    doc = _document(kind, ops)
    flips = data.draw(st.lists(st.booleans(), min_size=len(doc.edges), max_size=len(doc.edges)))
    records = [swapped(c) if flip else c for c, flip in zip(doc.edges, flips)]
    got = _verdicts([(doc.patch(c.a), doc.patch(c.b), c) for c in records], order)
    assert got == [_reference(kind, order)[c.a, c.b] for c in doc.edges]


@pytest.mark.parametrize("order", ORDERS)
@pytest.mark.parametrize("kind", ["split", "defects"])
@settings(max_examples=8, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), log_scale=st.floats(-3.0, 3.0))
def test_a_rigid_motion_with_uniform_scale_keeps_the_verdicts(kind, order, seed, log_scale):
    rotation, shift = rigid_motion(np.random.default_rng(seed))
    matrix = 10.0**log_scale * rotation
    doc = _document(kind)
    triples = [(transform_patch(a, matrix, shift), transform_patch(b, matrix, shift), corr)
               for a, b, corr in _edges(doc)]
    assert _verdicts(triples, order) == [_reference(kind, order)[c.a, c.b] for c in doc.edges]


# --- the bench's grids at every power-of-two scale ------------------------------

_BENCH = Path(__file__).resolve().parent.parent / "bench"
WORKLOADS = {"grid-smooth": False, "grid-mixed": True}


@functools.cache
def _grid_raw(workload):
    """The raw JSON of ``bench/inputs.grid_doc`` for ``workload`` (seed 1), as the bench writes."""
    sys.path.insert(0, str(_BENCH))
    try:
        import inputs
    finally:
        sys.path.remove(str(_BENCH))
    patches, edges, *_ = inputs.grid_doc(np.random.default_rng(1), inputs.GRID_K,
                                         WORKLOADS[workload])
    with tempfile.TemporaryDirectory() as tmp:
        inputs.write_doc(Path(tmp) / "grid.json", patches, edges)
        return (Path(tmp) / "grid.json").read_text()


@functools.cache
def _grid_check_bytes(workload, command, k):
    """Exit code, stdout, stderr, warnings and report text of one check of the grid times 2^k."""
    with tempfile.TemporaryDirectory() as tmp:
        path, report = Path(tmp) / "grid.json", Path(tmp) / "report.json"
        path.write_text(json.dumps(scaled_by_power_of_two(json.loads(_grid_raw(workload)), k)))
        got = (*_run(command, path, report), report.read_text() if report.exists() else None)
    return tuple(x.replace(tmp, "<tmp>") if isinstance(x, str) else x for x in got)


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
@settings(max_examples=10, deadline=None)
@given(k=st.integers(-1000, 1000), command=st.sampled_from(["check-g1", "check-g2"]))
@example(k=1000, command="check-g2")
@example(k=-1000, command="check-g1")
def test_bench_grids_check_to_the_same_bytes_at_every_power_of_two_scale(workload, k, command):
    got = _grid_check_bytes(workload, command, k)
    assert got == _grid_check_bytes(workload, command, 0)
    assert got[0] == (0 if workload == "grid-smooth" else 2) and got[2:4] == ("", [])
