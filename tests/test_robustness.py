"""Check commands on documents at extreme scales and on fuzzed documents."""

import contextlib
import copy
import functools
import io
import json
import math
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from smoothpatch.bezier import SIDES, BezierPatch
from smoothpatch.cli import main
from smoothpatch.surfio import SurfaceDocument, load_surface, save_surface

from helpers import _ORIENTATIONS, oriented_grid_document, scaled_by_power_of_two, slanted_grid_nets

GOLDEN_DOC = Path(__file__).parent / "data" / "mixed_grid.json"
COMMANDS = ("check-g1", "check-g2")


def _run(command, path, report=None):
    """(exit code, stdout, stderr, warnings) of one command run in-process."""
    out, err = io.StringIO(), io.StringIO()
    argv = [command, str(path)] + (["--report", str(report)] if report else [])
    with warnings.catch_warnings(record=True) as caught, \
            contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        warnings.simplefilter("always")
        code = main(argv)
    return code, out.getvalue(), err.getvalue(), [str(w.message) for w in caught]


# --- scale --------------------------------------------------------------------

@functools.cache
def _documents():
    nets = slanted_grid_nets(np.random.default_rng(121))
    split = oriented_grid_document(nets, {ij: _ORIENTATIONS[k % 8]
                                          for k, ij in enumerate(sorted(nets))})
    return {"golden": load_surface(GOLDEN_DOC), "split": split}


def _scaled(doc, k):
    factor = 10.0**k
    return SurfaceDocument(patches={name: BezierPatch.from_net(p.net * factor)
                                    for name, p in doc.patches.items()}, edges=doc.edges)


@functools.cache
def _row_verdicts(name, k, command):
    """Exit code and each printed row's name and verdict, for one scaled document."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "doc.json"
        save_surface(_scaled(_documents()[name], k), path)
        code, out, err, caught = _run(command, path)
    assert caught == [] and err == "", (caught, err)
    return code, [(line.split("  ")[0], line.split()[-1]) for line in out.splitlines()]


@settings(max_examples=40, deadline=None)
@given(k=st.integers(-150, 150), name=st.sampled_from(["golden", "split"]),
       command=st.sampled_from(COMMANDS))
@example(k=150, name="golden", command="check-g2")
@example(k=-150, name="golden", command="check-g2")
@example(k=120, name="split", command="check-g1")
@example(k=-120, name="split", command="check-g1")
def test_verdicts_do_not_depend_on_the_scale(k, name, command):
    # tolerances are relative to each edge's net diagonal, and the frames are
    # divided by a power of two next to it, so the squared cross products of
    # the solves and oracles neither overflow nor underflow
    got, want = _row_verdicts(name, k, command), _row_verdicts(name, 0, command)
    assert got == want
    assert len(want[1]) > 1 and want[0] == (2 if name == "golden" else 0)


@pytest.mark.parametrize("command", COMMANDS)
@pytest.mark.parametrize("k", [154, -154, 165, -165, 200, -200])
def test_verdicts_hold_where_squared_net_extents_would_leave_the_float_range(k, command):
    # 1e154 squared overflows and 1e-165 squared underflows: the net diagonals
    # divide each box by a power of two before they square its extents
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "doc.json"
        save_surface(_scaled(_documents()["golden"], k), path)
        out = io.StringIO()
        with warnings.catch_warnings(), contextlib.redirect_stdout(out):
            warnings.simplefilter("error")
            code = main([command, str(path)])
    rows = [(line.split("  ")[0], line.split()[-1]) for line in out.getvalue().splitlines()]
    assert (code, rows) == _row_verdicts("golden", 0, command)


@pytest.mark.parametrize("command", COMMANDS)
@pytest.mark.parametrize("factor", [1e306, 3e307, 6e307, 1e308])
def test_checks_of_coordinates_near_the_largest_float_do_not_overflow(factor, command):
    # every coordinate c becomes (c - 1.4) * factor, all finite: the net boxes are taken
    # of halved coordinates and the control rows divided by a power of two before they
    # are differenced, so nothing overflows; an edge whose net diagonal exceeds the
    # largest float (at 1e308) is a named failure
    raw = json.loads(GOLDEN_DOC.read_text())
    for patch in raw["patches"]:
        patch["net"] = [[(c - 1.4) * factor for c in point] for point in patch["net"]]
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "doc.json"
        path.write_text(json.dumps(raw))
        code, out, err, caught = _run(command, path)
    assert caught == [] and "nan" not in out.lower()
    if factor < 1e308:
        rows = [(line.split("  ")[0], line.split()[-1]) for line in out.splitlines()]
        assert (code, rows, err) == (*_row_verdicts("golden", 0, command), "")
    else:
        assert code == 2 and out == ""
        assert err.startswith("continuity failure: the nets of ") and err.endswith(
            " span more than the largest float\n")


@functools.cache
def _check_bytes(k, command):
    """Exit code, stdout, stderr, warnings and report text (None if none was written) of one
    check of the golden document times 2^k; the temporary folder's path reads ``<tmp>``."""
    with tempfile.TemporaryDirectory() as tmp:
        path, report = Path(tmp) / "doc.json", Path(tmp) / "report.json"
        path.write_text(json.dumps(scaled_by_power_of_two(json.loads(GOLDEN_DOC.read_text()), k)))
        got = (*_run(command, path, report), report.read_text() if report.exists() else None)
    return tuple(x.replace(tmp, "<tmp>") if isinstance(x, str) else x for x in got)


@settings(max_examples=30, deadline=None)
@given(k=st.integers(-1000, 1000), command=st.sampled_from(COMMANDS))
@example(k=1000, command="check-g2")
@example(k=-1000, command="check-g2")
def test_checks_give_the_same_bytes_at_every_power_of_two_scale(k, command):
    # scaling by 2^k is exact while the coordinates stay normal floats, and every
    # residual is taken of frames divided by a power of two near each edge's scale
    got = _check_bytes(k, command)
    assert got == _check_bytes(0, command)
    assert got[0] == 2 and got[2:4] == ("", []) and got[4] is not None


@pytest.mark.parametrize("command", COMMANDS)
@pytest.mark.parametrize("k", [-1030, -1040])
def test_checks_of_nets_below_the_smallest_normal_float_are_a_named_failure(k, command):
    # 2^-e of a diagonal below 2^-1022 overflows: that was a RuntimeWarning and NaN rows
    code, out, err, caught, report = _check_bytes(k, command)
    assert (code, out, caught, report) == (2, "", [], None)
    assert err == ("continuity failure: the nets of c00:u1 ~ c10:u1 span less than "
                   "the smallest normal float\n")


# --- fuzzed documents ---------------------------------------------------------

_RAW = json.loads(GOLDEN_DOC.read_text())
_OFFSETS = (1e-12, 1e-9, 1e-6, 1e-3)


def _mutation(draw, raw):
    """Apply one drawn mutation to the raw document ``raw``, in place."""
    edges, patches = raw["edges"], raw["patches"]
    kind = draw(st.sampled_from(["flip", "drop", "swap", "duplicate", "ends", "wrong_side",
                                 "collapse", "all_equal", "off_surface"]))
    if kind in ("flip", "drop", "swap", "duplicate", "ends", "wrong_side") and not edges:
        return
    e = draw(st.integers(0, len(edges) - 1)) if edges else None
    if kind == "flip":
        edges[e]["reversed"] = not edges[e]["reversed"]
    elif kind == "drop":
        del edges[e]
    elif kind == "swap":
        f = draw(st.integers(0, len(edges) - 1))
        edges[e], edges[f] = edges[f], edges[e]
    elif kind == "duplicate":
        edges.insert(draw(st.integers(0, len(edges))), dict(edges[e]))
    elif kind == "ends":
        rec = edges[e]
        rec["a"], rec["b"], rec["a_side"], rec["b_side"] = (
            rec["b"], rec["a"], rec["b_side"], rec["a_side"])
    elif kind == "wrong_side":
        end = draw(st.sampled_from(["a_side", "b_side"]))
        edges[e][end] = draw(st.sampled_from([s for s in SIDES if s != edges[e][end]]))
    else:
        patch = draw(st.sampled_from(patches))
        net = np.reshape(patch["net"], (patch["degree_u"] + 1, patch["degree_v"] + 1, 3))
        if kind == "collapse":
            side = draw(st.sampled_from(SIDES))
            row = (0 if side[1] == "0" else -1)
            if side[0] == "u":
                net[row, :] = net[row, 0]
            else:
                net[:, row] = net[0, row]
        elif kind == "all_equal":
            net[...] = net[0, 0]
        else:
            i = draw(st.integers(0, net.shape[0] - 1))
            j = draw(st.integers(0, net.shape[1] - 1))
            net[i, j, draw(st.integers(0, 2))] += draw(st.sampled_from(_OFFSETS))
        patch["net"] = net.reshape(-1, 3).tolist()


@st.composite
def _fuzzed(draw):
    raw = copy.deepcopy(_RAW)
    for _ in range(draw(st.integers(1, 3))):
        _mutation(draw, raw)
    return raw


def _non_finite(row):
    values = [v for key, v in row.items() if key not in ("ok", "link_ok", "oracle_ok", "reversed")
              and isinstance(v, float)]
    values += row.get("g1_residuals", []) + row.get("g2_residuals", [])
    return not all(math.isfinite(v) for v in values)


@settings(max_examples=60, deadline=None)
@given(raw=_fuzzed(), command=st.sampled_from(COMMANDS))
def test_fuzzed_documents_give_an_exit_code_and_stable_reports(raw, command):
    # a mutated golden document either fails to load with one named error, or
    # aborts with a continuity failure, or gives rows; a row whose residual is
    # not finite never passes, and the same file checked twice writes the
    # same bytes
    with tempfile.TemporaryDirectory() as tmp:
        path, reports = Path(tmp) / "doc.json", [Path(tmp) / "r1.json", Path(tmp) / "r2.json"]
        path.write_text(json.dumps(raw))
        first, second = (_run(command, path, report) for report in reports)
        assert first == second
        code, out, err, caught = first
        assert code in (0, 1, 2)
        assert all("orientation-reversing join" in message for message in caught), caught
        if code == 1:
            assert out == "" and len(err.splitlines()) == 1 and err.startswith("error: ")
        written = [report.read_bytes() if report.exists() else None for report in reports]
        assert written[0] == written[1]
        if written[0] is None:
            assert code != 0 and not out
            return
        report = json.loads(written[0])
        rows = report["edges"] + report["vertices"]
        assert not any(row["ok"] for row in rows if _non_finite(row))
        assert (report["overall"] == "pass") == (code == 0) == all(row["ok"] for row in rows)


# --- construction flags -------------------------------------------------------

_CLI_GOLDEN = Path(__file__).parent / "data" / "cli_golden"
# each construction command before -o, and its float flags: name and number of values
_CONSTRUCTIONS = {
    "complete-4patch": (["complete-4patch", "corner.json"],
                        [(flag, 1) for flag in ("--alpha23", "--alpha43", "--lambda23-1",
                                                "--lambda43-1", "--kappa23-1", "--kappa43-1",
                                                "--beta2-23", "--beta2-43")]),
    "fill-hole": (["fill-hole", "ring.json"], [("--alpha", 4)]),
    "fillet": (["fillet", "strip_a.json", "strip_b.json", "-n", "4"],
               [("--lambda-left", 1), ("--lambda-right", 1)]),
}
# a magnitude in [1e-300, 1e308], with either sign
_FLAG_VALUES = st.builds(lambda sign, x: sign * x, st.sampled_from([1.0, -1.0]),
                         st.floats(1e-300, 1e308) | st.sampled_from([1e-300, 1e200, 1e308]))


@pytest.fixture(scope="module")
def strips_x1000(tmp_path_factory):
    """Absolute paths of the fillet's two strips scaled by 1000."""
    folder = tmp_path_factory.mktemp("strips_x1000")
    for name in ("strip_a.json", "strip_b.json"):
        doc = load_surface(_CLI_GOLDEN / name)
        patches = {key: BezierPatch(p.degree_u, p.degree_v, 1000.0 * p.net)
                   for key, p in doc.patches.items()}
        save_surface(SurfaceDocument(patches, doc.edges), folder / name)
    return [str(folder / "strip_a.json"), str(folder / "strip_b.json")]


def _construct(argv):
    """(exit code, stdout, stderr, whether it wrote) of a construction command run in-process.

    The command's relative data paths are in ``tests/data/cli_golden``; any warning is an
    error.
    """
    argv = [str(_CLI_GOLDEN / arg) if arg.endswith(".json") else arg for arg in argv]
    out, err = io.StringIO(), io.StringIO()
    with tempfile.TemporaryDirectory() as tmp, warnings.catch_warnings(), \
            contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        warnings.simplefilter("error")
        code = main(argv + ["-o", str(Path(tmp) / "out.json")])
        written = (Path(tmp) / "out.json").exists()
    return code, out.getvalue(), err.getvalue(), written


@pytest.mark.parametrize("argv", [
    ["complete-4patch", "corner.json", "--alpha23", "1e308"],
    ["complete-4patch", "corner.json", "--alpha23", "1e200"],
    ["fill-hole", "ring.json", "--alpha", "1e200", "1", "1", "1"],
    ["fill-hole", "ring.json", "--alpha", "1e308", "1", "1", "1"],
], ids=lambda argv: " ".join(argv[2:]))
def test_an_overflowing_prescribed_ordinate_is_a_named_failure(argv):
    # these were a ValueError traceback or an overflow or invalid-value RuntimeWarning
    code, out, err, written = _construct(argv)
    assert (code, out, written) == (2, "", False)
    assert err.startswith("continuity failure: ") and len(err.splitlines()) == 1


def test_an_overflowing_fillet_bridge_is_a_named_failure(strips_x1000):
    # this was a ValueError traceback, or under -W error an overflow RuntimeWarning
    code, out, err, written = _construct(["fillet", *strips_x1000, "-n", "4",
                                          "--lambda-left", "1e307"])
    assert (code, out, written) == (2, "", False)
    assert err.startswith("continuity failure: ") and len(err.splitlines()) == 1


@pytest.mark.parametrize("argv", [
    ["complete-4patch", "corner.json", "--alpha23", "-1e-3"],
    ["fill-hole", "ring.json", "--alpha", "-1e-1", "1", "1", "1"],
    ["fill-hole", "ring.json", "--alpha", "-1E+0", "-.5", "-2.5e-3", "1"],
], ids=lambda argv: " ".join(argv[2:]))
def test_a_negative_value_in_exponent_notation_is_a_value(argv):
    # these were read as options: "expected one argument", "expected 4 arguments"
    code, out, err, written = _construct(argv)
    assert (code, err, written) == (0, "", True)


@pytest.mark.parametrize("command", sorted(_CONSTRUCTIONS))
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_construction_float_flags_give_a_patch_or_one_named_error(command, data, strips_x1000):
    # any float flags at any magnitude up to the largest float, and for the fillet strips
    # at two scales: the command writes its document, or stops with one named error
    # line; a warning is an error
    argv, flags = _CONSTRUCTIONS[command]
    if command == "fillet" and data.draw(st.booleans(), label="strips x1000"):
        argv = [argv[0], *strips_x1000, *argv[3:]]
    for flag, n in flags:
        if data.draw(st.booleans(), label=f"set {flag}"):
            values = data.draw(st.lists(_FLAG_VALUES, min_size=n, max_size=n), label=flag)
            argv = argv + [flag, *map(repr, values)]
    code, out, err, written = _construct(argv)
    assert (code == 0) == written
    if code != 0:
        assert code in (1, 2) and out == "" and len(err.splitlines()) == 1
        assert err.startswith(("error: ", "continuity failure: "))
