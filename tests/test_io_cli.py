"""Serialization, OBJ export and command-line interface tests."""

import functools
import json
import math
import struct
import sys
import tempfile
import warnings
from decimal import Decimal
from fractions import Fraction
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from smoothpatch import surfio
from smoothpatch.bezier import (
    SIDES,
    BezierPatch,
    _edge_jets,
    _eval_grids,
    _grid_faces,
    split_grid,
    split_patch,
)
from smoothpatch.cli import find_corner_configs, main
from smoothpatch.continuity import (
    SOLVE_SAMPLES,
    VERIFY_SAMPLES,
    CornerConfig,
    EdgeCorrespondence,
    check_edges,
)
from smoothpatch.construct import NinePatchRing
from smoothpatch.surfio import (
    SurfaceDocument,
    SurfaceFormatError,
    dumps_json,
    export_obj,
    load_surface,
    save_surface,
)

from helpers import (
    _ORIENTATIONS,
    flat_crease_pair,
    oriented_grid_document,
    patch_eval,
    quad_split_config,
    random_ring,
    random_strips,
    reoriented_corner,
    slanted_grid_nets,
    smooth_patch,
    swapped,
    uniform_ring,
    wide_range_document,
)

DATA = Path(__file__).parent / "data"

RING_GRID = {1: (0, 0), 2: (0, 1), 3: (0, 2), 4: (1, 0),
             6: (1, 2), 7: (2, 0), 8: (2, 1), 9: (2, 2)}


def minimal_doc():
    patch = BezierPatch.from_net([[[0, 0, 0], [0, 1, 0]], [[1, 0, 0], [1, 1, 0]]])
    return SurfaceDocument(patches={"flat": patch})


def split_pair_doc(rng):
    g = smooth_patch(rng, span=2.0, z_scale=0.3)
    left, right = split_patch(g, u=0.5)
    return SurfaceDocument(
        patches={"left": left, "right": right},
        edges=[EdgeCorrespondence("u1", "u0", a="left", b="right")],
    )


def ring_doc(rng, make=uniform_ring):
    patches, _ = make(rng)
    doc_patches = {f"r{k}": patches[k] for k in sorted(patches)}
    edges = [
        EdgeCorrespondence("v1", "v0", a="r1", b="r2"),
        EdgeCorrespondence("v1", "v0", a="r2", b="r3"),
        EdgeCorrespondence("u1", "u0", a="r1", b="r4"),
        EdgeCorrespondence("u1", "u0", a="r4", b="r7"),
        EdgeCorrespondence("v1", "v0", a="r7", b="r8"),
        EdgeCorrespondence("v1", "v0", a="r8", b="r9"),
        EdgeCorrespondence("u1", "u0", a="r3", b="r6"),
        EdgeCorrespondence("u1", "u0", a="r6", b="r9"),
    ]
    return SurfaceDocument(patches=doc_patches, edges=edges)


def test_minimal_roundtrip(tmp_path):
    path = tmp_path / "doc.json"
    doc = minimal_doc()
    save_surface(doc, path)
    loaded = load_surface(path)
    assert list(loaded.patches) == ["flat"]
    np.testing.assert_array_equal(loaded.patch("flat").net, doc.patch("flat").net)


# any finite float, with the ones a float writer gets wrong most often drawn often
_NET_FLOATS = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.225073858507201e-308, 1e300, -1e300, 1.0, 0.1]))


@st.composite
def _float_documents(draw):
    patches = {}
    for k in range(draw(st.integers(1, 3))):
        du, dv = draw(st.integers(1, 3)), draw(st.integers(1, 3))
        n = 3 * (du + 1) * (dv + 1)
        values = draw(st.lists(_NET_FLOATS, min_size=n, max_size=n))
        patches[f"p{k}"] = BezierPatch(du, dv, np.reshape(values, (du + 1, dv + 1, 3)))
    sides = st.sampled_from(SIDES)
    edges = [EdgeCorrespondence(draw(sides), draw(sides), draw(st.booleans()), a=f"p{k - 1}", b=f"p{k}")
             for k in range(1, len(patches))]
    return SurfaceDocument(patches=patches, edges=edges)


@settings(max_examples=60, deadline=None)
@given(_float_documents())
@example(split_pair_doc(np.random.default_rng(100)))
def test_roundtrip_preserves_values_exactly(doc):
    with tempfile.TemporaryDirectory() as tmp:
        p1, p2 = Path(tmp) / "a.json", Path(tmp) / "b.json"
        save_surface(doc, p1)
        save_surface(load_surface(p1), p2)
        assert p1.read_bytes() == p2.read_bytes()
        again = load_surface(p2)
    for name in doc.patches:  # bit for bit: signs of zero included
        assert again.patch(name).net.tobytes() == doc.patch(name).net.tobytes()
    assert again.edges == doc.edges


@st.composite
def _any_documents(draw):
    """Documents of any names, edge records between them and version, valid or not."""
    patch = minimal_doc().patch("flat")
    names = draw(st.lists(st.text(max_size=3), max_size=3, unique=True))
    edges = []
    if names:
        ends = st.tuples(st.sampled_from(names), st.sampled_from(SIDES))
        for (a, a_side), (b, b_side), rev in draw(st.lists(
                st.tuples(ends, ends, st.booleans()), max_size=3)):
            edges.append(EdgeCorrespondence(a_side, b_side, rev, a=a, b=b))
    version = draw(st.sampled_from([1, 1, 1, 2, 0, True]))
    return dict.fromkeys(names, patch), edges, version


@settings(max_examples=150, deadline=None)
@given(_any_documents())
def test_every_document_that_constructs_saves_and_loads_back(parts):
    patches, edges, version = parts
    try:
        doc = SurfaceDocument(patches=patches, edges=edges, version=version)
    except SurfaceFormatError:
        return
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "doc.json"
        save_surface(doc, path)
        again = load_surface(path)
    assert list(again.patches) == list(doc.patches) and again.edges == doc.edges
    assert again.version == doc.version


def test_a_loaded_net_is_a_read_only_view_of_one_array(tmp_path):
    path = tmp_path / "doc.json"
    save_surface(split_pair_doc(np.random.default_rng(7)), path)
    left, right = load_surface(path).patches.values()
    assert left.net.base is right.net.base  # one converted array for all patches
    for net in (left.net, left.net.base):
        with pytest.raises(ValueError):
            net[0, 0] = 1.0
    with pytest.raises(ValueError):  # a view of read-only memory cannot be made writeable
        left.net.flags.writeable = True
    # a writeable input, or a read-only view of writeable memory, is copied
    net = np.zeros((2, 2, 3))
    view = net.view()
    view.flags.writeable = False
    for source in (net, view):
        patch = BezierPatch(1, 1, source)
        assert not np.shares_memory(patch.net, net) and not patch.net.flags.writeable
    net[0, 0, 0] = 5.0
    assert patch.net[0, 0, 0] == 0.0


def test_dumps_json_writes_a_float_array_as_its_nested_lists():
    # an array is written as its nested lists: integral values gain ".0" as scalars do
    values = [-0.0, 5e-324, 1e300, 0.1, 1.0, -2.5e-7]
    for arr in (np.array(values).reshape(2, 3), np.array(values), np.array(values).reshape(3, 1, 2),
                np.zeros((0, 3)), np.array(0.1)):
        assert dumps_json(arr) == dumps_json(arr.tolist())
    assert dumps_json({"net": np.array(values).reshape(2, 3)}) == (
        '{"net": [[-0.0, 5e-324, 1e+300], [0.1, 1.0, -2.5e-07]]}')
    assert dumps_json(values) == "[-0.0, 5e-324, 1e+300, 0.1, 1.0, -2.5e-07]"


def test_dumps_json_writes_numpy_scalars_as_python_values():
    assert dumps_json([np.float32(0.5), np.int64(-3), np.bool_(True)]) == "[0.5, -3, true]"
    with pytest.raises(TypeError, match="cannot serialize object"):
        dumps_json({"x": object()})


def test_dumps_json_writes_an_integral_float_as_a_float():
    assert dumps_json(0.0) == "0.0" and dumps_json(-0.0) == "-0.0"
    assert dumps_json([1.0, np.float64(-3.0), 1e16]) == "[1.0, -3.0, 1e+16]"
    for x, text in ((0.1, "0.1"), (1e300, "1e+300"), (5e-324, "5e-324"), (-2.5e-7, "-2.5e-07"),
                    (1e17, "1e+17"), (float("nan"), "NaN"), (float("-inf"), "-Infinity")):
        assert dumps_json(x) == text


@given(st.floats(allow_nan=False, allow_infinity=False))
def test_dumps_json_reads_back_every_finite_float_as_itself(x):
    got = json.loads(dumps_json(x))
    assert type(got) is float and got == x and math.copysign(1.0, got) == math.copysign(1.0, x)


@given(st.text())
def test_dumps_json_round_trips_any_text(text):
    assert json.loads(dumps_json(text)) == text
    assert json.loads(dumps_json({text: [text, 1.5]})) == {text: [text, 1.5]}


def test_dumps_json_escapes_only_what_json_requires():
    assert dumps_json('a"b\\c é\u2028') == '"a\\"b\\\\c é\u2028"'
    assert dumps_json("a\nb\tc\x00\x1f\x7f") == '"a\\nb\\tc\\u0000\\u001f\x7f"'


@pytest.mark.parametrize("name", ["a\nv 9 9 9", "a\rb", "tab\tname", "nul\x00", "del\x7f", "nel\x85",
                                  "\ud800x", ""])
def test_patch_names_with_a_control_character_are_rejected(tmp_path, capsys, name):
    # a lone surrogate is valid JSON text, but no writer can encode it as UTF-8;
    # the empty name is rejected by the same rule, so the loader need not check it
    patch = minimal_doc().patch("flat")
    message = (r"patches\[1\]\.name: must be a non-empty string without control characters or "
               r"surrogates, got '")
    with pytest.raises(SurfaceFormatError, match=message):
        SurfaceDocument(patches={"ok": patch, name: patch})
    path = tmp_path / "doc.json"
    save_surface(SurfaceDocument(patches={"ok": patch, "fine": patch}), path)
    raw = json.loads(path.read_text())
    raw["patches"][1]["name"] = name
    path.write_text(json.dumps(raw))
    with pytest.raises(SurfaceFormatError, match=message):
        load_surface(path)
    obj = tmp_path / "out.obj"
    capsys.readouterr()
    assert main(["export", str(path), "--obj", str(obj)]) == 1
    assert capsys.readouterr().err.startswith("error: patches[1].name: ")
    assert not obj.exists()


def test_patch_names_must_be_strings():
    with pytest.raises(SurfaceFormatError, match=r"patches\[0\]\.name: must be a non-empty string"):
        SurfaceDocument(patches={7: minimal_doc().patch("flat")})


def test_patch_names_without_a_control_character_load(tmp_path):
    patch = minimal_doc().patch("flat")
    names = ["a b", "név", "\u2028", 'q"\\']
    path = tmp_path / "doc.json"
    save_surface(SurfaceDocument(patches={name: patch for name in names}), path)
    assert list(load_surface(path).patches) == names


def test_load_errors_name_the_field(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(
        '{"version": 1, "patches": [{"name": "p", "degree_u": 1, "degree_v": 1,'
        ' "net": [[0, 0, 0], [0, 1, 0], [1, 0, 0]]}], "edges": []}'
    )
    with pytest.raises(SurfaceFormatError, match=r"patches\[0\].net.*'p'.*4 points"):
        load_surface(path)
    path.write_text('{"version": 2, "patches": [], "edges": []}')
    with pytest.raises(SurfaceFormatError, match="version"):
        load_surface(path)
    path.write_text("not json")
    with pytest.raises(SurfaceFormatError):
        load_surface(path)


def test_edge_record_validation(tmp_path):
    path = tmp_path / "bad_edge.json"
    path.write_text(
        '{"version": 1, "patches": [{"name": "p", "degree_u": 1, "degree_v": 1,'
        ' "net": [[0,0,0],[0,1,0],[1,0,0],[1,1,0]]}],'
        ' "edges": [{"a": "p", "a_side": "u1", "b": "missing", "b_side": "u0",'
        ' "reversed": false}]}'
    )
    with pytest.raises(SurfaceFormatError, match="edges"):
        load_surface(path)


def _write_two_patch_doc(path, edges, degree_u=1):
    net = "[[0,0,0],[0,1,0],[1,0,0],[1,1,0]]"
    patches = [
        f'{{"name": "p", "degree_u": {degree_u}, "degree_v": 1, "net": {net}}}',
        f'{{"name": "q", "degree_u": 1, "degree_v": 1, "net": {net}}}',
    ]
    records = [f'{{"a": "{a}", "a_side": "{s}", "b": "{b}", "b_side": "{t}"}}'
               for a, s, b, t in edges]
    path.write_text(
        f'{{"version": 1, "patches": [{", ".join(patches)}], "edges": [{", ".join(records)}]}}'
    )


def test_loader_rejects_boolean_degree(tmp_path):
    path = tmp_path / "bool_degree.json"
    _write_two_patch_doc(path, [], degree_u="true")
    with pytest.raises(SurfaceFormatError, match=r"patches\[0\]\.degree_u"):
        load_surface(path)


@pytest.mark.parametrize("coordinate", ['"0"', "true", "false"])
def test_loader_rejects_a_coordinate_that_is_no_number(tmp_path, capsys, coordinate):
    # a string or a boolean would convert to a float silently; the second
    # patch carries it, so the error must name that patch
    path = tmp_path / "coordinate.json"
    _write_two_patch_doc(path, [])
    text = path.read_text()
    at = text.rindex("[1,1,0]")
    path.write_text(text[:at] + f"[1,1,{coordinate}]" + text[at + len("[1,1,0]"):])
    message = r"^patches\[1\]\.net: points of patch 'q' must be \[x, y, z\] triples of numbers$"
    with pytest.raises(SurfaceFormatError, match=message):
        load_surface(path)
    assert main(["check-g1", str(path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: patches[1].net: points of patch 'q'") and "Traceback" not in err


_TRIPLES = "points of patch 'q' must be [x, y, z] triples of numbers"
_NON_FINITE = "patch 'q' has non-finite coordinates"


@pytest.mark.parametrize("point, why", [("[1,1]", _TRIPLES), ("[1,1,0,0]", _TRIPLES),
                                        ("[[1],1,0]", _TRIPLES), ("1", _TRIPLES),
                                        ("[1,1,null]", _NON_FINITE), ("[1,1,1e999]", _NON_FINITE),
                                        ("[1,1,1" + "0" * 400 + "]", _NON_FINITE)],
                         ids=["short", "long", "nested", "number", "null", "inf", "huge-int"])
def test_loader_names_the_patch_whose_points_are_malformed(tmp_path, point, why):
    # the first patch is well formed, so the one-pass conversion of all
    # points must fall back to naming the second
    path = tmp_path / "points.json"
    _write_two_patch_doc(path, [])
    text = path.read_text()
    at = text.rindex("[1,1,0]")
    path.write_text(text[:at] + point + text[at + len("[1,1,0]"):])
    with pytest.raises(SurfaceFormatError) as info:
        load_surface(path)
    assert str(info.value) == f"patches[1].net: {why}"


@pytest.mark.parametrize("version, number", [("true", "0"), ("1.0", "0"), ("1", "1" * 5000)],
                         ids=["boolean-version", "float-version", "too-many-digits"])
def test_loader_rejects_a_version_or_number_json_reads_loosely(tmp_path, capsys, version, number):
    # true == 1 and 1.0 == 1 in Python; a 5000-digit integer makes the JSON
    # reader raise ValueError rather than JSONDecodeError (on Pythons that
    # limit integer digits; elsewhere it loads, and overflows a float)
    path = tmp_path / "loose.json"
    path.write_text(f'{{"version": {version}, "patches": [{{"name": "p", "degree_u": 1, '
                    f'"degree_v": 1, "net": [[0,0,{number}],[0,1,0],[1,0,0],[1,1,0]]}}]}}')
    why = "version" if number == "0" else "not valid JSON|non-finite"
    with pytest.raises(SurfaceFormatError, match=why):
        load_surface(path)
    assert main(["check-g1", str(path)]) == 1
    assert "Traceback" not in capsys.readouterr().err


def test_loader_names_a_points_fault_before_a_later_field_fault(tmp_path):
    # patches are checked in order: patch 0's points fail before patch 1's degree
    path = tmp_path / "order.json"
    _write_two_patch_doc(path, [])
    raw = json.loads(path.read_text())
    raw["patches"][1]["degree_u"] = 0
    path.write_text(json.dumps(raw))
    with pytest.raises(SurfaceFormatError, match=r"^patches\[1\]\.degree_u: must be an integer"):
        load_surface(path)
    raw["patches"][0]["net"][0][2] = "0"
    path.write_text(json.dumps(raw))
    with pytest.raises(SurfaceFormatError, match=r"^patches\[0\]\.net: points of patch 'p'"):
        load_surface(path)


def test_loader_rejects_side_glued_to_itself(tmp_path):
    path = tmp_path / "self_edge.json"
    _write_two_patch_doc(path, [("p", "u1", "q", "u0"), ("p", "u0", "p", "u0")])
    with pytest.raises(SurfaceFormatError, match=r"edges\[1\].*p:u0 to itself"):
        load_surface(path)
    # two different sides of one patch may be glued (a closed strip)
    _write_two_patch_doc(path, [("p", "u0", "p", "u1")])
    assert len(load_surface(path).edges) == 1


def test_loader_rejects_duplicate_edge(tmp_path):
    path = tmp_path / "duplicate_edge.json"
    _write_two_patch_doc(path, [("p", "u1", "q", "u0"), ("p", "v1", "q", "v0"),
                                ("q", "u0", "p", "u1")])
    with pytest.raises(SurfaceFormatError, match=r"edges\[2\]: duplicates edges\[0\]"):
        load_surface(path)
    # a document built in code, as the construction commands do, obeys the same rule
    doc = split_pair_doc(np.random.default_rng(106))
    with pytest.raises(SurfaceFormatError, match=r"edges\[1\]: duplicates edges\[0\]"):
        SurfaceDocument(patches=doc.patches, edges=doc.edges * 2)


def test_loader_rejects_malformed_edge_list(tmp_path):
    path = tmp_path / "bad_edges.json"
    _write_two_patch_doc(path, [])
    text = path.read_text()
    path.write_text(text.replace('"edges": []', '"edges": 5'))
    with pytest.raises(SurfaceFormatError, match="edges: must be a list"):
        load_surface(path)
    path.write_text(text.replace('"edges": []', '"edges": [{"a": ["p"], "a_side": "u1", '
                                                '"b": "q", "b_side": "u0"}]'))
    with pytest.raises(SurfaceFormatError, match=r"edges\[0\]\.a: unknown patch name"):
        load_surface(path)


def test_document_names_the_record_and_field_of_an_unknown_patch():
    # as the loader does, a document built in code names the record and its field
    doc = split_pair_doc(np.random.default_rng(106))
    for key in ("a", "b"):
        first = doc.edges[0]
        names = {"a": first.a, "b": first.b, key: "nowhere"}
        edges = [first, EdgeCorrespondence(first.a_side, first.b_side, first.reversed, **names)]
        with pytest.raises(SurfaceFormatError,
                           match=rf"^edges\[1\]\.{key}: unknown patch name 'nowhere'$"):
            SurfaceDocument(patches=doc.patches, edges=edges)


def test_loader_names_the_record_and_field_of_an_unknown_patch(tmp_path):
    # the loader checks only that a name is a string; the document looks it up
    path = tmp_path / "unknown.json"
    for key, edge in (("a", ("nowhere", "u1", "q", "u0")), ("b", ("p", "u1", "nowhere", "u0"))):
        _write_two_patch_doc(path, [("p", "v1", "q", "v0"), edge])
        with pytest.raises(SurfaceFormatError,
                           match=rf"^edges\[1\]\.{key}: unknown patch name 'nowhere'$"):
            load_surface(path)


def test_ring_fixture_roundtrip_validates(tmp_path):
    rng = np.random.default_rng(101)
    doc = ring_doc(rng)
    path = tmp_path / "ring.json"
    save_surface(doc, path)
    loaded = load_surface(path)
    ring = NinePatchRing.from_patches(
        {k: loaded.patch(f"r{k}") for k in RING_GRID}
    )
    assert all(abs(v - 1.0) < 1e-9 for v in ring.lambdas.values())


def test_export_obj_counts(tmp_path):
    path = tmp_path / "one.obj"
    export_obj(minimal_doc(), 1, 1, path)
    lines = path.read_text().splitlines()
    assert sum(1 for l in lines if l.startswith("v ")) == 4
    assert sum(1 for l in lines if l.startswith("f ")) == 2
    assert sum(1 for l in lines if l.startswith("o ")) == 1


def test_export_obj_two_patches_disjoint_indices(tmp_path):
    rng = np.random.default_rng(102)
    doc = split_pair_doc(rng)
    path = tmp_path / "two.obj"
    export_obj(doc, 2, 2, path)
    lines = path.read_text().splitlines()
    objects = [l for l in lines if l.startswith("o ")]
    assert objects == ["o left", "o right"]
    faces = [tuple(int(x) for x in l.split()[1:]) for l in lines if l.startswith("f ")]
    first = [f for f in faces[: len(faces) // 2]]
    second = [f for f in faces[len(faces) // 2:]]
    assert max(max(f) for f in first) == 9
    assert min(min(f) for f in second) == 10


def test_export_obj_vertices_match_patch_eval(tmp_path):
    rng = np.random.default_rng(103)
    doc = split_pair_doc(rng)
    path = tmp_path / "grid.obj"
    nu, nv = 4, 3
    export_obj(doc, nu, nv, path)
    lines = [l for l in path.read_text().splitlines() if l.startswith("v ")]
    verts = np.array([[float(x) for x in l.split()[1:]] for l in lines])
    expected = [patch_eval(doc.patch(name), u, v) for name in ("left", "right")
                for u in np.linspace(0, 1, nu + 1) for v in np.linspace(0, 1, nv + 1)]
    np.testing.assert_allclose(verts, expected, atol=1e-12)


# --- CLI ----------------------------------------------------------------------

def test_cli_check_g1_pass_and_report(tmp_path, capsys):
    rng = np.random.default_rng(104)
    doc_path = tmp_path / "pair.json"
    save_surface(split_pair_doc(rng), doc_path)
    report = tmp_path / "report.json"
    code = main(["check-g1", str(doc_path), "--report", str(report)])
    out = capsys.readouterr().out
    assert code == 0
    assert "PASS" in out and "overall: PASS" in out
    text = report.read_text()
    assert '"overall": "pass"' in text
    # byte-stable: running again reproduces the identical report
    report2 = tmp_path / "report2.json"
    main(["check-g1", str(doc_path), "--report", str(report2)])
    assert report.read_bytes() == report2.read_bytes()


def planar_grid_doc():
    """Four bilinear patches tiling the square [0, 2]^2 of the plane z = 0."""
    patches = {f"c{i}{j}": BezierPatch.from_net([[[i + a, j + b, 0] for b in (0, 1)]
                                                 for a in (0, 1)])
               for i in (0, 1) for j in (0, 1)}
    edges = [EdgeCorrespondence("u1", "u0", a="c00", b="c10"),
             EdgeCorrespondence("u1", "u0", a="c01", b="c11"),
             EdgeCorrespondence("v1", "v0", a="c00", b="c01"),
             EdgeCorrespondence("v1", "v0", a="c10", b="c11")]
    return SurfaceDocument(patches=patches, edges=edges)


@pytest.mark.parametrize("command", ["check-g1", "check-g2"])
def test_check_report_of_a_planar_document_writes_zero_residuals_as_floats(tmp_path, capsys,
                                                                           command):
    doc_path = tmp_path / "plane.json"
    save_surface(planar_grid_doc(), doc_path)
    report_path = tmp_path / "report.json"
    assert main([command, str(doc_path), "--report", str(report_path)]) == 0
    capsys.readouterr()
    report = json.loads(report_path.read_text())
    oracle = "normal_angle" if command == "check-g1" else "curvature_gap"
    values = [row[key] for row in report["edges"] for key in ("link_residual", oracle)]
    (vertex,) = report["vertices"]
    values += vertex["g1_residuals"] + [vertex["lambda_product_residual"]]
    values += vertex.get("g2_residuals", [])
    assert len(values) == (13 if command == "check-g1" else 19)
    assert all(type(x) is float for x in values) and 0.0 in values, values


def test_cli_check_g1_crease_fails(tmp_path, capsys):
    a, b = flat_crease_pair(np.pi / 6)
    doc = SurfaceDocument(patches={"a": a, "b": b},
                          edges=[EdgeCorrespondence("u1", "u0", a="a", b="b")])
    path = tmp_path / "crease.json"
    save_surface(doc, path)
    assert main(["check-g1", str(path)]) == 2
    assert "FAIL" in capsys.readouterr().out


def test_cli_check_g2(tmp_path, capsys):
    rng = np.random.default_rng(105)
    doc_path = tmp_path / "pair.json"
    save_surface(split_pair_doc(rng), doc_path)
    assert main(["check-g2", str(doc_path)]) == 0
    assert "G2 overall: PASS" in capsys.readouterr().out


def test_cli_rejects_malformed_input(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{broken")
    assert main(["check-g1", str(bad)]) == 1
    assert "error" in capsys.readouterr().err
    assert main(["check-g1", str(tmp_path / "missing.json")]) == 1


def test_cli_usage_error_is_exit_1(capsys):
    assert main(["no-such-command"]) == 1


def test_main_builds_its_parser_once_and_answers_as_a_fresh_one(tmp_path, capsys):
    from smoothpatch import cli

    path = tmp_path / "pair.json"
    save_surface(split_pair_doc(np.random.default_rng(123)), path)
    calls = (["check-g1"], ["check-g1", str(path)], ["--help"])

    def run(fresh):
        out = []
        for argv in calls:
            if fresh:
                cli._build_parser.cache_clear()
            code = main(list(argv))
            out.append((code, *capsys.readouterr()))
        return out

    fresh = run(fresh=True)
    cli._build_parser.cache_clear()
    cached = run(fresh=False)
    assert cli._build_parser.cache_info().misses == 1
    assert cached == fresh
    assert [code for code, *_ in fresh] == [1, 0, 0]
    assert "usage: smoothpatch" in fresh[0][2] and "G1 overall: PASS" in fresh[1][1]


def _folded(p):
    """``p`` with every row reflected through its u0 row: its u-derivative on u0 flips sign."""
    net = p.net.copy()
    net[1:] = 2.0 * net[0] - net[1:]
    return BezierPatch.from_net(net)


def error_path_doc():
    """Four split pairs joined u1 ~ u0: smooth, folded (lambda < 0), a G0 gap, folded."""
    from smoothpatch.bezier import transform_patch

    rng = np.random.default_rng(121)
    patches, edges = {}, []
    for name, make_b in (("a", lambda b: b), ("f", _folded),
                         ("g", lambda b: transform_patch(b, shift=[0.0, 0.0, 1e-3])),
                         ("h", _folded)):
        left, right = split_patch(smooth_patch(rng, span=2.0, z_scale=0.3), u=0.5)
        patches[f"{name}1"], patches[f"{name}2"] = left, make_b(right)
        edges.append(EdgeCorrespondence("u1", "u0", a=f"{name}1", b=f"{name}2"))
    return SurfaceDocument(patches=patches, edges=edges)


@pytest.mark.parametrize("command", ["check-g1", "check-g2"])
def test_check_stops_at_the_first_failing_edge_after_the_earlier_warnings(tmp_path, capsys,
                                                                          command):
    # the third edge has a G0 gap; the second and fourth have lambda < 0:
    # only the warning of the second comes, as when edges were checked one by one
    path = tmp_path / "errors.json"
    save_surface(error_path_doc(), path)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert main([command, str(path)]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == ("continuity failure: boundary curves of g1:u1 and g2:u0 do not coincide "
                   "(normalized gap 3.365e-04 > 1.0e-09)\n")
    assert [str(w.message) for w in caught] == [
        "orientation-reversing join (f1:u1 ~ f2:u0): lambda is negative"]


def test_cli_fill_hole_then_check(tmp_path, capsys):
    rng = np.random.default_rng(106)
    ring_path = tmp_path / "ring.json"
    save_surface(ring_doc(rng), ring_path)
    filled = tmp_path / "filled.json"
    assert main(["fill-hole", str(ring_path), "-o", str(filled)]) == 0
    assert main(["check-g1", str(filled)]) == 0
    out = capsys.readouterr().out
    assert "r5" in out and "overall: PASS" in out
    doc = load_surface(filled)
    assert doc.patch("r5").degree_u == 5


def test_cli_fill_hole_deg6(tmp_path):
    rng = np.random.default_rng(107)
    ring_path = tmp_path / "ring.json"
    save_surface(ring_doc(rng), ring_path)
    filled = tmp_path / "filled6.json"
    assert main(["fill-hole", str(ring_path), "--deg6", "-o", str(filled)]) == 0
    doc = load_surface(filled)
    assert (doc.patch("r5").degree_u, doc.patch("r5").degree_v) == (6, 6)
    assert main(["check-g1", str(filled)]) == 0


def test_cli_complete_4patch(tmp_path, capsys):
    rng = np.random.default_rng(108)
    g = smooth_patch(rng, span=2.0, z_scale=0.3)
    ll, hl, lh, hh = split_patch(g, u=0.5, v=0.5)
    doc = SurfaceDocument(patches={"r1": ll, "r2": hl, "r4": lh})
    path = tmp_path / "corner.json"
    save_surface(doc, path)
    out = tmp_path / "completed.json"
    assert main(["complete-4patch", str(path), "-o", str(out)]) == 0
    capsys.readouterr()
    # the input has no edge records: the output records the two corner joins
    # the command verified, so the constructed vertex is checked too
    assert main(["check-g1", str(out)]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert sum(line.startswith("edge ") for line in lines) == 4
    vertex_rows = [line for line in lines if line.startswith("vertex ")]
    assert len(vertex_rows) == 1
    assert vertex_rows[0].startswith("vertex (r1, r2, r3, r4)") and vertex_rows[0].endswith("PASS")


def test_cli_fillet(tmp_path):
    rng = np.random.default_rng(109)
    g = smooth_patch(rng, span=3.0, z_scale=0.4)
    cols = split_grid(g, [1 / 3, 2 / 3], [0.25, 0.5, 0.75])
    a_path = tmp_path / "a.json"
    b_path = tmp_path / "b.json"
    save_surface(SurfaceDocument(patches={f"a{r}": cols[0][r] for r in range(4)}), a_path)
    save_surface(SurfaceDocument(patches={f"b{r}": cols[2][r] for r in range(4)}), b_path)
    out = tmp_path / "fillet.json"
    assert main(["fillet", str(a_path), str(b_path), "-n", "4", "-o", str(out)]) == 0
    assert main(["check-g1", str(out)]) == 0
    doc = load_surface(out)
    assert len(doc.patches) == 12


def _construction_inputs(tmp_path, command):
    """Input arguments of a construction command, written from seeded patches."""
    rng = np.random.default_rng(113)
    if command == "fillet":
        paths = []
        for label, strip in zip("ab", random_strips(rng, 2)):
            paths.append(tmp_path / f"{label}.json")
            save_surface(SurfaceDocument(patches={f"{label}{r}": p for r, p in enumerate(strip)}),
                         paths[-1])
        return [str(paths[0]), str(paths[1]), "-n", "2"]
    path = tmp_path / "in.json"
    if command == "fill-hole":
        save_surface(ring_doc(rng, random_ring), path)
    else:
        ll, hl, lh, _ = split_patch(smooth_patch(rng, span=2.0, z_scale=0.3), u=0.5, v=0.5)
        save_surface(SurfaceDocument(patches={"r1": ll, "r2": hl, "r4": lh}), path)
    return [str(path)]


@pytest.mark.parametrize("command, flags", [
    ("fillet", ["--lambda-left", "nan"]),
    ("complete-4patch", ["--kappa23-1", "inf"]),
    ("complete-4patch", ["--alpha23", "nan"]),
    ("fill-hole", ["--alpha", "nan", "1", "1", "1"]),
])
def test_cli_rejects_non_finite_floats(tmp_path, capsys, command, flags):
    argv = [command, *_construction_inputs(tmp_path, command), "-o", str(tmp_path / "out.json")]
    assert main(argv) == 0  # the inputs are valid without the flag
    capsys.readouterr()
    assert main([*argv, *flags]) == 1
    err = capsys.readouterr().err
    assert f"argument {flags[0]}: expected a finite number, got '{flags[1]}'" in err
    assert "Traceback" not in err


def test_cli_fillet_names_a_degenerate_right_bridge_lambda(tmp_path, capsys):
    out = tmp_path / "out.json"
    argv = ["fillet", *_construction_inputs(tmp_path, "fillet"), "-o", str(out),
            "--lambda-right", "1e9"]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err == ("continuity failure: right bridge lambda (1e+09) is degenerate: "
                   "1/lambda is below 1e-08\n")
    assert not out.exists()


def test_export_obj_golden_bytes(tmp_path):
    # captured before the OBJ records were formatted per patch in one pass
    out = tmp_path / "mixed_grid.obj"
    assert main(["export", str(DATA / "mixed_grid.json"), "--obj", str(out),
                 "--samples", "8,8"]) == 0
    assert out.read_bytes() == (DATA / "mixed_grid_8x8.obj").read_bytes()


def test_export_obj_wide_range_bytes(tmp_path):
    # captured from the writer that called % once per number: exponent notation at
    # 1e-300 and 1e300 times the golden coordinates, both sides of 1e-4, and zeros
    want = (DATA / "mixed_grid_wide_3x5.obj").read_bytes()
    out = tmp_path / "wide.obj"
    export_obj(wide_range_document(), 3, 5, out)
    assert out.read_bytes() == want == _reference_obj(wide_range_document(), 3, 5)


# --- OBJ text: the array formatter against one % call per number ----------------

def _reference_obj(doc, nu, nv) -> bytes:
    """The OBJ bytes of the writer that formatted each number with its own ``%``."""
    faces = _grid_faces(nu, nv) + 1
    grids = _eval_grids(list(doc.patches.values()), np.linspace(0.0, 1.0, nu + 1),
                        np.linspace(0.0, 1.0, nv + 1))
    per_patch = (nu + 1) * (nv + 1)
    v_records, f_records = "v %.17g %.17g %.17g\n" * per_patch, "f %d %d %d\n" * len(faces)
    chunks = []
    for k, (name, grid) in enumerate(zip(doc.patches, grids)):
        chunks.append(f"o {name}\n")
        chunks.append(v_records % tuple(grid.ravel().tolist()))
        chunks.append(f_records % tuple((faces + k * per_patch).ravel().tolist()))
    return "".join(chunks or ["\n"]).encode("utf-8")


def _near_power_of_ten(k: int, ulps: int, negative: bool) -> float:
    x = float(f"1e{k}")
    for _ in range(abs(ulps)):
        x = math.nextafter(x, math.inf if ulps > 0 else 0.0)
    return -x if negative else x


_SPECIAL_FLOATS = [
    0.0, -0.0, math.nan, math.inf, -math.inf, 5e-324, -5e-324,
    2.225073858507201e-308, 2.2250738585072014e-308,  # the largest subnormal, the smallest normal
    2.0**50 + 0.25, 2.0**50 + 0.75, 2.0**49 + 0.125,  # exact ties at the 17th digit
    float("1e-14"),  # below 10^-14, written as the power of ten
    1e-4, math.nextafter(1e-4, 0.0), 1e15, math.nextafter(1e15, 0.0), 0.1, 0.5, 100.0, 123.456,
]

# any double, with the ones a decimal writer gets wrong most often drawn often
_OBJ_FLOATS = st.one_of(
    st.floats(),
    st.integers(0, 2**64 - 1).map(lambda bits: struct.unpack("<d", bits.to_bytes(8, "little"))[0]),
    st.sampled_from(_SPECIAL_FLOATS),
    st.builds(_near_power_of_ten, st.integers(-6, 17), st.integers(-3, 3), st.booleans()),
    st.builds(lambda m, k: m * 10.0**k, st.integers(-10**6, 10**6), st.integers(-9, 12)),
)


@settings(max_examples=400, deadline=None)
@given(st.lists(_OBJ_FLOATS, min_size=1, max_size=40))
@example(_SPECIAL_FLOATS)
@example([_near_power_of_ten(k, ulps, False) for k in range(-6, 18) for ulps in (-1, 0, 1)])
def test_float_text_is_the_text_of_percent_17g(values):
    words = surfio._float_words(np.array(values, dtype=float))
    got = [row.tobytes().translate(None, b"\0").decode("ascii") for row in words]
    assert got == ["%.17g" % v for v in values]


def test_no_double_in_fixed_notation_rounds_up_to_a_power_of_ten():
    # the array formatter relies on it: its 17 digits never carry into an 18th, because
    # every double below a power of ten from 1e-3 to 1e15 lies more than half a unit of
    # the 17th digit below it
    for k in range(-3, 16):
        power = float(f"1e{k}")
        for x in (math.nextafter(power, 0.0), power):
            if Fraction(x) < Fraction(10) ** k:
                assert Decimal("%.17g" % x) < Decimal(10) ** k, x


@settings(max_examples=200, deadline=None)
@given(st.lists(st.tuples(*[st.one_of(st.integers(1, 99), st.integers(1, 10**15))] * 3),
                min_size=1, max_size=30),
       st.integers(0, 3))
def test_face_text_is_the_text_of_percent_d(faces, spare):
    indices = np.array(faces)
    rows = surfio._face_text(indices, len(str(indices.max())) + spare)
    assert [row.tobytes().translate(None, b"\0") for row in rows] == [
        b"f %d %d %d\n" % face for face in faces]


@st.composite
def _export_cases(draw):
    """A document of 1-4 patches of degrees 1-6 at scales 10^k, |k| <= 300, samples and a block."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    patches = {}
    for k in range(draw(st.integers(1, 4))):
        du, dv = draw(st.integers(1, 6)), draw(st.integers(1, 6))
        scale = 10.0 ** draw(st.integers(-300, 300))
        patches[f"p{k}"] = BezierPatch.from_net(rng.standard_normal((du + 1, dv + 1, 3)) * scale)
    return (SurfaceDocument(patches=patches), draw(st.integers(1, 9)), draw(st.integers(1, 9)),
            draw(st.integers(1, 250)))


@settings(max_examples=80, deadline=None)
@given(_export_cases())
@example((SurfaceDocument(patches={}), 2, 3, 4096))
def test_export_obj_writes_the_bytes_of_one_percent_call_per_number(case):
    doc, nu, nv, block = case
    with tempfile.TemporaryDirectory() as tmp, mock.patch.object(surfio, "_BLOCK", block):
        path = Path(tmp) / "out.obj"
        export_obj(doc, nu, nv, path)
        assert path.read_bytes() == _reference_obj(doc, nu, nv)


def test_export_formats_at_most_a_block_of_vertices_at_once(tmp_path):
    # the formatter's arrays do not grow with the number of patches: 40 patches of 81
    # vertices are formatted two at a time when a block holds 200 vertices
    rng = np.random.default_rng(5)
    doc = SurfaceDocument(patches={f"p{k}": smooth_patch(rng) for k in range(40)})
    sizes = []

    def counting(x):
        sizes.append(len(x))
        return formatter(x)

    formatter = surfio._float_words
    with mock.patch.object(surfio, "_BLOCK", 200), mock.patch.object(surfio, "_float_words",
                                                                     counting):
        export_obj(doc, 8, 8, tmp_path / "out.obj")
    assert sizes == [2 * 81 * 3] * 20
    assert (tmp_path / "out.obj").read_bytes() == _reference_obj(doc, 8, 8)


@pytest.mark.parametrize("seed", range(8))
def test_constructed_vertices_pass_check_g1(tmp_path, capsys, seed):
    # every join of a constructed document is G1, so every vertex row must
    # pass; vertex values read from fitted link functions failed some of them
    rng = np.random.default_rng(7000 + seed)
    ring_path = tmp_path / "ring.json"
    save_surface(ring_doc(rng, random_ring), ring_path)
    a_path, b_path = tmp_path / "a.json", tmp_path / "b.json"
    strip_a, strip_b = random_strips(rng, 4)
    save_surface(SurfaceDocument(patches={f"a{r}": p for r, p in enumerate(strip_a)}), a_path)
    save_surface(SurfaceDocument(patches={f"b{r}": p for r, p in enumerate(strip_b)}), b_path)
    out, report = tmp_path / "out.json", tmp_path / "report.json"
    for argv, n_vertices in (
        (["fill-hole", str(ring_path)], 4),
        (["fill-hole", str(ring_path), "--deg6"], 4),
        (["fillet", str(a_path), str(b_path), "-n", "4"], 6),
    ):
        assert main([*argv, "-o", str(out)]) == 0
        main(["check-g1", str(out), "--report", str(report)])
        rows = json.loads(report.read_text())["vertices"]
        assert len(rows) == n_vertices
        assert all(row["ok"] for row in rows), (argv, rows)
    capsys.readouterr()


def test_cli_export(tmp_path):
    rng = np.random.default_rng(110)
    doc_path = tmp_path / "pair.json"
    save_surface(split_pair_doc(rng), doc_path)
    obj = tmp_path / "out.obj"
    assert main(["export", str(doc_path), "--obj", str(obj), "--samples", "8,4"]) == 0
    lines = obj.read_text().splitlines()
    assert sum(1 for l in lines if l.startswith("v ")) == 2 * 45
    assert main(["export", str(doc_path), "--obj", str(obj), "--samples", "bad"]) == 1


@pytest.mark.parametrize("samples", ["0,5", "5,0", "-1,3"])
def test_cli_export_rejects_samples_below_one(tmp_path, capsys, samples):
    doc_path = tmp_path / "pair.json"
    save_surface(split_pair_doc(np.random.default_rng(110)), doc_path)
    capsys.readouterr()
    obj = tmp_path / "out.obj"
    # "--samples=..." so that argparse does not read "-1,3" as an option
    assert main(["export", str(doc_path), "--obj", str(obj), f"--samples={samples}"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: --samples expects nu, nv >= 1, got {samples}\n"
    assert not obj.exists()


def test_find_corner_configs_on_grid():
    rng = np.random.default_rng(111)
    g = smooth_patch(rng, span=2.0, z_scale=0.3)
    ll, hl, lh, hh = split_patch(g, u=0.5, v=0.5)
    doc = SurfaceDocument(
        patches={"p1": ll, "p2": hl, "p3": hh, "p4": lh},
        edges=[
            EdgeCorrespondence("u1", "u0", a="p1", b="p2"),
            EdgeCorrespondence("v1", "v0", a="p1", b="p4"),
            EdgeCorrespondence("v1", "v0", a="p2", b="p3"),
            EdgeCorrespondence("u1", "u0", a="p4", b="p3"),
        ],
    )
    corners = find_corner_configs(doc, _reports(doc))
    assert len(corners) == 1
    names, config = corners[0]
    assert set(names) == {"p1", "p2", "p3", "p4"}


def test_find_corner_configs_handles_reoriented_patches():
    # same grid, but one patch stored flipped: its records carry the orientation
    from smoothpatch.bezier import flip_u, flip_v

    rng = np.random.default_rng(112)
    g = smooth_patch(rng, span=2.0, z_scale=0.3)
    ll, hl, lh, hh = split_patch(g, u=0.5, v=0.5)
    doc = SurfaceDocument(
        patches={"p1": ll, "p2": hl, "p3": flip_u(flip_v(hh)), "p4": lh},
        edges=[
            EdgeCorrespondence("u1", "u0", a="p1", b="p2"),
            EdgeCorrespondence("v1", "v0", a="p1", b="p4"),
            EdgeCorrespondence("v1", "v1", a="p2", b="p3", reversed=True),
            EdgeCorrespondence("u1", "u1", a="p4", b="p3", reversed=True),
        ],
    )
    corners = find_corner_configs(doc, _reports(doc))
    assert len(corners) == 1


# --- vertices from edge records ------------------------------------------------

def _reports(doc, order=1):
    return check_edges([(doc.patch(c.a), doc.patch(c.b), c) for c in doc.edges], order)


@functools.lru_cache(maxsize=None)
def _grid_nets():
    """3x3 split of one bi-quartic along slanted lines: every vertex value is non-zero."""
    return slanted_grid_nets(np.random.default_rng(113))


def _assert_values_close(got: dict, want: dict):
    assert list(got) == list(want)
    for key in want:
        assert list(got[key]) == list(want[key])
        np.testing.assert_allclose(list(got[key].values()), list(want[key].values()),
                                   rtol=0.0, atol=1e-12)


@settings(max_examples=25, deadline=None)
@given(
    ops=st.lists(st.tuples(st.booleans(), st.booleans(), st.booleans()), min_size=9, max_size=9),
    patch_order=st.permutations(range(9)),
    edge_order=st.permutations(range(12)),
    swaps=st.lists(st.booleans(), min_size=12, max_size=12),
)
def test_find_corner_configs_depends_only_on_topology(ops, patch_order, edge_order, swaps):
    # the values at V read from the records, in any orientation of each cell
    # and direction of each record, are those of the four patches reoriented
    # into the canonical arrangement and solved there; order 2, so that all six
    # values and both maps are compared
    nets = _grid_nets()
    doc = oriented_grid_document(nets, dict(zip(sorted(nets), ops)))
    names = list(doc.patches)
    doc = SurfaceDocument(patches={names[k]: doc.patches[names[k]] for k in patch_order},
                          edges=[swapped(doc.edges[k]) if swap else doc.edges[k]
                                 for k, swap in zip(edge_order, swaps)])
    found = find_corner_configs(doc, _reports(doc, 2))
    assert sorted(names for names, _ in found) == [
        ("c00", "c01", "c11", "c10"), ("c01", "c02", "c12", "c11"),
        ("c10", "c11", "c21", "c20"), ("c11", "c12", "c22", "c21")]
    for names, config in found:
        want = CornerConfig.from_patches(*reoriented_corner(doc, names)).values
        _assert_values_close(config.values, want)


# a corner of quad_split_config, exactly G2 or broken next to V, and its
# vertex verdict: p1's twist at V breaks G1 along the 1-2 and 1-4 edges and
# moves no datum at V; the boundary point next to V on the 1-2 edge, moved in
# both patches, tilts the tangent plane at V
_CORNER_KINDS = {"exact": True, "twist": True, "boundary": False}


def _corner_doc(seed, kind, ops=((False, False, False),) * 4, swaps=(False,) * 4):
    # the wide slant keeps kappa at V near 1e-2 or more, so that a wrong sign in
    # a link map moves a G2 residual past its tolerance
    _, p1, p2, p3, p4 = quad_split_config(np.random.default_rng(seed), slant=0.1)
    du, dv = p1.degree_u, p1.degree_v
    net1, net2 = p1.net.copy(), p2.net.copy()
    if kind == "twist":
        net1[du - 1, dv - 1] += [0.0, 0.0, 1e-2]
    elif kind == "boundary":
        net1[du, dv - 1] += [0.0, 0.0, 1e-2]
        net2[0, dv - 1] += [0.0, 0.0, 1e-2]
    nets = {(0, 0): net1, (1, 0): net2, (1, 1): p3.net, (0, 1): p4.net}
    doc = oriented_grid_document(nets, dict(zip(sorted(nets), ops)))
    return SurfaceDocument(patches=doc.patches,
                           edges=[swapped(c) if swap else c for c, swap in zip(doc.edges, swaps)])


def _vertex_verdicts(doc, command):
    with tempfile.TemporaryDirectory() as tmp:
        path, report = Path(tmp) / "corner.json", Path(tmp) / "report.json"
        save_surface(doc, path)
        main([command, str(path), "--report", str(report)])
        return [(row["patches"], row["ok"]) for row in json.loads(report.read_text())["vertices"]]


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(0, 9),
    kind=st.sampled_from(sorted(_CORNER_KINDS)),
    ops=st.lists(st.sampled_from(_ORIENTATIONS), min_size=4, max_size=4),
    swaps=st.lists(st.booleans(), min_size=4, max_size=4),
    command=st.sampled_from(["check-g1", "check-g2"]),
)
def test_vertex_verdict_does_not_depend_on_the_parametrization(seed, kind, ops, swaps, command):
    # the paper's universality claim: the compatibility conditions hold or
    # fail whatever the orientation of each patch and direction of each record
    names = ["c00", "c01", "c11", "c10"]
    canonical = _vertex_verdicts(_corner_doc(seed, kind), command)
    assert canonical == [(names, _CORNER_KINDS[kind])]
    assert _vertex_verdicts(_corner_doc(seed, kind, ops, swaps), command) == canonical


def test_check_warns_once_per_folded_record_naming_its_patches(tmp_path, capsys):
    # a flat 2x2 split whose upper half is mirrored onto its lower half: the
    # two records across the fold have lambda = -1
    xs = np.linspace(0.0, 2.0, 4)
    net = np.stack([*np.meshgrid(xs, xs, indexing="ij"), np.zeros((4, 4))], axis=-1)
    ll, hl, lh, hh = split_patch(BezierPatch.from_net(net), u=0.5, v=0.5)

    def mirrored(p):
        return BezierPatch.from_net(p.net * [1.0, -1.0, 1.0] + [0.0, 2.0, 0.0])

    doc = SurfaceDocument(
        patches={"sw": ll, "se": hl, "ne": mirrored(hh), "nw": mirrored(lh)},
        edges=[EdgeCorrespondence("u1", "u0", a="sw", b="se"),
               EdgeCorrespondence("v1", "v0", a="sw", b="nw"),
               EdgeCorrespondence("v1", "v0", a="se", b="ne"),
               EdgeCorrespondence("u1", "u0", a="nw", b="ne")])
    path = tmp_path / "folded.json"
    save_surface(doc, path)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert main(["check-g1", str(path)]) == 0
    assert "vertex (ne, nw, sw, se)  max residual" in capsys.readouterr().out
    assert [str(w.message) for w in caught] == [
        "orientation-reversing join (sw:v1 ~ nw:v0): lambda is negative",
        "orientation-reversing join (se:v1 ~ ne:v0): lambda is negative"]


def _split_square(rng):
    """p1..p4 of a 2x2 split, in the canonical corner arrangement, and its four edges."""
    g = smooth_patch(rng, span=2.0, z_scale=0.3)
    ll, hl, lh, hh = split_patch(g, u=0.5, v=0.5)
    edges = [
        EdgeCorrespondence("u1", "u0", a="p1", b="p2"),
        EdgeCorrespondence("v1", "v0", a="p1", b="p4"),
        EdgeCorrespondence("v1", "v0", a="p2", b="p3"),
        EdgeCorrespondence("u1", "u0", a="p4", b="p3"),
    ]
    return {"p1": ll, "p2": hl, "p3": hh, "p4": lh}, edges


def test_find_corner_configs_skips_a_valence_3_boundary_vertex():
    patches, edges = _split_square(np.random.default_rng(114))
    del patches["p3"]
    doc = SurfaceDocument(patches=patches, edges=edges[:2])
    assert find_corner_configs(doc, _reports(doc)) == []


def test_find_corner_configs_skips_a_cycle_with_a_missing_edge_record():
    patches, edges = _split_square(np.random.default_rng(115))
    for k in range(4):
        doc = SurfaceDocument(patches=patches, edges=edges[:k] + edges[k + 1:])
        assert find_corner_configs(doc, _reports(doc)) == []


def test_find_corner_configs_skips_a_corner_glued_twice_on_one_side():
    # p1:u1 carries both records at the vertex and p1:v1 none; the nets are
    # the canonical square, so only the records can reject it
    patches, edges = _split_square(np.random.default_rng(119))
    edges[1] = EdgeCorrespondence("u1", "v0", a="p1", b="p4")
    doc = SurfaceDocument(patches=patches, edges=edges)
    # the records are read by topology only, so the edge reports are not consulted
    assert find_corner_configs(doc, [None] * len(edges)) == []


@pytest.mark.parametrize("command", ["check-g1", "check-g2"])
def test_check_commands_evaluate_sides_only_in_check_edges(monkeypatch, capsys, command):
    # every module that binds the side evaluator is counted, so a vertex
    # search that evaluated sides of its own would show up here
    inside, sides = [], []
    builder = check_edges.__code__

    def counting(batch, requests, units=None):
        frame = sys._getframe(1)
        while frame is not None and frame.f_code is not builder:
            frame = frame.f_back
        inside.append(frame is not None)
        sides.append([(len(batch), len(t), order) for t, order in requests])
        return _edge_jets(batch, requests, units)

    modules = [m for name, m in sys.modules.items()
               if name.startswith("smoothpatch") and hasattr(m, "_edge_jets")]
    assert modules
    for module in modules:
        monkeypatch.setattr(module, "_edge_jets", counting)
    path = DATA / "mixed_grid.json"
    assert main([command, str(path)]) == 2
    assert capsys.readouterr().out.count("vertex (") == 4
    # one call: the solve and the verify sample sets, each side of each record once per set
    n_sides, order = 2 * len(load_surface(path).edges), 1 if command == "check-g1" else 2
    assert inside == [True]
    assert sides == [[(n_sides, SOLVE_SAMPLES, order), (n_sides, VERIFY_SAMPLES, 1)]]


def test_cli_complete_4patch_rebuilds_its_own_output(tmp_path):
    rng = np.random.default_rng(117)
    g = smooth_patch(rng, span=2.0, z_scale=0.3)
    ll, hl, lh, _ = split_patch(g, u=0.5, v=0.5)
    doc = SurfaceDocument(
        patches={"r1": ll, "r2": hl, "r4": lh},
        edges=[EdgeCorrespondence("u1", "u0", a="r1", b="r2"),
               EdgeCorrespondence("v1", "v0", a="r1", b="r4")],
    )
    path, once, twice = tmp_path / "corner.json", tmp_path / "once.json", tmp_path / "twice.json"
    save_surface(doc, path)
    assert main(["complete-4patch", str(path), "-o", str(once)]) == 0
    assert main(["complete-4patch", str(once), "-o", str(twice)]) == 0
    assert twice.read_bytes() == once.read_bytes()
    assert len(load_surface(twice).edges) == 4


@pytest.mark.parametrize("flags", [[], ["--deg6"]])
def test_cli_fill_hole_rebuilds_its_own_output(tmp_path, flags):
    ring_path, once, twice = tmp_path / "ring.json", tmp_path / "once.json", tmp_path / "twice.json"
    save_surface(ring_doc(np.random.default_rng(118)), ring_path)
    assert main(["fill-hole", str(ring_path), *flags, "-o", str(once)]) == 0
    assert main(["fill-hole", str(once), *flags, "-o", str(twice)]) == 0
    assert twice.read_bytes() == once.read_bytes()
    assert len(load_surface(twice).edges) == 12
