"""Surface document serialization (JSON), OBJ export and check reports.

The surface schema is deliberately minimal and diff-friendly::

    {
      "version": 1,
      "patches": [
        {"name": "r1", "degree_u": 3, "degree_v": 3,
         "net": [[x, y, z], ...]}          # row-major, u index outermost
      ],
      "edges": [
        {"a": "r1", "a_side": "u1", "b": "r2", "b_side": "u0",
         "reversed": false}
      ]
    }

Documents and reports are written by ``json.dumps``: a float is the shortest
text that reads back as the same float (``repr``), so documents round-trip
exactly, and fields keep a fixed order, so identical inputs produce
byte-identical files.  Patch names hold no control character and no lone
surrogate, so every writer (JSON, OBJ) can encode them as UTF-8.
"""

from __future__ import annotations

import itertools
import json
import re

import numpy as np

from .bezier import BezierPatch, SIDES, _eval_grids, _grid_faces, _Record
from .continuity import EdgeCorrespondence

__all__ = [
    "SurfaceFormatError",
    "SurfaceDocument",
    "load_surface",
    "save_surface",
    "export_obj",
    "dumps_json",
]

FORMAT_VERSION = 1
_NAME = re.compile("[^\x00-\x1f\x7f-\x9f\ud800-\udfff]+")  # no control character or surrogate


class SurfaceFormatError(ValueError):
    """Malformed surface document; the message names the offending field."""


class SurfaceDocument(_Record):
    """Named patches plus the shared-edge records connecting them.

    Patch names are non-empty and hold no control character (Unicode category Cc, line
    breaks among them) and no surrogate (U+D800-U+DFFF, which UTF-8 cannot encode), each
    edge joins two different sides, no two edges join the same pair of sides, and the
    version is ``FORMAT_VERSION``: every document that constructs saves and loads back.
    ``patches`` maps name to BezierPatch in insertion order, and ``edges`` holds
    EdgeCorrespondence records with names.
    """

    __slots__ = ("patches", "edges", "version")
    _defaults = {"edges": list, "version": FORMAT_VERSION}

    def __post_init__(self):
        if type(self.version) is not int or self.version != FORMAT_VERSION:
            raise SurfaceFormatError(f"version: expected {FORMAT_VERSION}, got {self.version!r}")
        for k, name in enumerate(self.patches):
            if not isinstance(name, str) or not _NAME.fullmatch(name):
                raise SurfaceFormatError(f"patches[{k}].name: must be a non-empty string without "
                                         f"control characters or surrogates, got {name!r}")
        seen = {}
        for k, corr in enumerate(self.edges):
            for key in ("a", "b"):
                name = getattr(corr, key)
                if name not in self.patches:
                    raise SurfaceFormatError(f"edges[{k}].{key}: unknown patch name {name!r}")
            ends = frozenset({(corr.a, corr.a_side), (corr.b, corr.b_side)})
            if len(ends) == 1:
                raise SurfaceFormatError(
                    f"edges[{k}]: glues side {corr.a}:{corr.a_side} to itself")
            if ends in seen:
                raise SurfaceFormatError(f"edges[{k}]: duplicates edges[{seen[ends]}]")
            seen[ends] = k

    def patch(self, name: str) -> BezierPatch:
        try:
            return self.patches[name]
        except KeyError:
            raise SurfaceFormatError(f"patches: no patch named {name!r}") from None


def _numpy_to_python(obj):
    if isinstance(obj, (np.ndarray, np.generic)):
        return obj.tolist()
    raise TypeError(f"cannot serialize {type(obj).__name__}")


def dumps_json(obj) -> str:
    """``json.dumps`` that also writes numpy arrays and scalars; fields keep their order."""
    return json.dumps(obj, ensure_ascii=False, default=_numpy_to_python)


def _document_dict(doc: SurfaceDocument) -> dict:
    patches = []
    for name, p in doc.patches.items():
        patches.append({
            "name": name,
            "degree_u": p.degree_u,
            "degree_v": p.degree_v,
            "net": p.net.reshape(-1, 3),
        })
    edges = [
        {"a": c.a, "a_side": c.a_side, "b": c.b, "b_side": c.b_side,
         "reversed": bool(c.reversed)}
        for c in doc.edges
    ]
    return {"version": doc.version, "patches": patches, "edges": edges}


def save_surface(doc: SurfaceDocument, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(dumps_json(_document_dict(doc)))
        fh.write("\n")


def _points(points, name=None):
    """``(array, None)`` for [x, y, z] triples of finite numbers, else ``(None, message)``."""
    try:  # types first: a string or boolean coordinate would convert silently; null is NaN
        numbers = set(map(type, itertools.chain.from_iterable(points))) <= {int, float, type(None)}
        arr = np.array(points, dtype=float) if numbers else None
    except (TypeError, ValueError):  # a point that is no list, or ragged points
        arr = None
    except OverflowError:  # an integer beyond the float range
        arr = np.full((len(points), 3), np.inf)
    if arr is None or arr.shape != (len(points), 3):
        return None, f"points of patch {name!r} must be [x, y, z] triples of numbers"
    if not np.isfinite(arr).all():
        return None, f"patch {name!r} has non-finite coordinates"
    arr.flags.writeable = False
    return arr, None


def load_surface(path) -> SurfaceDocument:
    """Read a surface document; a malformed one raises ``SurfaceFormatError`` naming the field.

    The points of all patches are converted in one read-only ``np.array``,
    and each patch's net is a view of it.  Only when they fail is each
    patch's read again, to name the first patch at fault.
    """
    with open(path, "r", encoding="utf-8") as fh:
        try:
            raw = json.load(fh)
        except ValueError as exc:  # JSONDecodeError, or an integer of too many digits
            raise SurfaceFormatError(f"{path}: not valid JSON ({exc})") from None
    if not isinstance(raw, dict):
        raise SurfaceFormatError("document: top level must be an object")
    if type(raw.get("version")) is not int or raw["version"] != FORMAT_VERSION:  # true == 1 too
        raise SurfaceFormatError(f"version: expected {FORMAT_VERSION}, got {raw.get('version')!r}")
    if not isinstance(raw.get("patches"), list):
        raise SurfaceFormatError("patches: must be a list")
    heads, fault = {}, None  # name -> (index, degrees, net) of the patches before the first fault
    try:
        for k, entry in enumerate(raw["patches"]):
            if not isinstance(entry, dict):
                raise SurfaceFormatError(f"patches[{k}]: must be an object")
            name, du, dv, net = (entry.get(key) for key in ("name", "degree_u", "degree_v", "net"))
            if not isinstance(name, str):  # SurfaceDocument checks the rest of the name rule
                raise SurfaceFormatError(f"patches[{k}].name: must be a non-empty string")
            if name in heads:
                raise SurfaceFormatError(f"patches[{k}].name: duplicate patch name {name!r}")
            for key, deg in (("degree_u", du), ("degree_v", dv)):
                if not isinstance(deg, int) or isinstance(deg, bool) or deg < 1:
                    raise SurfaceFormatError(f"patches[{k}].{key}: must be an integer >= 1")
            if not isinstance(net, list):
                raise SurfaceFormatError(f"patches[{k}].net: must be a list of [x, y, z]")
            if len(net) != (du + 1) * (dv + 1):
                raise SurfaceFormatError(
                    f"patches[{k}].net: patch {name!r} needs {(du + 1) * (dv + 1)} points for "
                    f"bi-degree ({du}, {dv}), got {len(net)}")
            heads[name] = (k, du, dv, net)
    except SurfaceFormatError as exc:  # raised after the points of the patches before it
        fault = exc
    arr, why = _points([point for *_, net in heads.values() for point in net])
    if why is not None:  # name the first patch at fault
        for name, (k, *_, net) in heads.items():
            if (why := _points(net, name)[1]) is not None:
                raise SurfaceFormatError(f"patches[{k}].net: {why}")
    if fault is not None:
        raise fault
    patches, start = {}, 0
    for name, (_, du, dv, net) in heads.items():
        patches[name] = BezierPatch(du, dv, arr[start:start + len(net)].reshape(du + 1, dv + 1, 3))
        start += len(net)
    records = raw.get("edges", [])
    if not isinstance(records, list):
        raise SurfaceFormatError("edges: must be a list")
    edges = []
    for k, entry in enumerate(records):
        if not isinstance(entry, dict):
            raise SurfaceFormatError(f"edges[{k}]: must be an object")
        for key in ("a", "b"):  # SurfaceDocument checks that a string names a patch
            if not isinstance(entry.get(key), str):
                raise SurfaceFormatError(f"edges[{k}].{key}: unknown patch name {entry.get(key)!r}")
        for key in ("a_side", "b_side"):
            if entry.get(key) not in SIDES:
                raise SurfaceFormatError(f"edges[{k}].{key}: must be one of {SIDES}")
        rev = entry.get("reversed", False)
        if not isinstance(rev, bool):
            raise SurfaceFormatError(f"edges[{k}].reversed: must be a boolean")
        edges.append(EdgeCorrespondence(entry["a_side"], entry["b_side"], rev, entry["a"], entry["b"]))
    return SurfaceDocument(patches, edges, FORMAT_VERSION)


def export_obj(doc: SurfaceDocument, nu: int, nv: int, path) -> None:
    """Write one OBJ object per patch (o/v/f records, 1-based global indices)."""
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
    with open(path, "w", encoding="utf-8") as fh:
        fh.writelines(chunks or ["\n"])
