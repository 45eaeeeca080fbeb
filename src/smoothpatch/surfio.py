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

Floats are written with 17 significant digits so documents round-trip
exactly, and all emitters order fields deterministically so identical
inputs produce byte-identical files.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass, field

import numpy as np

from .bezier import BezierPatch, SIDES, _eval_grids, _grid_faces
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
_quote = json.JSONEncoder(ensure_ascii=False).encode  # escapes per RFC 8259


class SurfaceFormatError(ValueError):
    """Malformed surface document; the message names the offending field."""


@dataclass(frozen=True, eq=False)
class SurfaceDocument:
    """Named patches plus the shared-edge records connecting them.

    Patch names hold no control character (Unicode category Cc, line breaks among
    them), each edge joins two different sides, and no two edges join the same pair of sides.
    """

    patches: dict  # name -> BezierPatch, insertion-ordered
    edges: list = field(default_factory=list)  # EdgeCorrespondence with names
    version: int = FORMAT_VERSION

    def __post_init__(self):
        for k, name in enumerate(self.patches):
            _expect(isinstance(name, str) and not re.search("[\x00-\x1f\x7f-\x9f]", name),
                    f"patches[{k}].name", f"must be a string without control characters, got {name!r}")
        seen = {}
        for k, corr in enumerate(self.edges):
            for key in ("a", "b"):
                name = getattr(corr, key)
                _expect(name in self.patches, f"edges[{k}].{key}", f"unknown patch name {name!r}")
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


# --- deterministic JSON emission -------------------------------------------

def _float_array_template(shape) -> str:
    """``%`` template that writes a float array of ``shape`` as nested JSON lists."""
    if not shape:
        return "%.17g"
    inner = _float_array_template(shape[1:])
    return "[" + ", ".join([inner] * shape[0]) + "]"


def _emit(obj, out):
    if isinstance(obj, np.ndarray) and obj.dtype.kind == "f":
        # the whole array in one formatting pass; "%.17g" % x is format(x, ".17g")
        out.append(_float_array_template(obj.shape) % tuple(obj.ravel().tolist()))
    elif isinstance(obj, dict):
        out.append("{")
        for k, key in enumerate(obj):
            if k:
                out.append(", ")
            _emit(str(key), out)
            out.append(": ")
            _emit(obj[key], out)
        out.append("}")
    elif isinstance(obj, (list, tuple)):
        out.append("[")
        for k, item in enumerate(obj):
            if k:
                out.append(", ")
            _emit(item, out)
        out.append("]")
    elif isinstance(obj, str):
        out.append(_quote(obj))
    elif isinstance(obj, bool):
        out.append("true" if obj else "false")
    elif obj is None:
        out.append("null")
    elif isinstance(obj, (int, np.integer)):
        out.append(str(int(obj)))
    elif isinstance(obj, (float, np.floating)):
        text = format(float(obj), ".17g")
        # an integral value keeps a fraction, so that readers load a float
        out.append(text + ".0" if text.lstrip("-").isdigit() else text)
    else:
        raise TypeError(f"cannot serialize {type(obj).__name__}")


def dumps_json(obj) -> str:
    """Serialize with 17-significant-digit floats and stable field order."""
    out: list[str] = []
    _emit(obj, out)
    return "".join(out)


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


def _expect(cond, where, msg):
    if not cond:
        raise SurfaceFormatError(f"{where}: {msg}")


def load_surface(path) -> SurfaceDocument:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            raw = json.load(fh)
        except json.JSONDecodeError as exc:
            raise SurfaceFormatError(f"{path}: not valid JSON ({exc})") from None
    _expect(isinstance(raw, dict), "document", "top level must be an object")
    _expect(raw.get("version") == FORMAT_VERSION, "version",
            f"expected {FORMAT_VERSION}, got {raw.get('version')!r}")
    _expect(isinstance(raw.get("patches"), list), "patches", "must be a list")
    patches: dict[str, BezierPatch] = {}
    for k, entry in enumerate(raw["patches"]):
        where = f"patches[{k}]"
        _expect(isinstance(entry, dict), where, "must be an object")
        name = entry.get("name")
        _expect(isinstance(name, str) and name, f"{where}.name", "must be a non-empty string")
        _expect(name not in patches, f"{where}.name", f"duplicate patch name {name!r}")
        du, dv = entry.get("degree_u"), entry.get("degree_v")
        for key, deg in (("degree_u", du), ("degree_v", dv)):
            _expect(isinstance(deg, int) and not isinstance(deg, bool) and deg >= 1,
                    f"{where}.{key}", "must be an integer >= 1")
        net = entry.get("net")
        _expect(isinstance(net, list), f"{where}.net", "must be a list of [x, y, z]")
        expected = (du + 1) * (dv + 1)
        _expect(
            len(net) == expected, f"{where}.net",
            f"patch {name!r} needs {expected} points for bi-degree ({du}, {dv}), got {len(net)}",
        )
        try:
            arr = np.array(net, dtype=float).reshape(du + 1, dv + 1, 3)
        except (ValueError, TypeError):
            raise SurfaceFormatError(
                f"{where}.net: points of patch {name!r} must be [x, y, z] triples"
            ) from None
        _expect(np.all(np.isfinite(arr)), f"{where}.net",
                f"patch {name!r} has non-finite coordinates")
        patches[name] = BezierPatch(du, dv, arr)
    edges = []
    _expect(isinstance(raw.get("edges", []), list), "edges", "must be a list")
    for k, entry in enumerate(raw.get("edges", [])):
        where = f"edges[{k}]"
        _expect(isinstance(entry, dict), where, "must be an object")
        for key in ("a", "b"):  # SurfaceDocument checks that a string names a patch
            _expect(isinstance(entry.get(key), str), f"{where}.{key}",
                    f"unknown patch name {entry.get(key)!r}")
        for key in ("a_side", "b_side"):
            _expect(entry.get(key) in SIDES, f"{where}.{key}",
                    f"must be one of {SIDES}")
        rev = entry.get("reversed", False)
        _expect(isinstance(rev, bool), f"{where}.reversed", "must be a boolean")
        edges.append(EdgeCorrespondence(
            a_side=entry["a_side"], b_side=entry["b_side"], reversed=rev,
            a=entry["a"], b=entry["b"],
        ))
    return SurfaceDocument(patches=patches, edges=edges)


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
