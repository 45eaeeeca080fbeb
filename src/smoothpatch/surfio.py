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

import functools
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
    edge joins two different sides, and no two edges join the same pair of sides: every
    document that constructs saves and loads back, as version ``FORMAT_VERSION``.
    ``patches`` maps name to BezierPatch in insertion order, and ``edges`` holds
    EdgeCorrespondence records with names.
    """

    __slots__ = ("patches", "edges")
    _defaults = {"edges": list}

    def __post_init__(self):
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
    return {"version": FORMAT_VERSION, "patches": patches, "edges": edges}


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
    return SurfaceDocument(patches, edges)


# OBJ text.  Every number is written as ``'%.17g' % x`` or ``'%d' % i`` writes it, but for
# whole arrays at once: a record is a row of little-endian words whose bytes spell its
# text, a NUL byte stands for no byte, and ``bytes.translate`` deletes the NULs.

_BLOCK = 2048  # vertices formatted at once, in whole patches; chosen by measurement
_U64 = np.uint64


@functools.lru_cache(maxsize=1)
def _text_tables():
    """Read-only tables of the OBJ formatter, built on first use.

    ``words`` holds the four ASCII digits of 0..9999 in the low bytes of a
    word, then the same with leading zeros as NULs; ``zeros`` the trailing
    zero digits of each (4 for 0); ``powers`` 10^0..10^22, all exact;
    ``heads`` the sign and the "0." of a fixed-notation number in bytes 2-7,
    indexed by the zeros it starts with (0-4) plus 5 if negative.  Entry
    3n + k of ``below``, ``above`` and ``dots`` is word k of a string of
    three words: its bytes below byte n, its bytes above byte n and a point
    at byte n, for n from 0 to 24.
    """
    g = np.arange(10000)
    words = sum((g // place % 10 + 48) << 8 * k for k, place in enumerate((1000, 100, 10, 1)))
    leading = sum(g < place for place in (1000, 100, 10, 1))  # the zeros before the first digit
    words = np.concatenate([words, words & ~((1 << 8 * leading) - 1)]).astype(_U64)
    zeros = sum(g % place == 0 for place in (10, 100, 1000, 10000)).astype(np.uint8)
    powers = np.array([float(10**k) for k in range(23)])
    heads = np.array([int.from_bytes(("\0\0" + "-" * (k > 4) + "0.000"[:k % 5 + 1] * (k % 5 > 0))
                                     .encode(), "little") for k in range(10)], _U64)
    shift = (8 * (np.arange(26)[:, None] - 8 * np.arange(3)).clip(0, 8)).astype(_U64)
    masks = ((_U64(1) << shift) - _U64(1)).ravel()  # a shift by 64 bits gives 0
    tables = (words, zeros, powers, heads, masks[:-3], ~masks[3:],
              (masks[3:] ^ masks[:-3]) & _U64(0x2E2E2E2E2E2E2E2E))
    for table in tables:
        table.flags.writeable = False
    return tables


def _split(a):
    """Veltkamp's split of doubles into halves of 26 bits, ``a = hi + lo`` exactly."""
    c = 134217729.0 * a
    hi = c - (c - a)
    return hi, a - hi


def _float_words(x) -> np.ndarray:
    """``'%.17g' % v`` of each float v of the 1-D ``x`` in bytes 2-25 of four words, NUL elsewhere.

    Values with 1e-4 <= |v| < 1e15 are exactly those ``%g`` writes in fixed
    notation: from 17 correctly rounded digits D * 10^(E - 16), 10^16 <= D
    < 10^17 and -4 <= E <= 14.  E starts as floor(log10 |v|), one off at
    most, and |v| * 10^(16 - E) is formed exactly, as the rounded product p
    plus its error (Dekker's product; 10^(16 - E) is exact).  p is an even
    integer, so D is p plus the error rounded half to even.  No double in
    the range lies within half a unit of the 17th digit below a power of
    ten, so D never rounds up to 10^17.  The digits of D come from the
    tables, trailing zeros after the point are cut, and the point goes in by
    shifting the bytes after it up one.  Every other value (+-0, NaN, +-inf,
    subnormals, exponent notation) is formatted by ``%``.
    """
    words, zeros, powers, heads, below, above, dots = _text_tables()
    a = np.abs(x)
    fast = (a >= 1e-4) & (a < 1e15)  # NaN is not
    y = np.where(fast, a, 1.0)
    exp10 = np.floor(np.log10(y))
    while True:
        scale = np.take(powers, (16.0 - exp10).astype(np.intp))
        p = y * scale
        (yh, yl), (sh, sl) = _split(y), _split(scale)
        err = yl * sl - (((p - yh * sh) - yl * sh) - yh * sl)
        # p + err against 10^16 and 10^17: p is exact next to them and |err| is below
        # p's spacing there, so the rounded sums keep the signs of the exact ones
        under = (p - 1e16) + err < 0.0
        over = (p - 1e17) + err >= 0.0
        if not (under | over).any():
            break
        exp10 += over
        exp10 -= under
    d = p.astype(np.int64) + np.rint(err).astype(np.int64)
    e = exp10.astype(np.int64)
    # digits 0-7 and 8-15 of D, four at a time, then digit 16
    tens, high = d // 10, d // 10**9
    mid, last = tens - high * 10**8, d - tens * 10
    first, third = high // 10**4, mid // 10**4
    groups = [first, high - first * 10**4, third, mid - third * 10**4]
    text = [np.take(words, groups[0]) | np.take(words, groups[1]) << _U64(32),
            np.take(words, groups[2]) | np.take(words, groups[3]) << _U64(32),
            (last + 48).astype(_U64)]
    cut = 0  # trailing zeros, from digit 16 up while the groups after are all zeros
    for g in groups:
        cut = np.take(zeros, g) + (g == 0) * cut
    shown = np.maximum(17 - (last == 0) * (1 + cut), e + 1)  # never cut the integer part
    # the byte the point goes to; none (24) below 1, where "0." leads, or without a fraction
    point = 3 * (e + 1 + ((e < 0) | (shown <= e + 1)) * (23 - e))
    out = np.empty((len(x), 4), _U64)
    out[:, 0] = np.take(heads, np.maximum(-e, 0) + 5 * (x < 0.0))
    carry = 0
    for k, word in enumerate(text):
        kept = word & np.take(below, 3 * shown + k)
        at = point + k
        out[:, 1 + k] = ((kept & np.take(below, at)) | np.take(dots, at)
                         | ((kept << _U64(8)) | carry) & np.take(above, at))
        carry = kept >> _U64(56)
    slow = np.flatnonzero(~fast)
    if slow.size:
        padded = "".join(("\0\0" + "%.17g" % v).ljust(32, "\0") for v in x[slow].tolist())
        out[slow] = np.frombuffer(padded.encode("ascii"), "<u8").reshape(-1, 4)
    return out.astype("<u8", copy=False)


def _face_text(indices, width: int) -> np.ndarray:
    """The ``f a b c`` records of 1-based ``indices`` (n, 3) below 10^width, as NUL-padded rows."""
    words, count = _text_tables()[0], -(-width // 4)
    digits = np.empty((indices.size, count), "<u4")
    above = 0
    for k in range(count):  # four digits at a time; leading zeros are NULs
        head = indices.ravel() // 10 ** (4 * (count - 1 - k))
        digits[:, k] = np.take(words, head - above * 10**4 + 10000 * (above == 0))
        above = head
    rows = np.empty((len(indices), 3 * width + 5), np.uint8)
    rows[:, 0], rows[:, -1] = ord("f"), ord("\n")
    fields = rows[:, 1:-1].reshape(len(indices), 3, width + 1)
    fields[..., 0] = ord(" ")
    fields[..., 1:] = digits.view(np.uint8)[:, 4 * count - width:].reshape(len(indices), 3, width)
    return rows


def export_obj(doc: SurfaceDocument, nu: int, nv: int, path) -> None:
    """Write one OBJ object per patch (o/v/f records, 1-based global indices).

    Coordinates are written as ``'%.17g' % x`` writes them and indices as
    ``'%d' % i``, to the byte, for as many whole patches at once as have at
    most ``_BLOCK`` vertices (or for one patch).
    """
    faces = _grid_faces(nu, nv) + 1
    grids = _eval_grids(list(doc.patches.values()), np.linspace(0.0, 1.0, nu + 1),
                        np.linspace(0.0, 1.0, nv + 1))
    names, per_patch = list(doc.patches), (nu + 1) * (nv + 1)
    step, width = max(1, _BLOCK // per_patch), len(str(per_patch * len(names)))
    with open(path, "wb") as fh:
        if not names:
            fh.write(b"\n")
        for first in range(0, len(names), step):
            block = names[first:first + step]
            vertices = _float_words(grids[first:first + step].ravel()).reshape(len(block), -1, 3, 4)
            vertices[..., 0] |= np.array([ord("v") | ord(" ") << 8, ord(" "), ord(" ")], "<u8")
            vertices[..., 2, 3] |= np.array(ord("\n") << 56, "<u8")
            offsets = per_patch * np.arange(first, first + len(block))[:, None, None]
            face_rows = _face_text((faces + offsets).reshape(-1, 3), width)
            for name, v, f in zip(block, vertices, face_rows.reshape(len(block), -1)):
                fh.write(f"o {name}\n".encode("utf-8"))
                fh.write(v.tobytes().translate(None, b"\0"))
                fh.write(f.tobytes().translate(None, b"\0"))
