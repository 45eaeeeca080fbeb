"""The frozen records: binding, defaults, immutability, repr, equality and hashing.

Each record is compared with a frozen dataclass of the same name, fields, defaults and
``eq`` flag, built from the record's own field values: the records replaced such
dataclasses and keep their behaviour.
"""

import contextlib
import copy
import dataclasses
import io
import pickle
from pathlib import Path

import numpy as np
import pytest

from smoothpatch.bezier import BezierPatch, _Record
from smoothpatch.cli import main
from smoothpatch.construct import HoleFillParams, LinkCoefficients, NinePatchRing, TwistCheck
from smoothpatch.continuity import CompatReport, CornerConfig, EdgeChecks, EdgeCorrespondence
from smoothpatch.surfio import SurfaceDocument


def _net(seed=0):
    return np.random.default_rng(seed).normal(size=(2, 3, 3))


_COLUMN = np.arange(3.0)
_PATCH = BezierPatch.from_net(_net())

# class -> (required arguments, defaults, value equality), fields in declaration order
RECORDS = {
    BezierPatch: ({"degree_u": 1, "degree_v": 2, "net": _net()}, {}, False),
    EdgeCorrespondence: ({"a_side": "u1", "b_side": "v0"},
                         {"reversed": False, "a": "a", "b": "b"}, True),
    EdgeChecks: (dict.fromkeys(["order", "ts", "scale", "lam", "kap", "oop", "link_residual",
                                "oracle_residual", "link_ok", "oracle_ok", "ok"], _COLUMN),
                 dict.fromkeys(["mu", "nu", "g2_oop", "end_slopes", "g1_ok"]), False),
    CornerConfig: ({"values": {"12": {"lam": 1.0, "kap": 0.0}}}, {}, False),
    CompatReport: ({"g1_residuals": np.zeros(4), "lambda_product_residual": 0.0, "ok": True},
                   dict.fromkeys(["g2_residuals", "g2_ok", "vertex_values"]), False),
    SurfaceDocument: ({"patches": {"p": _PATCH}}, {"edges": [], "version": 1}, False),
    LinkCoefficients: ({"lambda0": 1.0, "alpha": 1.5, "lambda1": 2.0},
                       dict.fromkeys(["kappa0", "beta1", "beta2", "kappa1"], 0.0), True),
    TwistCheck: ({"q23": np.ones(3), "q43": np.ones(3)}, {}, True),
    NinePatchRing: ({"patches": {1: _PATCH}, "lambdas": {"12": 1.0}, "scale": 2.0}, {}, False),
    HoleFillParams: ({"mode": "deg5", "alpha": {2: 0.5}},
                     dict.fromkeys(["beta1", "beta2", "alpha1", "alpha2"], {}), True),
}
CLASSES = list(RECORDS)
# values given to some defaulted fields in place of their defaults
_OTHER = {"reversed": True, "a": "p", "b": "q", "g2_ok": False, "kappa0": 0.25,
          "beta1": {4: 0.5}, "edges": [EdgeCorrespondence("u1", "u0", a="p", b="p")]}


def _fields(cls):
    required, defaults, _ = RECORDS[cls]
    return [*required, *defaults]


def _values(record):
    return [getattr(record, name) for name in _fields(type(record))]


def _reference(cls):
    """The frozen dataclass the record stands for."""
    _, defaults, eq = RECORDS[cls]
    spec = [name if name not in defaults else
            (name, object, dataclasses.field(default_factory=type(defaults[name]))
             if isinstance(defaults[name], (list, dict)) else
             dataclasses.field(default=defaults[name])) for name in _fields(cls)]
    return dataclasses.make_dataclass(cls.__name__, spec, frozen=True, eq=eq)


def _make(cls, **overrides):
    required, _, _ = RECORDS[cls]
    return cls(**{**required, **overrides})


@pytest.mark.parametrize("cls", CLASSES, ids=lambda c: c.__name__)
def test_positional_keyword_and_default_binding_agree(cls):
    required, defaults, _ = RECORDS[cls]
    full = {**required, **{k: _OTHER.get(k, v) for k, v in defaults.items()}}
    positional, keyword = cls(*full.values()), cls(**full)
    mixed = cls(*list(full.values())[:1], **dict(list(full.items())[1:]))
    assert repr(positional) == repr(keyword) == repr(mixed)
    record = _make(cls)
    for name, default in defaults.items():
        assert getattr(record, name) == default
    for name in required:
        if name != "net":  # copied into a read-only array
            assert getattr(record, name) is required[name]


@pytest.mark.parametrize("cls", [SurfaceDocument, HoleFillParams], ids=lambda c: c.__name__)
def test_each_record_gets_a_fresh_default_container(cls):
    one, two = _make(cls), _make(cls)
    for name, default in RECORDS[cls][1].items():
        if isinstance(default, (list, dict)):
            assert getattr(one, name) == default and getattr(one, name) is not getattr(two, name)


def test_binding_errors_name_the_argument():
    with pytest.raises(TypeError, match=r"^EdgeCorrespondence\(\) missing argument 'b_side'$"):
        EdgeCorrespondence("u1")
    with pytest.raises(TypeError, match=r"got an unexpected keyword argument 'side'$"):
        EdgeCorrespondence("u1", "u0", side="v0")
    with pytest.raises(TypeError, match=r"got multiple values for argument 'a_side'$"):
        EdgeCorrespondence("u1", "u0", a_side="v0")
    with pytest.raises(TypeError, match=r"takes 5 arguments but 6 were given$"):
        EdgeCorrespondence("u1", "u0", False, "a", "b", "c")


@pytest.mark.parametrize("cls", CLASSES, ids=lambda c: c.__name__)
def test_fields_cannot_be_assigned_or_deleted(cls):
    record = _make(cls)
    for name in (_fields(cls)[0], "extra"):
        with pytest.raises(AttributeError):
            setattr(record, name, 1)
        with pytest.raises(AttributeError):
            delattr(record, name)
    assert not hasattr(record, "__dict__")


@pytest.mark.parametrize("cls", CLASSES, ids=lambda c: c.__name__)
def test_repr_is_the_dataclass_repr(cls):
    record = _make(cls, **{k: v for k, v in _OTHER.items() if k in RECORDS[cls][1]})
    assert repr(record) == repr(_reference(cls)(*_values(record)))


def _outcome(fn):
    """What ``fn()`` returns, or the type of what it raises."""
    try:
        return fn()
    except Exception as exc:
        return type(exc)


@pytest.mark.parametrize("cls", CLASSES, ids=lambda c: c.__name__)
def test_equality_and_hashing_are_those_of_the_dataclass(cls):
    eq = RECORDS[cls][2]
    one, two = _make(cls), _make(cls)
    ref = _reference(cls)
    ref_one, ref_two = ref(*_values(one)), ref(*_values(two))
    assert one == one and (one != object()) and (one == ref_one) is False
    assert _outcome(lambda: one == two) == _outcome(lambda: ref_one == ref_two)
    assert (_outcome(lambda: hash(one) == hash(two))
            == _outcome(lambda: hash(ref_one) == hash(ref_two)))
    if not eq:
        assert one != two and hash(one) == object.__hash__(one)


def test_value_records_compare_and_hash_by_their_fields():
    corr = EdgeCorrespondence("u1", "u0", True, a="p", b="q")
    assert corr == EdgeCorrespondence("u1", "u0", reversed=True, a="p", b="q")
    assert corr != EdgeCorrespondence("u1", "u0", reversed=False, a="p", b="q")
    assert len({corr, EdgeCorrespondence("u1", "u0", True, "p", "q")}) == 1
    link = LinkCoefficients(1.0, 1.5, 2.0, beta1=0.5)
    assert link == LinkCoefficients(1.0, 1.5, 2.0, 0.0, 0.5) and hash(link) == hash(
        LinkCoefficients(1.0, 1.5, 2.0, 0.0, 0.5))
    assert link != LinkCoefficients(1.0, 1.5, 2.0)
    assert HoleFillParams("deg5", {2: 0.5}) == HoleFillParams("deg5", {2: 0.5}, {}, {})


@pytest.mark.parametrize("cls", CLASSES, ids=lambda c: c.__name__)
def test_records_copy_and_pickle(cls):
    record = _make(cls)
    for clone in (copy.copy(record), pickle.loads(pickle.dumps(record))):
        assert type(clone) is cls and repr(clone) == repr(record)


@pytest.mark.parametrize("argv", [
    ["check-g1", "mixed_grid.json"], ["check-g2", "mixed_grid.json"],
    ["export", "mixed_grid.json", "--obj", "{out}.obj", "--samples", "8,8"],
    ["complete-4patch", "cli_golden/corner.json", "-o", "{out}.json"],
    ["fill-hole", "cli_golden/ring.json", "-o", "{out}.json"],
    ["fill-hole", "cli_golden/ring.json", "--deg6", "-o", "{out}.json"],
    ["fillet", "cli_golden/strip_a.json", "cli_golden/strip_b.json", "-n", "4", "-o", "{out}.json"],
], ids=lambda argv: " ".join(a for a in argv if not a.endswith(".json")))
def test_library_code_builds_every_record_positionally(argv, monkeypatch, tmp_path):
    # binding keywords and defaults is the slow path of a record, left to callers outside
    # the package: a load builds one record per edge and a check one per vertex
    bound = []
    bind = _Record._bind
    monkeypatch.setattr(_Record, "_bind", lambda self, *a: bound.append(type(self).__name__) or bind(self, *a))
    data = Path(__file__).parent / "data"
    argv = [a.format(out=tmp_path / "out") if "{" in a else str(data / a) if a.endswith(".json") else a
            for a in argv]
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(argv) in (0, 2)
    assert bound == []
