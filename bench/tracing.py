"""Spans and counts around smoothpatch's public functions, for traced runs.

``Tracer.install`` replaces every public function of the bezier, continuity,
cli, construct and surfio modules, in every smoothpatch namespace that binds
it, with a wrapper that records a span: name, start, end, parent span and the
operation it belongs to.  ``uninstall`` puts the originals back, so untraced
operations run the program unchanged.  Spans stay in memory until the run
ends.
"""

from __future__ import annotations

import functools
import os
import sys
import time
import types
from array import array

import numpy as np

MODULES = ("bezier", "continuity", "cli", "construct", "surfio")
CLASS_METHODS = (("continuity", "CornerConfig", "from_patches"),
                 ("continuity", "CornerConfig", "solve_g2"),
                 ("construct", "NinePatchRing", "from_patches"))
_WRITERS = ("surfio.save_surface", "surfio.export_obj")


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.nid = array("l")
        self.parent = array("l")
        self.op = array("l")
        self.outer = array("b")  # no enclosing span of the same name
        self.start = array("d")
        self.end = array("d")
        self.bytes_written = 0
        self.current_op = -1
        self._stack: list[int] = []
        self._depth: list[int] = []
        self._saved: list = []

    def _wrap(self, name, fn):
        nid = self._ids.setdefault(name, len(self.names))
        if nid == len(self.names):
            self.names.append(name)
            self._depth.append(0)
        stack, depth, clock = self._stack, self._depth, time.perf_counter
        writes = name in _WRITERS

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(self.start)
            self.nid.append(nid)
            self.parent.append(stack[-1] if stack else -1)
            self.op.append(self.current_op)
            self.outer.append(depth[nid] == 0)
            self.end.append(0.0)
            stack.append(idx)
            depth[nid] += 1
            self.start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end[idx] = clock()
                depth[nid] -= 1
                stack.pop()
            if writes:  # only a write that returned normally left a file
                self.bytes_written += os.path.getsize(args[-1])
            return result

        return traced

    def install(self):
        pkg = sys.modules["smoothpatch"]
        mods = {m: sys.modules[f"smoothpatch.{m}"] for m in MODULES}
        owners = {f"smoothpatch.{m}": m for m in MODULES}
        wrappers = {}
        for ns in (pkg, *mods.values()):
            for attr, value in list(vars(ns).items()):
                home = owners.get(getattr(value, "__module__", None))
                if home and not attr.startswith("_") and isinstance(value, types.FunctionType):
                    if value not in wrappers:
                        wrappers[value] = self._wrap(f"{home}.{value.__name__}", value)
                    self._saved.append((ns, attr, value))
                    setattr(ns, attr, wrappers[value])
        for mod, cls_name, meth in CLASS_METHODS:
            cls = getattr(mods[mod], cls_name)
            original = cls.__dict__[meth]
            self._saved.append((cls, meth, original))
            fn = self._wrap(f"{mod}.{cls_name}.{meth}", original.__func__
                            if isinstance(original, classmethod) else original)
            setattr(cls, meth, classmethod(fn) if isinstance(original, classmethod) else fn)

    def uninstall(self):
        for owner, attr, value in reversed(self._saved):
            setattr(owner, attr, value)
        self._saved.clear()

    def arrays(self):
        return {
            "nid": np.array(self.nid, dtype=np.int64),
            "parent": np.array(self.parent, dtype=np.int64),
            "op": np.array(self.op, dtype=np.int64),
            "outer": np.array(self.outer, dtype=bool),
            "start": np.array(self.start),
            "end": np.array(self.end),
        }


def summarize(tracer: Tracer) -> dict:
    """Per function name: calls, inclusive seconds (outermost spans) and self seconds."""
    a = tracer.arrays()
    dur = a["end"] - a["start"]
    has_parent = a["parent"] >= 0
    child = np.bincount(a["parent"][has_parent], weights=dur[has_parent], minlength=len(dur))
    self_s = dur - child
    n = len(tracer.names)
    calls = np.bincount(a["nid"], minlength=n)
    incl = np.bincount(a["nid"], weights=np.where(a["outer"], dur, 0.0), minlength=n)
    own = np.bincount(a["nid"], weights=self_s, minlength=n)
    out = {name: {"calls": int(calls[i]), "s": float(incl[i]), "self_s": float(own[i])}
           for i, name in enumerate(tracer.names)}
    # check_vertex_g2 calls check_vertex_g1: count the pair's time once
    ids = [tracer._ids.get(f"continuity.check_vertex_g{k}") for k in (1, 2)]
    in_pair = np.isin(a["nid"], [i for i in ids if i is not None])
    parent_in_pair = np.zeros_like(in_pair)
    parent_in_pair[has_parent] = in_pair[a["parent"][has_parent]]
    out["continuity.check_vertex"] = {"s": float(dur[in_pair & ~parent_in_pair].sum())}
    return out


def ops_calls(tracer: Tracer, name: str, ops) -> int:
    """Calls of ``name`` made inside the given operation indices."""
    nid = tracer._ids.get(name)
    if nid is None:
        return 0
    a = tracer.arrays()
    return int(np.count_nonzero((a["nid"] == nid) & np.isin(a["op"], list(ops))))
