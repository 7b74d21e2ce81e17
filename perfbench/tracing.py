"""Span tracing for the benchmark's traced repetition.

Tracer.install wraps the public functions of each eil module (its __all__)
and a few MonomialIdeal / VerificationReport methods.  The modules import
each other's functions by name (`from .depth import depth_ideal`), so a
function is replaced wherever an eil module holds it, not only where it is
defined; otherwise calls through eil.checks.depth_ideal, eil.depth.polarize
or eil.suite.check_* would escape the trace.  minimalize is looked up as a
global of eil.ideals at call time, so its one binding there is enough.

Each call records a span (name, parent span, start, end) in four flat
arrays.  A span's self time is its duration minus the durations of its
direct children; calls are strictly nested in one thread, so the self times
of a span's subtree add up to its duration exactly.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
import time
from array import array

LAYERS = ("catalog", "graphs", "ideals", "depth", "checks", "suite")

# (module, class, method, span name) for methods on the traced paths
METHODS = (
    ("ideals", "MonomialIdeal", "__add__", "ideals.add"),
    ("ideals", "MonomialIdeal", "__mul__", "ideals.mul"),
    ("ideals", "MonomialIdeal", "__pow__", "ideals.pow"),
    ("ideals", "MonomialIdeal", "colon", "ideals.colon"),
    ("ideals", "MonomialIdeal", "intersect", "ideals.intersect"),
    ("ideals", "MonomialIdeal", "with_ambient", "ideals.with_ambient"),
    ("ideals", "MonomialIdeal", "contains", "ideals.contains"),
    ("suite", "VerificationReport", "write", "suite.report_write"),
)


class Tracer:
    """In-memory span recorder; one per traced interpreter."""

    def __init__(self):
        self.names: list[str] = []
        self.name_ids = array("i")
        self.parents = array("i")
        self.starts = array("q")
        self.ends = array("q")
        self._stack = [-1]
        self._restore: list[tuple[object, str, object]] = []

    def span_id(self, name: str) -> int:
        if name not in self.names:
            self.names.append(name)
        return self.names.index(name)

    def wrap(self, name: str, fn, observe=None):
        """fn, recording one span per call; observe(span, args, result) runs
        after the span closes, so its cost lands in the caller's self time."""
        nid = self.span_id(name)
        name_ids, parents, starts, ends = self.name_ids, self.parents, self.starts, self.ends
        stack = self._stack
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(starts)
            name_ids.append(nid)
            parents.append(stack[-1])
            ends.append(0)
            stack.append(idx)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()
            if observe is not None:
                observe(idx, args, result)
            return result

        return traced

    def call(self, name: str, fn, *args, **kwargs):
        """Run fn(*args, **kwargs) as one span; returns (span index, result)."""
        idx = len(self.starts)
        return idx, self.wrap(name, fn)(*args, **kwargs)

    def install(self, observers: dict):
        """Wrap the traced functions in every loaded eil module."""
        modules = [m for k, m in sorted(sys.modules.items()) if k == "eil" or k.startswith("eil.")]
        for layer in LAYERS:
            home = sys.modules[f"eil.{layer}"]
            for attr in home.__all__:
                fn = getattr(home, attr)
                if (isinstance(fn, type) or not callable(fn)
                        or getattr(fn, "__module__", None) != home.__name__
                        or inspect.isgeneratorfunction(fn)):
                    continue
                name = f"{layer}.{attr}"
                traced = self.wrap(name, fn, observers.get(name))
                for module in modules:
                    for key, value in list(vars(module).items()):
                        if value is fn:
                            self._patch(module, key, traced)
        for layer, cls_name, attr, name in METHODS:
            cls = getattr(sys.modules[f"eil.{layer}"], cls_name)
            self._patch(cls, attr, self.wrap(name, cls.__dict__[attr], observers.get(name)))

    def _patch(self, owner, key, value):
        self._restore.append((owner, key, getattr(owner, key)))
        setattr(owner, key, value)

    def uninstall(self):
        while self._restore:
            owner, key, value = self._restore.pop()
            setattr(owner, key, value)

    # -- reading the spans -------------------------------------------------

    def durations(self) -> list[int]:
        return [e - s for s, e in zip(self.starts, self.ends)]

    def stats(self, root: int) -> dict[str, dict]:
        """Per span name, over the spans inside root's subtree (root
        excluded): calls, total/self/max seconds and the slowest span."""
        dur = self.durations()
        n = len(dur)
        child = [0] * n
        inside = [False] * n
        for i in range(n):
            p = self.parents[i]
            if p >= 0:
                child[p] += dur[i]
                inside[i] = p == root or inside[p]
        out: dict[str, dict] = {}
        for i in range(n):
            if not inside[i]:
                continue
            s = out.setdefault(self.names[self.name_ids[i]],
                               {"calls": 0, "total_ns": 0, "self_ns": 0, "max_ns": -1, "slowest": -1})
            s["calls"] += 1
            s["total_ns"] += dur[i]
            s["self_ns"] += dur[i] - child[i]
            if dur[i] > s["max_ns"]:
                s["max_ns"], s["slowest"] = dur[i], i
        out["root"] = {"calls": 1, "total_ns": dur[root], "self_ns": dur[root] - child[root],
                       "max_ns": dur[root], "slowest": root}
        return out

    def top_level(self, name: str) -> list[int]:
        """Spans of `name` with no traced caller."""
        nid = self.names.index(name) if name in self.names else -1
        return [i for i in range(len(self.starts))
                if self.name_ids[i] == nid and self.parents[i] < 0]

    def write(self, stem):
        """Spans to <stem>.bin (name ids int32, parents int32, starts int64,
        ends int64, one array after another) and a <stem>.json header."""
        with open(f"{stem}.bin", "wb") as handle:
            for arr in (self.name_ids, self.parents, self.starts, self.ends):
                arr.tofile(handle)
        header = {"names": self.names, "spans": len(self.starts),
                  "layout": ["name_id:int32", "parent:int32", "start_ns:int64", "end_ns:int64"]}
        with open(f"{stem}.json", "w") as handle:
            json.dump(header, handle)
