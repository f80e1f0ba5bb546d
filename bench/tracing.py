"""Spans recorded around calls into bklab, from the benchmark's side only.

``Tracer.install`` replaces each traced function under every name its
callers look it up by (the defining module and every module that imported
it, plus the package namespace), so calls made inside bklab are recorded
too.  Spans carry a name, a parent, and start and end times in
nanoseconds; they stay in memory and are written out once, after the run.
The benchmark opens one ``item`` span per workload item, and every per-item
figure is derived from the spans below those.
"""

from __future__ import annotations

import functools
import json
import time
from collections import defaultdict

ITEM = "item"


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self.parents: list[int] = []
        self.starts: list[int] = []
        self.ends: list[int] = []
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []

    # -- recording ------------------------------------------------------

    def open(self, name: str) -> int:
        sid = len(self.names)
        self.names.append(name)
        self.parents.append(self._stack[-1] if self._stack else -1)
        self.ends.append(0)
        self._stack.append(sid)
        self.starts.append(time.perf_counter_ns())
        return sid

    def close(self, sid: int) -> None:
        self.ends[sid] = time.perf_counter_ns()
        if self._stack.pop() != sid:
            raise RuntimeError("spans closed out of order")

    def wrap(self, name: str, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = self.open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self.close(sid)

        return traced

    def install(self, modules, targets) -> None:
        """Wrap each (span name, original object) wherever a module holds it.

        An original may be a function or a bound classmethod; classmethods
        are wrapped on their class, which every caller reaches them through.
        """
        for name, original in targets:
            owner = getattr(original, "__self__", None)
            if isinstance(owner, type):
                raw = original.__func__
                self._patch(owner, original.__name__,
                            classmethod(self.wrap(name, raw)))
                continue
            traced = self.wrap(name, original)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        self._patch(mod, attr, traced)

    def _patch(self, holder, attr: str, value) -> None:
        self._undo.append((holder, attr, holder.__dict__[attr]))
        setattr(holder, attr, value)

    def uninstall(self) -> None:
        while self._undo:
            holder, attr, value = self._undo.pop()
            setattr(holder, attr, value)

    def dump(self, path) -> None:
        with open(path, "w") as fh:
            json.dump({"names": self.names, "parents": self.parents,
                       "start_ns": self.starts, "end_ns": self.ends}, fh)

    # -- derived figures ------------------------------------------------

    def summary(self) -> "SpanSummary":
        return SpanSummary(self.names, self.parents, self.starts, self.ends)


def covered_ns(intervals) -> int:
    """Total length of the union of (start, end) intervals."""
    total = 0
    cur_lo = cur_hi = None
    for lo, hi in sorted(intervals):
        if cur_hi is None or lo > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = lo, hi
        else:
            cur_hi = max(cur_hi, hi)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


class SpanSummary:
    """Self times and per-item totals derived from a list of spans.

    A span's self time is its duration minus the part of its interval that
    its child spans cover.  Inclusive totals per name count only outermost
    spans of that name, so a function that calls itself is not counted twice.
    """

    def __init__(self, names, parents, starts, ends) -> None:
        n = len(names)
        children: dict[int, list[tuple[int, int]]] = defaultdict(list)
        for sid in range(n):
            if parents[sid] >= 0:
                children[parents[sid]].append((starts[sid], ends[sid]))
        self.n_items = 0
        self.item_ns = 0
        self.calls: dict[str, int] = defaultdict(int)
        self.outer_calls: dict[str, int] = defaultdict(int)
        self.inclusive_ns: dict[str, int] = defaultdict(int)
        self.self_ns: dict[str, int] = defaultdict(int)
        # ancestors' names per span, built forward since parents precede children
        above: list[frozenset] = [frozenset()] * n
        for sid in range(n):
            name = names[sid]
            par = parents[sid]
            above[sid] = (above[par] | {names[par]}) if par >= 0 else frozenset()
            dur = ends[sid] - starts[sid]
            if name == ITEM:
                self.n_items += 1
                self.item_ns += dur
                continue
            if ITEM not in above[sid]:
                continue
            self.calls[name] += 1
            self.self_ns[name] += dur - covered_ns(children.get(sid, ()))
            if name not in above[sid]:
                self.outer_calls[name] += 1
                self.inclusive_ns[name] += dur

    def per_item_calls(self, name: str) -> float:
        return self.calls.get(name, 0) / self.n_items if self.n_items else 0.0

    def per_item_ms(self, name: str) -> float:
        return self.inclusive_ns.get(name, 0) / 1e6 / self.n_items if self.n_items else 0.0

    def per_call_us(self, name: str) -> float:
        calls = self.outer_calls.get(name, 0)
        return self.inclusive_ns.get(name, 0) / 1e3 / calls if calls else 0.0

    def self_share(self, name: str) -> float:
        return self.self_ns.get(name, 0) / self.item_ns if self.item_ns else 0.0
