"""In-memory span tracer around the public functions of collarflow's modules.

The tracer works from outside the package: it imports each module that
defines a traced function and replaces every binding of that function in
every loaded ``collarflow`` module (a function such as ``jet`` is
imported by name into several modules) with a wrapper that records a
span, and restores the originals afterwards.  Grid builds are
counted by wrapping ``CollarGrid.__init__``.  Spans are recorded only
while an operation is open (``op_id`` set), so output checks made
between operations leave no trace.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import sys
from contextlib import contextmanager
from time import perf_counter

TRACED = (
    "geometry.CollarGrid",
    "fields.jet", "fields.tension", "fields.energies",
    "quad_diff.hopf_differential", "quad_diff.principal_split",
    "flow.run", "flow.step", "flow.metric_speed", "flow.pinned_tension",
    "flow.face_energy",
    "angular.random_comparison_pair", "angular.comparison_check",
    "angular.delay_operator", "angular.angular_bound_audit",
    "angular.kernel_solution",
    "wp.integrate_to_pinch", "wp.speed_normalizer", "wp.correction_coefficient",
    "io.write_csv", "io.read_csv", "io.map_to_csv", "io.map_from_csv",
    "verify.run_checks",
    "demos.build_initial",
    "cli.main",
)
# traced functions whose first argument is a file path: its size after
# the call is added to the tracer's byte count for that function
SIZED = ("io.write_csv", "io.read_csv")


class Tracer:
    """Span store: parallel lists, one entry per traced call.

    ``parent`` holds the index of the enclosing traced span or -1, and
    ``op`` the operation id that was open when the span started.
    """

    def __init__(self):
        self.name: list[str] = []
        self.start: list[float] = []
        self.end: list[float] = []
        self.parent: list[int] = []
        self.op: list[int] = []
        self.bytes: dict[str, int] = {}
        self.op_id: int | None = None
        self._stack: list[int] = []

    def __len__(self) -> int:
        return len(self.name)

    def wrap(self, name: str, fn):
        sized = name in SIZED

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if self.op_id is None:
                return fn(*args, **kwargs)
            idx = len(self.name)
            self.name.append(name)
            self.parent.append(self._stack[-1] if self._stack else -1)
            self.op.append(self.op_id)
            self.start.append(0.0)
            self.end.append(0.0)
            self._stack.append(idx)
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                self._stack.pop()
                self.start[idx] = t0
                self.end[idx] = t1
                if sized and args:
                    try:
                        size = os.path.getsize(args[0])
                    except OSError:
                        size = 0
                    self.bytes[name] = self.bytes.get(name, 0) + size

        return traced

    def dump(self, path) -> None:
        """Write the spans as JSON columns (times relative to the first span)."""
        t0 = self.start[0] if self.start else 0.0
        doc = {
            "columns": ["name", "start_s", "end_s", "parent", "op"],
            "spans": [[n, s - t0, e - t0, p, o] for n, s, e, p, o in
                      zip(self.name, self.start, self.end, self.parent, self.op)],
        }
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh, separators=(",", ":"))


@contextmanager
def patched(tracer: Tracer):
    """Install the tracer's wrappers for the traced names; restore on exit."""
    # every defining module is loaded before any is patched, so that no
    # module imported later still binds an original
    owners = {q: importlib.import_module(f"collarflow.{q.split('.')[0]}") for q in TRACED}
    package = [m for key, m in list(sys.modules.items())
               if m is not None and (key == "collarflow" or key.startswith("collarflow."))]
    saved = []
    try:
        for qualname, module in owners.items():
            original = getattr(module, qualname.split(".", 1)[1])
            if isinstance(original, type):
                init = original.__init__
                saved.append((original, "__init__", init))
                original.__init__ = tracer.wrap(qualname, init)
                continue
            wrapper = tracer.wrap(qualname, original)
            for mod in package:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        saved.append((mod, key, value))
                        setattr(mod, key, wrapper)
        yield tracer
    finally:
        for obj, key, value in reversed(saved):
            setattr(obj, key, value)


def self_times(start, end, parent) -> list[float]:
    """Each span's duration minus the part of it that child spans cover.

    Child intervals are clipped to the parent and merged before they are
    subtracted, so overlapping children are not counted twice.
    """
    children: list[list[int]] = [[] for _ in start]
    for i, p in enumerate(parent):
        if p >= 0:
            children[p].append(i)
    out = []
    for i, kids in enumerate(children):
        lo, hi = start[i], end[i]
        covered = 0.0
        cur_lo = cur_hi = None
        for a, b in sorted((max(start[c], lo), min(end[c], hi)) for c in kids):
            if b <= a:
                continue
            if cur_hi is None or a > cur_hi:
                if cur_hi is not None:
                    covered += cur_hi - cur_lo
                cur_lo, cur_hi = a, b
            else:
                cur_hi = max(cur_hi, b)
        if cur_hi is not None:
            covered += cur_hi - cur_lo
        out.append((hi - lo) - covered)
    return out


def within(tracer: Tracer, ancestor: str) -> list[bool]:
    """For each span: does it run inside (below) a span named ``ancestor``?"""
    inside = [False] * len(tracer)
    for i, p in enumerate(tracer.parent):
        if p >= 0:
            inside[i] = inside[p] or tracer.name[p] == ancestor
    return inside


def per_function(tracer: Tracer) -> dict[str, dict]:
    """calls, total_s and self_s per traced name (names never called are absent)."""
    selfs = self_times(tracer.start, tracer.end, tracer.parent)
    out: dict[str, dict] = {}
    for name, s, e, own in zip(tracer.name, tracer.start, tracer.end, selfs):
        agg = out.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
        agg["calls"] += 1
        agg["total_s"] += e - s
        agg["self_s"] += own
    return out
