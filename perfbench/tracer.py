"""Layer tracing from outside the package.

``Tracer.install`` replaces the public functions of each esasaki module
with wrappers that record a span (name, start, end, parent) per call and
rebinds every module attribute that held the original, so the names
other modules imported (``structures.wedge``, ``evolution.residual_hypo``,
``boundary.rk4_step``, ...) are traced as well.  Three results are
wrapped on the way out: the chart that ``geometry.ypq_chart`` returns
(its metric evaluations are counted), the profiles that
``evolution.case_ii_endpoint_profile`` returns, and the diagrams of
``moduli.build_diagram`` (their element counts are summed).

Spans stay in memory and are written once, by ``write``.
"""

from __future__ import annotations

import dataclasses
import functools
import gzip
import json
import time
from array import array

_MODULES = ("exterior", "structures", "evolution", "geometry", "moduli", "boundary", "cli")

# traced functions that the modules do not list in __all__
_EXTRA = {
    "evolution": ("rk4_step", "general_rhs", "case_iii_rhs"),
    "cli": ("main",),
}


class Tracer:
    def __init__(self, package):
        self.package = package
        self.names: list = []
        self._ids: dict = {}
        self.span_name = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.span_parent = array("i")
        self.calls: dict = {}
        self.incl: dict = {}   # seconds in outermost activations
        self.self_s: dict = {}  # seconds minus wrapped children
        self.counters: dict = {"geometry.metric.calls": 0, "moduli.diagram_elements": 0}
        self._stack: list = []  # [span index, start, seconds in wrapped children]
        self._depth: dict = {}
        self._saved: list = []

    # -- recording ------------------------------------------------------

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
            self.calls[name] = 0
            self.incl[name] = 0.0
            self.self_s[name] = 0.0
        return self._ids[name]

    def wrap(self, name: str, fn, after=None):
        ident = self._id(name)
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = self._stack[-1][0] if self._stack else -1
            index = len(self.span_name)
            self.span_name.append(ident)
            self.span_parent.append(parent)
            self.span_start.append(0.0)
            self.span_end.append(0.0)
            depth = self._depth.get(name, 0)
            self._depth[name] = depth + 1
            frame = [index, clock(), 0.0]
            self._stack.append(frame)
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                self._stack.pop()
                self._depth[name] = depth
                start = frame[1]
                self.span_start[index] = start
                self.span_end[index] = end
                duration = end - start
                self.calls[name] += 1
                self.self_s[name] += duration - frame[2]
                if depth == 0:
                    self.incl[name] += duration
                if self._stack:
                    self._stack[-1][2] += duration
            return after(result) if after is not None else result

        return traced

    # -- installation ---------------------------------------------------

    def _targets(self):
        mods = {name: getattr(self.package, name) for name in _MODULES}
        for mod_name, mod in mods.items():
            names = list(getattr(mod, "__all__", ())) + list(_EXTRA.get(mod_name, ()))
            for attr in names:
                fn = getattr(mod, attr)
                if callable(fn) and not isinstance(fn, type) and getattr(fn, "__module__", None) == mod.__name__:
                    yield f"{mod_name}.{attr}", fn

    def install(self) -> None:
        mods = [getattr(self.package, name) for name in _MODULES]
        replacements = {}
        for name, fn in self._targets():
            replacements[id(fn)] = self.wrap(name, fn, self._after(name))
        for mod in mods:
            for attr, value in list(vars(mod).items()):
                if id(value) in replacements and callable(value):
                    self._saved.append((mod, attr, value))
                    setattr(mod, attr, replacements[id(value)])

    def uninstall(self) -> None:
        for mod, attr, value in reversed(self._saved):
            setattr(mod, attr, value)
        self._saved.clear()

    def _after(self, name: str):
        if name == "geometry.ypq_chart":
            return self._wrap_chart
        if name == "evolution.case_ii_endpoint_profile":
            return lambda profile: self.wrap("evolution.profile", profile)
        if name == "moduli.build_diagram":
            return self._count_diagram
        return None

    def _wrap_chart(self, chart):
        metric = chart.metric

        def counted(point, dtype=float):
            self.counters["geometry.metric.calls"] += 1
            return metric(point, dtype=dtype)

        return dataclasses.replace(chart, metric=counted)

    def _count_diagram(self, diagram):
        self.counters["moduli.diagram_elements"] += len(diagram.k_elements)
        return diagram

    # -- results ----------------------------------------------------------

    def calls_of(self, name: str) -> int:
        return self.calls.get(name, 0)

    def ms_of(self, name: str) -> float:
        return 1e3 * self.incl.get(name, 0.0)

    def self_ms_of(self, name: str) -> float:
        return 1e3 * self.self_s.get(name, 0.0)

    def write(self, path) -> None:
        """All spans as gzipped JSON: names plus [name, start, end, parent]
        rows, times in seconds of the performance counter."""
        spans = [
            [self.span_name[i], self.span_start[i], self.span_end[i], self.span_parent[i]]
            for i in range(len(self.span_name))
        ]
        with gzip.open(path, "wt") as fh:
            json.dump({"names": self.names, "columns": ["name", "start", "end", "parent"], "spans": spans}, fh)
