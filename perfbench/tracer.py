"""Span tracing of massboost from outside the package.

`install()` replaces every public function of the traced modules, and every
public method of their public classes, with a wrapper that records one span
per call: name, start, end, parent span, thread and request id (the seed).
Names that one module imported from another (`cli.run_experiment`,
`harness.exact_lerr`, `booster.exact_density`, ...) are rebound to the same
wrapper, so calls through any namespace are seen. Spans are kept per thread
in flat arrays; the request id of a thread is the seed most recently passed
to `harness.build_instance` on that thread, which is how spans of one seed
are grouped when the harness runs seeds on a thread pool.

`Tracer.summary()` derives each span name's total time, self time (duration
minus the time covered by its child spans), call count and the per-call work
counters registered in COUNTERS.
"""

from __future__ import annotations

import functools
import inspect
import sys
import threading
import time
from array import array

import numpy as np

TRACED_MODULES = ("core", "measure", "booster", "rectangles", "adversary", "harness")
REBOUND_MODULES = TRACED_MODULES + ("cli",)


# Work counters taken at the span boundary: span name -> function of
# (positional args, result) returning {counter: amount}.
COUNTERS = {
    "core.MassartOracle.sample_batch": lambda a, r: {"draws": len(r)},
    "rectangles.wkl_box": lambda a, r: {"points": len(a[0])},
    "booster.AggregatedHypothesis.g": lambda a, r: {"point_rounds": len(r) * len(a[0].trace)},
    "booster.samp": lambda a, r: {"raw_draws": r[1], "accepted": len(r[0])},
    "booster.over_confident": lambda a, r: {"true": int(bool(r))},
    "measure.Measure.weight": lambda a, r: {"points": len(r)},
}


class _ThreadSpans:
    """Spans of one thread, stored column-wise."""

    def __init__(self):
        self.thread = threading.get_ident()
        self.name = array("i")
        self.parent = array("q")
        self.request = array("q")
        self.start = array("d")
        self.end = array("d")
        self.stack = []
        self.current_request = -1
        self.counts = {}


class Tracer:
    def __init__(self):
        self.names = []
        self._local = threading.local()
        self._lock = threading.Lock()
        self._threads = []

    def _spans(self) -> _ThreadSpans:
        spans = getattr(self._local, "spans", None)
        if spans is None:
            spans = _ThreadSpans()
            self._local.spans = spans
            with self._lock:
                self._threads.append(spans)
        return spans

    def wrap(self, fn, name: str):
        name_id = len(self.names)
        self.names.append(name)
        counter = COUNTERS.get(name)
        sets_request = name == "harness.build_instance"
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sp = self._spans()
            if sets_request:
                sp.current_request = int(args[1] if len(args) > 1 else kwargs["seed"])
            i = len(sp.name)
            sp.name.append(name_id)
            sp.parent.append(sp.stack[-1] if sp.stack else -1)
            sp.request.append(sp.current_request)
            sp.stack.append(i)
            sp.end.append(0.0)
            sp.start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                sp.end[i] = clock()
                sp.stack.pop()
            if counter is not None:
                totals = sp.counts.setdefault(name, {})
                for key, amount in counter(args, result).items():
                    totals[key] = totals.get(key, 0) + amount
            return result

        return traced

    def summary(self) -> dict:
        """Per span name: calls, total_s, self_s and counters; spans per thread id; request ids seen."""
        n = len(self.names)
        calls = np.zeros(n, dtype=np.int64)
        total = np.zeros(n)
        self_s = np.zeros(n)
        counts = {}
        requests = set()
        for sp in self._threads:
            if sp.stack:
                raise RuntimeError("summary() called while spans are still open")
            names = np.frombuffer(sp.name, dtype=np.int32) if len(sp.name) else np.zeros(0, np.int32)
            if not len(names):
                continue
            parent = np.frombuffer(sp.parent, dtype=np.int64)
            dur = np.frombuffer(sp.end, dtype=np.float64) - np.frombuffer(sp.start, dtype=np.float64)
            has_parent = parent >= 0
            covered = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=len(dur))
            calls += np.bincount(names, minlength=n)
            total += np.bincount(names, weights=dur, minlength=n)
            self_s += np.bincount(names, weights=dur - covered, minlength=n)
            requests.update(int(r) for r in np.unique(np.frombuffer(sp.request, dtype=np.int64)) if r >= 0)
            for name, totals in sp.counts.items():
                merged = counts.setdefault(name, {})
                for key, amount in totals.items():
                    merged[key] = merged.get(key, 0) + amount
        spans = {}
        for i, name in enumerate(self.names):
            if calls[i] or name in counts:
                entry = spans.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
                entry["calls"] += int(calls[i])
                entry["total_s"] += float(total[i])
                entry["self_s"] += float(self_s[i])
                entry.update(counts.get(name, {}))
        threads = {str(sp.thread): len(sp.name) for sp in self._threads}
        return {"spans": spans, "threads": threads, "requests": sorted(requests)}


def _defined_here(obj, module) -> bool:
    return getattr(obj, "__module__", None) == module.__name__


def install(package: str = "massboost") -> Tracer:
    """Wrap the package's public functions and methods; returns the tracer holding their spans.

    Public means a name without a leading underscore that the module itself
    defines; private helpers such as `booster._step_scores` count towards
    their caller's self time.
    """
    tracer = Tracer()
    modules = {name: sys.modules[f"{package}.{name}"] for name in REBOUND_MODULES}
    replaced = {}  # id(original function) -> wrapper
    for mod_name in TRACED_MODULES:
        module = modules[mod_name]
        for attr, obj in list(vars(module).items()):
            if attr.startswith("_"):
                continue
            if inspect.isfunction(obj) and _defined_here(obj, module):
                wrapper = tracer.wrap(obj, f"{mod_name}.{attr}")
                replaced[id(obj)] = wrapper
                setattr(module, attr, wrapper)
            elif inspect.isclass(obj) and _defined_here(obj, module):
                for meth_name, meth in list(vars(obj).items()):
                    public = not meth_name.startswith("_") or meth_name == "__call__"
                    if public and inspect.isfunction(meth):
                        setattr(obj, meth_name, tracer.wrap(meth, f"{mod_name}.{attr}.{meth_name}"))
    for module in modules.values():
        for attr, obj in list(vars(module).items()):
            if inspect.isfunction(obj) and id(obj) in replaced:
                setattr(module, attr, replaced[id(obj)])
    return tracer
