"""Outside-in tracer for promptner, kept in the benchmark's own files.

``install`` replaces the public functions of every ``promptner`` module (and
the public methods of ``Model``) with wrappers that record one span per call:
name, start, end and the enclosing span. Every module-level reference to a
wrapped function is swapped, so calls made through ``from .x import f``
imports are traced too; ``uninstall`` puts the originals back.

Spans stay in memory until ``write`` at the end of the run. Requests are time
intervals the benchmark adds with ``add_request``; after the run each span is
assigned to the request whose interval holds its start. A request's
*unattributed* time is its duration minus the spans directly under its root
(the span that was open when the request began, or none).

Tensor primitives (``add``, ``matmul``, ...) are left unwrapped: there are
~160 of them per example, so a span each would swamp both the trace and the
timings. Their per-op node counts come from ``tensor.graph_nodes`` instead.
"""

from __future__ import annotations

import bisect
import importlib
import inspect
import json
import pkgutil
import time
from collections import Counter, defaultdict

# span record fields
NAME, START, END, PARENT, COUNTS = range(5)

TENSOR_WRAPPED = {"backward"}
SKIPPED_MODULES = {"cli", "gradcheck"}  # tools, not layers of a request


class Tracer:
    def __init__(self):
        self.spans = []     # [name, start, end, parent index or -1, counts or None]
        self.requests = []  # (start, end, root span index or -1)
        self._stack = []

    def wrap(self, name, fn, hook=None):
        """Return ``fn`` wrapped to record a span per call.

        ``hook(args, kwargs)``, if given, runs before the call and returns
        ``(args, kwargs, after)``; ``after(result)`` returns a dict of counts
        stored on the span.
        """
        spans = self.spans
        stack = self._stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            after = None
            if hook is not None:
                args, kwargs, after = hook(args, kwargs)
            rec = [name, 0.0, 0.0, stack[-1] if stack else -1, None]
            stack.append(len(spans))
            spans.append(rec)
            rec[START] = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                rec[END] = clock()
                stack.pop()
            if after is not None:
                rec[COUNTS] = after(out)
            return out

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        traced.__doc__ = fn.__doc__
        return traced

    def add_request(self, start, end, root=-1):
        self.requests.append((start, end, root))

    def request_of_spans(self):
        """Request index of each span (by start time), or -1 if outside all."""
        starts = [r[0] for r in self.requests]
        out = []
        for rec in self.spans:
            i = bisect.bisect_right(starts, rec[START]) - 1
            out.append(i if i >= 0 and rec[START] < self.requests[i][1] else -1)
        return out

    def write(self, path, header):
        """Header line, then one JSON line per span (times in µs from the
        first span): [name, start, end, parent, request, counts]."""
        t0 = self.spans[0][START] if self.spans else 0.0
        req = self.request_of_spans()
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps(header) + "\n")
            for rec, r in zip(self.spans, req):
                row = [rec[NAME], round((rec[START] - t0) * 1e6, 1),
                       round((rec[END] - t0) * 1e6, 1), rec[PARENT], r]
                if rec[COUNTS]:
                    row.append(rec[COUNTS])
                fh.write(json.dumps(row) + "\n")


def self_times(spans):
    """Duration of each span minus the durations of its direct children."""
    out = [rec[END] - rec[START] for rec in spans]
    for rec in spans:
        if rec[PARENT] >= 0:
            out[rec[PARENT]] -= rec[END] - rec[START]
    return out


def unattributed(spans, requests, span_request):
    """Per request: duration minus the spans directly under its root."""
    covered = [0.0] * len(requests)
    for rec, r in zip(spans, span_request):
        if r >= 0 and rec[PARENT] == requests[r][2]:
            covered[r] += rec[END] - rec[START]
    return [(end - start) - c for (start, end, _), c in zip(requests, covered)]


def summarize(tracer):
    """Per-request totals per span name: calls, inclusive and self seconds,
    summed counts, and calls grouped by parent name."""
    spans = tracer.spans
    req = tracer.request_of_spans()
    selfs = self_times(spans)
    calls = Counter()
    incl = defaultdict(float)
    self_s = defaultdict(float)
    counts = defaultdict(Counter)
    by_parent = Counter()
    for rec, r, s in zip(spans, req, selfs):
        if r < 0:
            continue
        name = rec[NAME]
        calls[name] += 1
        incl[name] += rec[END] - rec[START]
        self_s[name] += s
        if rec[COUNTS]:
            counts[name].update(rec[COUNTS])
        parent = spans[rec[PARENT]][NAME] if rec[PARENT] >= 0 else None
        by_parent[(parent, name)] += 1
    return {
        "requests": len(tracer.requests),
        "spans": sum(calls.values()),
        "calls": calls, "incl_s": incl, "self_s": self_s, "counts": counts,
        "by_parent": by_parent,
        "unattributed_s": unattributed(spans, tracer.requests, req),
    }


def _targets(package):
    """(owner, attribute, span name, function) for every traced callable."""
    out = []
    for info in pkgutil.iter_modules(package.__path__):
        if info.name in SKIPPED_MODULES:
            continue
        mod = importlib.import_module(f"{package.__name__}.{info.name}")
        for attr, obj in vars(mod).items():
            if attr.startswith("_") or not inspect.isfunction(obj):
                continue
            if obj.__module__ != mod.__name__:
                continue
            if info.name == "tensor" and attr not in TENSOR_WRAPPED:
                continue
            out.append((mod, attr, f"{info.name}.{attr}", obj))
    model_cls = importlib.import_module(f"{package.__name__}.model").Model
    for attr, obj in vars(model_cls).items():
        if not attr.startswith("_") and inspect.isfunction(obj):
            out.append((model_cls, attr, f"model.Model.{attr}", obj))
    return out


def install(tracer, package, hooks=None):
    """Wrap every target and rebind all module-level references to it.

    Returns a function that restores the originals.
    """
    hooks = hooks or {}
    targets = _targets(package)
    missing = set(hooks) - {name for _, _, name, _ in targets}
    if missing:
        raise KeyError(f"hooks name functions that were not found: {sorted(missing)}")
    wrapped = {}
    restore = []
    for owner, attr, name, fn in targets:
        wrapped[fn] = tracer.wrap(name, fn, hooks.get(name))
        if inspect.isclass(owner):
            restore.append((owner, attr, fn))
            setattr(owner, attr, wrapped[fn])
    modules = [package] + [importlib.import_module(f"{package.__name__}.{i.name}")
                           for i in pkgutil.iter_modules(package.__path__)]
    for mod in modules:
        for attr, obj in list(vars(mod).items()):
            if inspect.isfunction(obj) and obj in wrapped:
                restore.append((mod, attr, obj))
                setattr(mod, attr, wrapped[obj])

    def uninstall():
        for owner, attr, fn in restore:
            setattr(owner, attr, fn)

    return uninstall
