"""Outside-in spans around the cournotprox modules.

The library carries no instrumentation. This module wraps its public
functions from outside and records one span per call: name, start, end
and the enclosing span. A function is replaced in every ``cournotprox``
module namespace that binds it, so the call is caught in whichever
module the caller looks the name up (``cournotprox.solver.prox_step``,
``cournotprox.experiments.solve``, ...). Cost methods are replaced on
the ``CostModel`` class and on each subclass that defines them. A name
that does not exist is skipped and reported, so the benchmark survives
the library renaming or deleting a function.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import os
import sys
from time import perf_counter

import numpy as np

PACKAGE = "cournotprox"

# (module, function, span name): every function whose time the benchmark splits out.
FUNCTIONS = [
    ("cournotprox.cli", "main", "cli.main"),
    ("cournotprox.experiments", "run_experiment", "experiments.run_experiment"),
    ("cournotprox.experiments", "generate_instance", "experiments.generate_instance"),
    ("cournotprox.experiments", "write_trace_csv", "experiments.write_trace_csv"),
    ("cournotprox.solver", "solve", "solver.solve"),
    ("cournotprox.solver", "prox_model_value", "solver.prox_model_value"),
    ("cournotprox.diagnostics", "gamma_lower_bound", "diagnostics.gamma_lower_bound"),
    ("cournotprox.model", "potential_gamma", "model.potential_gamma"),
    ("cournotprox.subqp", "prox_step", "subqp.prox_step"),
]

# CostModel method -> span name. ``value`` calls ``value_components``; both
# map to one name and a call nested directly in a same-named span is not
# recorded again, so either implementation style counts one call.
COST_METHODS = {
    "value": "costs.value",
    "value_components": "costs.value",
    "gradient": "costs.gradient",
    "value_and_gradient": "costs.value_and_gradient",
}


def _cost_elems(args, kwargs, out):
    return {"elems": int(np.size(args[1]))}


def _csv_rows_bytes(args, kwargs, out):
    return {"rows": len(args[1]), "bytes": os.path.getsize(args[0])}


def _solve_iterations(args, kwargs, out):
    return {"iterations": int(out[0].iterations)}


# Counters attached to a span after the call returns.
NOTES = {
    "costs.value": _cost_elems,
    "costs.gradient": _cost_elems,
    "costs.value_and_gradient": _cost_elems,
    "experiments.write_trace_csv": _csv_rows_bytes,
    "solver.solve": _solve_iterations,
}


class Recorder:
    """In-memory span store; a span is [name, start, end, parent, counters]."""

    def __init__(self):
        self.spans = []
        self._stack = []

    def wrap(self, name, fn):
        spans, stack, note = self.spans, self._stack, NOTES.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if stack and spans[stack[-1]][0] == name:
                return fn(*args, **kwargs)
            i = len(spans)
            spans.append([name, perf_counter(), None, stack[-1] if stack else None, None])
            stack.append(i)
            try:
                out = fn(*args, **kwargs)
            finally:
                spans[i][2] = perf_counter()
                stack.pop()
            if note is not None:
                try:
                    spans[i][4] = note(args, kwargs, out)
                except (AttributeError, IndexError, TypeError, OSError):
                    pass
            return out

        return traced


class Patcher:
    """Replaces library attributes and puts every original back on ``restore``."""

    def __init__(self):
        self.skipped = []
        self._undo = []

    def _set(self, owner, attr, value):
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def function(self, module, attr, make):
        """Replace ``module.attr`` by ``make(original)`` wherever the package binds it."""
        try:
            original = getattr(importlib.import_module(module), attr)
        except (ImportError, AttributeError):
            self.skipped.append(f"{module}.{attr}")
            return
        wrapper = make(original)
        for name, mod in list(sys.modules.items()):
            if mod is None or not (name == PACKAGE or name.startswith(PACKAGE + ".")):
                continue
            for key, value in list(vars(mod).items()):
                if value is original:
                    self._set(mod, key, wrapper)

    def methods(self, base, attr, make):
        """Replace ``attr`` on ``base`` and on every subclass whose own body defines it."""
        classes, todo = [], [base]
        while todo:
            cls = todo.pop()
            classes.append(cls)
            todo.extend(cls.__subclasses__())
        found = False
        for cls in classes:
            fn = cls.__dict__.get(attr)
            if fn is None or getattr(fn, "__isabstractmethod__", False):
                continue
            found = True
            self._set(cls, attr, make(fn))
        if not found:
            self.skipped.append(f"{base.__module__}.{base.__name__}.{attr}")

    def restore(self):
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)


@contextlib.contextmanager
def traced(recorder, functions=FUNCTIONS, cost_methods=COST_METHODS):
    """Wrap every listed function and cost method; yields the names that were skipped."""

    def wrapping(name):
        return lambda fn: recorder.wrap(name, fn)

    patcher = Patcher()
    try:
        for module, attr, name in functions:
            patcher.function(module, attr, wrapping(name))
        try:
            base = importlib.import_module(f"{PACKAGE}.costs").CostModel
        except (ImportError, AttributeError):
            patcher.skipped.append(f"{PACKAGE}.costs.CostModel")
        else:
            for attr, name in cost_methods.items():
                patcher.methods(base, attr, wrapping(name))
        yield patcher.skipped
    finally:
        patcher.restore()


@contextlib.contextmanager
def captured(module, attr, sink):
    """Append every return value of ``module.attr`` to ``sink`` while active."""

    def make(fn):
        @functools.wraps(fn)
        def capture(*args, **kwargs):
            out = fn(*args, **kwargs)
            sink.append(out)
            return out

        return capture

    patcher = Patcher()
    try:
        patcher.function(module, attr, make)
        if patcher.skipped:
            raise LookupError(f"{module}.{attr} not found")
        yield sink
    finally:
        patcher.restore()


def _covered(intervals):
    """Total length of the union of (start, end) intervals."""
    total, reach = 0.0, -np.inf
    for start, end in sorted(intervals):
        if end <= reach:
            continue
        total += end - max(start, reach)
        reach = end
    return total


def self_times(spans):
    """Per span: its duration minus the part of it that its child spans cover."""
    children = [[] for _ in spans]
    for i, span in enumerate(spans):
        if span[3] is not None:
            children[span[3]].append(i)
    out = []
    for i, (_, start, end, _, _) in enumerate(spans):
        kids = [(max(spans[j][1], start), min(spans[j][2], end)) for j in children[i]]
        out.append(end - start - _covered(kids))
    return out


def has_ancestor(spans, i, name):
    parent = spans[i][3]
    while parent is not None:
        if spans[parent][0] == name:
            return True
        parent = spans[parent][3]
    return False


def summarize(spans):
    """Per span name: calls, total and self seconds, and the summed counters."""
    table = {}
    for span, own in zip(spans, self_times(spans)):
        row = table.setdefault(span[0], {"calls": 0, "total_s": 0.0, "self_s": 0.0})
        row["calls"] += 1
        row["total_s"] += span[2] - span[1]
        row["self_s"] += own
        for key, value in (span[4] or {}).items():
            row[key] = row.get(key, 0) + value
    return table
