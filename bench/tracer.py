"""Span recorder that wraps bcinv's public functions from outside the package.

``install`` replaces every public function of the bcinv modules, at every
name it is bound under in any loaded module, by a wrapper that records a
span (name, start, end, parent, operation) while the tracer is active.  A
few methods and numpy entry points get counters as well.  Nothing in bcinv
is edited; an untraced process never imports this module.

Aggregates (calls, inclusive and self time per name) are kept exactly;
spans are kept in memory up to a cap and written out at the end.  Self
time is a span's duration minus the time of its child spans.
"""

from __future__ import annotations

import functools
import inspect
import sys
from collections import Counter, defaultdict
from time import perf_counter

MODULES = ("rings", "_exactla", "inverses", "analytic", "lab", "cli")

# Methods that carry a layer's work but are not module-level functions.
METHODS = (
    ("rings", "RingValue", "__mul__"),
    ("inverses", "CornerFrame", "make"),
    ("inverses", "CornerFrame", "from_idempotents"),
    ("inverses", "CornerFrame", "__post_init__"),
    ("lab", "RingTable", "__init__"),
)

# cli functions by phase; spans below them inherit the phase.
CLI_PHASES = {
    "cli.build_parser": "parse", "cli.job_from_args": "parse",
    "argparse.parse_args": "parse", "cli.parse_ring": "parse",
    "cli.parse_element": "parse", "cli.default_tolerance": "parse",
    "cli.run": "run",
    "cli.main": "serialize", "cli.serialize_value": "serialize",
    "cli.flatten_report": "serialize", "cli.write_summary": "serialize",
}

# (outer, inner): count inner calls made while outer is on the stack.
NESTED = (("analytic.perturbation_bound", "inverses.bc_inverse"),)

SPAN_CAP = 200_000


class Tracer:
    def __init__(self, span_cap: int = SPAN_CAP):
        self.active = False
        self.op = -1
        self.ops = 0
        self.span_cap = span_cap
        self.spans: list[tuple] = []
        self.dropped = 0
        self.calls: Counter = Counter()
        self.incl: defaultdict = defaultdict(float)
        self.self_time: defaultdict = defaultdict(float)
        self.phase_time: defaultdict = defaultdict(float)
        self.counters: Counter = Counter()
        self._stack: list[list] = []
        self._open: Counter = Counter()
        self._next_id = 0

    # -- operations ------------------------------------------------------

    def begin_op(self, index: int) -> None:
        self.op = index
        self.active = True

    def end_op(self) -> None:
        self.active = False
        self.ops += 1

    # -- spans -----------------------------------------------------------

    def wrap(self, name: str, fn):
        phase = CLI_PHASES.get(name)
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            stack = tracer._stack
            parent = stack[-1] if stack else None
            span_id = tracer._next_id
            tracer._next_id += 1
            entry = [span_id, 0.0, phase or (parent[2] if parent else None)]
            stack.append(entry)
            tracer._open[name] += 1
            for outer, inner in NESTED:
                if inner == name and tracer._open[outer]:
                    tracer.counters[f"{inner}@{outer}"] += 1
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                tracer._open[name] -= 1
                duration = end - start
                own = duration - entry[1]
                tracer.calls[name] += 1
                tracer.incl[name] += duration
                tracer.self_time[name] += own
                if entry[2] is not None:
                    tracer.phase_time[entry[2]] += own
                if parent is not None:
                    parent[1] += duration
                if len(tracer.spans) < tracer.span_cap:
                    tracer.spans.append((span_id, parent[0] if parent else -1,
                                         tracer.op, name, start, end))
                else:
                    tracer.dropped += 1

        return wrapper

    def count(self, key: str, n: int = 1) -> None:
        if self.active:
            self.counters[key] += n

    # -- output ----------------------------------------------------------

    def aggregates(self) -> dict:
        return {
            "ops": self.ops,
            "calls": dict(self.calls),
            "incl_s": dict(self.incl),
            "self_s": dict(self.self_time),
            "phase_s": dict(self.phase_time),
            "counters": dict(self.counters),
            "spans_kept": len(self.spans),
            "spans_dropped": self.dropped,
        }

    def span_records(self) -> list[dict]:
        return [{"id": s, "parent": p, "op": op, "name": name, "start": t0, "end": t1}
                for s, p, op, name, t0, t1 in self.spans]


def _rebind(replacements: dict) -> None:
    """Point every module-level name bound to an original at its wrapper.

    ``replacements`` maps id(original) -> (original, wrapper).  Values of
    module-level dicts are covered too (the CLI keeps its suites in one).
    """
    def swap(namespace):
        for key, value in list(namespace.items()):
            hit = replacements.get(id(value))
            if hit is not None and hit[0] is value:
                namespace[key] = hit[1]
            elif isinstance(value, dict) and namespace is not value:
                for inner_key, inner in list(value.items()):
                    hit = replacements.get(id(inner))
                    if hit is not None and hit[0] is inner:
                        value[inner_key] = hit[1]

    for module in list(sys.modules.values()):
        namespace = getattr(module, "__dict__", None)
        if namespace:
            swap(namespace)


def install(tracer: Tracer) -> None:
    """Wrap bcinv's public functions, selected methods, and numpy counters."""
    import importlib

    import numpy as np

    replacements = {}
    for short in MODULES:
        module = sys.modules.get(f"bcinv.{short}")
        if module is None:          # cli is only loaded in CLI processes
            continue
        for name, obj in vars(module).items():
            if (not name.startswith("_") and inspect.isfunction(obj)
                    and obj.__module__ == module.__name__):
                replacements[id(obj)] = (obj, tracer.wrap(f"{short}.{name}", obj))
    _rebind(replacements)

    for short, cls_name, meth in METHODS:
        cls = getattr(importlib.import_module(f"bcinv.{short}"), cls_name)
        raw = cls.__dict__[meth]
        label = f"{short}.{cls_name}.{meth}"
        if isinstance(raw, classmethod):
            setattr(cls, meth, classmethod(tracer.wrap(label, raw.__func__)))
        else:
            setattr(cls, meth, tracer.wrap(label, raw))

    rings = importlib.import_module("bcinv.rings")
    elements = rings.RingDescriptor.elements

    @functools.wraps(elements)
    def counted_elements(ring):
        for value in elements(ring):
            tracer.count("rings.elements")
            yield value

    rings.RingDescriptor.elements = counted_elements

    svd, norm = np.linalg.svd, np.linalg.norm

    @functools.wraps(svd)
    def counted_svd(*args, **kwargs):
        tracer.count("numpy.svd")
        return svd(*args, **kwargs)

    @functools.wraps(norm)
    def counted_norm(x, ord=None, *args, **kwargs):
        if ord == 2:
            tracer.count("numpy.norm2")
        return norm(x, ord, *args, **kwargs)

    np.linalg.svd = counted_svd
    np.linalg.norm = counted_norm


def install_argparse(tracer: Tracer) -> None:
    """Time argument parsing in a CLI process as part of the parse phase."""
    import argparse

    argparse.ArgumentParser.parse_args = tracer.wrap(
        "argparse.parse_args", argparse.ArgumentParser.parse_args)
