"""Spans and counters recorded from outside the program under test.

``instrument`` replaces selected nedmsim functions, in every nedmsim
module namespace that binds them, with wrappers that time each call. Entry
points (a fit, an ensemble run, a CSV render) each get a span record with
its parent; high-frequency leaf calls (one likelihood evaluation, one
Philox substream, one quadrature point) are only counted and timed in
aggregate on the enclosing span, so a traced run stays small. Spans are
kept in memory and written as JSON lines when the run ends. Nothing under
``src/`` changes; the originals are restored on exit.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import json
import sys
import threading
import time
from contextlib import contextmanager

# Calls into a layer that get a span record of their own.
SPAN_FUNCTIONS = {
    "nedmsim.cli": ("main",),
    "nedmsim.config": ("load_config",),
    "nedmsim.inference": ("fit", "upper_bound", "campaign_estimator"),
    "nedmsim.ensemble": ("simulate_quantum", "simulate_stochastic"),
    "nedmsim.comagnetometer": ("run_campaign",),
    "nedmsim.formats": ("render_csv", "parse_csv", "atomic_write_text", "render_json"),
}

# Leaf calls made thousands of times per entry point: counted and timed in
# aggregate on the caller's span.
AGGREGATE_FUNCTIONS = {
    "nedmsim.inference": ("log_likelihood",),
    "nedmsim.streams": ("substream",),
    "nedmsim.weak_measurement": ("flip_probability", "flip_probability_quadrature"),
}


class Span:
    __slots__ = ("id", "parent", "name", "start", "end", "thread", "child_ns", "agg")

    def __init__(self, sid, parent, name, thread):
        self.id = sid
        self.parent = parent
        self.name = name
        self.thread = thread
        self.start = time.perf_counter_ns()
        self.end = None
        self.child_ns = 0
        self.agg: dict[str, list[int]] = {}

    @property
    def duration_ns(self) -> int:
        return self.end - self.start

    @property
    def self_ns(self) -> int:
        """Duration minus what child spans and aggregated leaf calls cover."""
        return self.duration_ns - self.child_ns - sum(ns for _, ns in self.agg.values())

    def as_json(self, run_id: str) -> dict:
        return {
            "run": run_id,
            "id": self.id,
            "parent": self.parent.id if self.parent else None,
            "name": self.name,
            "start_ns": self.start,
            "end_ns": self.end,
            "thread": self.thread,
            "self_ns": self.self_ns,
            "agg": {k: {"calls": c, "ns": ns} for k, (c, ns) in sorted(self.agg.items())},
        }


class Tracer:
    """Span stack per thread, finished spans, and per-name call counters."""

    def __init__(self, run_id: str) -> None:
        self.run_id = run_id
        self.spans: list[Span] = []
        self.calls: dict[str, int] = {}
        self.orphan: dict[str, list[int]] = {}
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._lock = threading.Lock()

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextmanager
    def span(self, name: str):
        stack = self._stack()
        parent = stack[-1] if stack else None
        sp = Span(next(self._ids), parent, name, threading.get_ident())
        stack.append(sp)
        try:
            yield sp
        finally:
            sp.end = time.perf_counter_ns()
            stack.pop()
            if parent is not None:
                parent.child_ns += sp.duration_ns
            with self._lock:
                self.calls[name] = self.calls.get(name, 0) + 1
            self.spans.append(sp)

    def leaf(self, name: str, ns: int) -> None:
        # ensemble workers run in pool threads whose stacks are empty; their
        # leaf calls land in ``orphan``
        stack = self._stack()
        target = stack[-1].agg if stack else self.orphan
        with self._lock:
            entry = target.setdefault(name, [0, 0])
            entry[0] += 1
            entry[1] += ns
            self.calls[name] = self.calls.get(name, 0) + 1

    def named(self, name: str) -> list[Span]:
        return [s for s in self.spans if s.name == name]

    def write(self, path) -> None:
        with open(path, "a", encoding="utf-8") as out:
            for sp in self.spans:
                out.write(json.dumps(sp.as_json(self.run_id)) + "\n")
            out.write(
                json.dumps({"run": self.run_id, "calls": self.calls, "orphan_agg": self.orphan})
                + "\n"
            )


def _span_wrapper(tracer: Tracer, name: str, fn):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        with tracer.span(name):
            return fn(*args, **kwargs)

    return wrapper


def _leaf_wrapper(tracer: Tracer, name: str, fn):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        t0 = time.perf_counter_ns()
        try:
            return fn(*args, **kwargs)
        finally:
            tracer.leaf(name, time.perf_counter_ns() - t0)

    return wrapper


@contextmanager
def instrument(tracer: Tracer):
    """Wrap the listed nedmsim functions wherever a nedmsim module binds them."""
    replacements = {}
    for table, make in ((SPAN_FUNCTIONS, _span_wrapper), (AGGREGATE_FUNCTIONS, _leaf_wrapper)):
        for module_name, names in table.items():
            module = importlib.import_module(module_name)
            short = module_name.split(".", 1)[1]
            for attr in names:
                fn = getattr(module, attr, None)
                if fn is not None:
                    replacements[id(fn)] = (fn, make(tracer, f"{short}.{attr}", fn))
    namespaces = [m for n, m in sys.modules.items() if n == "nedmsim" or n.startswith("nedmsim.")]
    patched = []
    for ns in namespaces:
        for attr, value in list(vars(ns).items()):
            hit = replacements.get(id(value))
            if hit is not None and hit[0] is value:
                setattr(ns, attr, hit[1])
                patched.append((ns, attr, value))
    try:
        yield tracer
    finally:
        for ns, attr, value in patched:
            setattr(ns, attr, value)
