"""Span tracing of crossnet from outside the package.

``Tracer.installed()`` wraps every public module-level function of the
traced layers and rebinds the wrapper wherever a ``crossnet.*`` module holds
the original: in module globals (so ``from .graphs import build_graph`` in
``spectra`` is caught, as is ``rhs_skt`` called from the lambda inside
``simulate_skt``) and in module-level dicts (the CLI's command table).
Nothing inside ``src/crossnet`` is edited, so the trace follows the program
as it changes.

Spans are nodes of a call tree kept in memory.  Repeated calls of one
function from the same parent on the same thread are aggregated into one
node holding the call count, the summed duration, the first start and the
last end; that keeps hot calls such as ``rhs_skt`` (160,000 per run) cheap.
A call made on a thread with no open span (a thread-pool worker) is parented
to the innermost open span of the tracing thread, which is the call waiting
for that work; such calls stay individual spans so that their intervals can
be merged when the parent's self time is computed.
"""
from __future__ import annotations

import functools
import json
import sys
import threading
import types
from collections import Counter
from contextlib import contextmanager
from time import perf_counter

LAYERS = ("config", "cli", "graphs", "spectra", "stability", "dynamics", "experiments")


class Span:
    """One call, or an aggregate of same-parent same-thread calls."""

    __slots__ = ("name", "parent", "thread", "start", "end", "count", "total", "children", "foreign")

    def __init__(self, name: str, parent: "Span | None", thread: int):
        self.name = name
        self.parent = parent
        self.thread = thread
        self.start: float | None = None
        self.end: float | None = None
        self.count = 0
        self.total = 0.0
        self.children: dict[str, Span] = {}  # same-thread, aggregated by name
        self.foreign: list[Span] = []  # individual calls from other threads

    def finish(self, t0: float, t1: float) -> None:
        if self.start is None:
            self.start = t0
        self.end = t1
        self.count += 1
        self.total += t1 - t0

    def walk(self):
        yield self
        for child in self.children.values():
            yield from child.walk()
        for child in self.foreign:
            yield from child.walk()


def merged_length(intervals) -> float:
    """Length of the union of (start, end) intervals."""
    covered = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                covered += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        covered += cur_end - cur_start
    return covered


def self_time(span: Span) -> float:
    """Busy time of ``span`` minus the time its child spans cover.

    Same-thread children run inside the parent one at a time, so their
    summed durations are what they cover.  Children from other threads may
    overlap each other, so the union of their intervals is subtracted.
    """
    same_thread = sum(child.total for child in span.children.values())
    other_threads = merged_length((c.start, c.end) for c in span.foreign)
    return span.total - same_thread - other_threads


class Tracer:
    """Call tree of one traced CLI invocation.

    ``observers`` maps a span name to a function of the call's return value
    giving counters to add, e.g. edges built by ``graphs.build_graph``.
    """

    def __init__(self, observers: dict | None = None):
        self.observers = observers or {}
        self.counters: Counter = Counter()
        self.roots: dict[str, Span] = {}
        self._stacks: dict[int, list[Span]] = {}
        self._home = threading.get_ident()
        self._lock = threading.Lock()

    def _open(self, name: str) -> tuple[list[Span], Span]:
        tid = threading.get_ident()
        stack = self._stacks.get(tid)
        if stack is None:
            stack = self._stacks.setdefault(tid, [])
        if stack:
            parent = stack[-1]
            span = parent.children.get(name)
            if span is None:
                span = parent.children[name] = Span(name, parent, tid)
        else:
            home = self._stacks.get(self._home)
            if tid != self._home and home:
                parent = home[-1]
                span = Span(name, parent, tid)
                parent.foreign.append(span)  # list.append is atomic under the GIL
            else:
                span = self.roots.get(name)
                if span is None:
                    span = self.roots[name] = Span(name, None, tid)
        stack.append(span)
        return stack, span

    def wrap(self, name: str, fn):
        observe = self.observers.get(name)
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack, span = tracer._open(name)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                span.finish(t0, t1)
            if observe is not None:
                counts = observe(result)
                with tracer._lock:
                    tracer.counters.update(counts)
            return result

        return traced

    @contextmanager
    def installed(self):
        """Wrap the layers' public functions for the duration of the block."""
        wrappers = {}
        for layer in LAYERS:
            module = sys.modules[f"crossnet.{layer}"]
            for attr, obj in vars(module).items():
                if (
                    isinstance(obj, types.FunctionType)
                    and obj.__module__ == module.__name__
                    and not attr.startswith("_")
                ):
                    wrappers[obj] = self.wrap(f"{layer}.{attr}", obj)
        undo = []
        for modname, module in list(sys.modules.items()):
            if modname != "crossnet" and not modname.startswith("crossnet."):
                continue
            namespace = vars(module)
            for attr, obj in list(namespace.items()):
                if attr.startswith("__"):
                    continue
                if isinstance(obj, dict):
                    for key, value in list(obj.items()):
                        if _is_traced(value, wrappers):
                            undo.append((obj, key, value))
                            obj[key] = wrappers[value]
                elif _is_traced(obj, wrappers):
                    undo.append((namespace, attr, obj))
                    namespace[attr] = wrappers[obj]
        try:
            yield self
        finally:
            for container, key, original in reversed(undo):
                container[key] = original

    def spans(self):
        for root in self.roots.values():
            yield from root.walk()

    def dump(self) -> list[dict]:
        """Every span as a plain record; ids are positions in the list."""
        ids: dict[int, int] = {}
        records = []
        for span in self.spans():
            ids[id(span)] = len(records)
            records.append(
                {
                    "name": span.name,
                    "parent": None if span.parent is None else ids[id(span.parent)],
                    "thread": span.thread,
                    "start": span.start,
                    "end": span.end,
                    "count": span.count,
                    "total": span.total,
                    "self": self_time(span),
                }
            )
        return records


def _is_traced(obj, wrappers: dict) -> bool:
    return isinstance(obj, types.FunctionType) and obj in wrappers


def busy(tracer: Tracer, match) -> float:
    """Summed duration of the spans whose name satisfies ``match``, counting
    a matching span nested inside another matching span only once."""
    return sum(
        span.total
        for span in tracer.spans()
        if match(span.name) and not _has_ancestor(span, match)
    )


def _has_ancestor(span: Span, match) -> bool:
    node = span.parent
    while node is not None:
        if match(node.name):
            return True
        node = node.parent
    return False


def calls(tracer: Tracer, match) -> int:
    return sum(span.count for span in tracer.spans() if match(span.name))


def self_busy(tracer: Tracer, match) -> float:
    """Summed self time of the spans whose name satisfies ``match``."""
    return sum(self_time(span) for span in tracer.spans() if match(span.name))


def write_spans(tracer: Tracer, path, extra: dict) -> None:
    with open(path, "w") as fh:
        json.dump({**extra, "spans": tracer.dump()}, fh)
        fh.write("\n")
