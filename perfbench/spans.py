"""Timing spans recorded from outside the program.

``Tracer.install`` replaces chosen functions by wrappers under every name a
module looks them up by (``from .qsu2rep import element`` copies the name,
so wrapping only the defining module would miss those callers).  Each call
records a span (name, start, end, parent) in memory; ``uninstall`` puts the
originals back.  Nothing is written until the caller asks for the spans.

Self time and layer time are computed with interval unions, because the
spans of ``verify all`` run on pool threads and overlap in time.
"""

from __future__ import annotations

import functools
import inspect
import itertools
import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass


@dataclass(frozen=True, slots=True)
class Span:
    id: int
    name: str
    start: float
    end: float
    parent: int | None
    error: bool = False


def union_length(intervals) -> float:
    """Total length covered by a collection of (start, end) intervals."""
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        elif end > cur_end:
            cur_end = end
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def subtract(interval, holes) -> list[tuple[float, float]]:
    """Parts of ``interval`` that no interval in ``holes`` covers."""
    start, end = interval
    out = []
    pos = start
    for h_start, h_end in sorted(holes):
        h_start, h_end = max(h_start, start), min(h_end, end)
        if h_end <= pos:
            continue
        if h_start > pos:
            out.append((pos, h_start))
        pos = max(pos, h_end)
    if pos < end:
        out.append((pos, end))
    return out


def children_of(spans) -> dict[int, list[Span]]:
    out: dict[int, list[Span]] = {}
    for s in spans:
        if s.parent is not None:
            out.setdefault(s.parent, []).append(s)
    return out


def self_intervals(span: Span, children: dict[int, list[Span]]) -> list[tuple[float, float]]:
    """The span's interval minus the time its child spans cover."""
    return subtract((span.start, span.end), [(c.start, c.end) for c in children.get(span.id, ())])


def self_time(spans, name: str) -> float:
    """Wall time during which some span called ``name`` ran outside its children."""
    children = children_of(spans)
    parts = []
    for s in spans:
        if s.name == name:
            parts.extend(self_intervals(s, children))
    return union_length(parts)


def covered_time(spans, names) -> float:
    """Wall time during which at least one span with a name in ``names`` ran."""
    names = set(names)
    return union_length((s.start, s.end) for s in spans if s.name in names)


class Tracer:
    """In-memory span recorder with a per-thread stack of open spans.

    ``hooks`` maps a span name to ``fn(bound_arguments, result)``, called
    after a successful call so that counts are taken at the layer boundary.
    """

    def __init__(self, clock, hooks=None):
        self.clock = clock
        self.hooks = hooks or {}
        self.spans: list[Span] = []
        self._ids = itertools.count()
        self._local = threading.local()
        self._patches: list[tuple[object, str, object]] = []

    def _stack(self) -> list[int | None]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = [None]
        return stack

    def current(self) -> int | None:
        return self._stack()[-1]

    def call(self, name: str, fn, args, kwargs, sig=None):
        stack = self._stack()
        span_id = next(self._ids)
        parent = stack[-1]
        stack.append(span_id)
        error = False
        start = self.clock()
        try:
            result = fn(*args, **kwargs)
        except BaseException:
            error = True
            raise
        finally:
            end = self.clock()
            stack.pop()
            self.spans.append(Span(span_id, name, start, end, parent, error))
        hook = self.hooks.get(name)
        if hook is not None:
            bound = sig.bind(*args, **kwargs)
            bound.apply_defaults()
            hook(bound.arguments, result)
        return result

    def wrap(self, name: str, fn):
        sig = inspect.signature(fn) if name in self.hooks else None

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            return self.call(name, fn, args, kwargs, sig)

        return wrapper

    def run_with_parent(self, parent: int | None, fn, *args, **kwargs):
        """Run ``fn`` with ``parent`` as the open span of this thread."""
        stack = self._stack()
        stack.append(parent)
        try:
            return fn(*args, **kwargs)
        finally:
            stack.pop()

    def pool_class(self):
        """A ThreadPoolExecutor whose tasks are children of the submitting span."""
        tracer = self

        class SpanPool(ThreadPoolExecutor):
            def submit(self, fn, /, *args, **kwargs):
                return super().submit(tracer.run_with_parent, tracer.current(), fn, *args, **kwargs)

        return SpanPool

    def patch(self, namespace, attr: str, value) -> None:
        self._patches.append((namespace, attr, getattr(namespace, attr)))
        setattr(namespace, attr, value)

    def install(self, modules, targets: dict[str, object]) -> None:
        """Wrap each target function under every name the modules bind it to.

        ``targets`` maps a span name to the original function object.
        """
        wrappers = {id(fn): self.wrap(name, fn) for name, fn in targets.items()}
        for module in modules:
            for attr, value in list(vars(module).items()):
                wrapper = wrappers.get(id(value))
                if wrapper is not None:
                    self.patch(module, attr, wrapper)

    def uninstall(self) -> None:
        while self._patches:
            namespace, attr, original = self._patches.pop()
            setattr(namespace, attr, original)
