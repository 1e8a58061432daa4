"""In-memory span tracer for the benchmark's traced run.

Spans are recorded around calls into the public functions of each
``mcfqkd`` module, from the benchmark's own code: ``install`` replaces every
binding of a function in the loaded ``mcfqkd`` modules (``from .x import y``
creates one binding per importing module) and ``uninstall`` puts the
originals back.  Nothing in ``mcfqkd`` itself knows it is being traced.

A span's self time is its duration minus the part of its interval that its
child spans cover.  Children on the same thread run one after another, so
their durations add up.  The runner's thread pool starts spans on worker
threads with an empty stack; those spans are attributed to the innermost
span open on the thread that owns the tracer (the one that called into the
runner), and their intervals are merged before they are subtracted, since
two workers overlap in time.
"""
from __future__ import annotations

import functools
import sys
import threading
import time
from collections import defaultdict
from typing import Callable, Dict, List, Optional, Tuple

#: raw spans kept for the trace file; aggregates cover every span
MAX_KEPT_SPANS = 20_000


class Span:
    __slots__ = ("name", "start", "end", "child_s", "cross", "parent", "thread", "span_id")

    def __init__(self, name: str, start: float, parent: Optional["Span"], thread: int, span_id: int):
        self.name = name
        self.start = start
        self.end = 0.0
        self.child_s = 0.0
        self.cross: List[Tuple[float, float]] = []
        self.parent = parent
        self.thread = thread
        self.span_id = span_id


def _covered(intervals: List[Tuple[float, float]], lo: float, hi: float) -> float:
    """Length of the union of ``intervals`` clipped to [lo, hi]."""
    total = 0.0
    cur_lo = cur_hi = None
    for a, b in sorted(intervals):
        a, b = max(a, lo), min(b, hi)
        if b <= a:
            continue
        if cur_hi is None or a > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = a, b
        else:
            cur_hi = max(cur_hi, b)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


class Tracer:
    """Aggregates spans by (phase, name); counters by (phase, key)."""

    def __init__(self) -> None:
        self._owner = threading.get_ident()
        self._owner_stack: List[Span] = []
        self._local = threading.local()
        self._lock = threading.Lock()
        self._next_id = 0
        self.phase = "setup"
        self.calls: Dict[Tuple[str, str], int] = defaultdict(int)
        self.total_s: Dict[Tuple[str, str], float] = defaultdict(float)
        self.self_s: Dict[Tuple[str, str], float] = defaultdict(float)
        self.counts: Dict[Tuple[str, str], float] = defaultdict(float)
        self.kept: List[dict] = []
        self.dropped = 0
        self.keep_spans = False

    def _stack(self) -> List[Span]:
        if threading.get_ident() == self._owner:
            return self._owner_stack
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def enter(self, name: str) -> Span:
        stack = self._stack()
        if stack:
            parent = stack[-1]
        else:
            # a pool worker's root span belongs to the caller's open span
            parent = self._owner_stack[-1] if self._owner_stack else None
        with self._lock:
            span_id = self._next_id
            self._next_id += 1
        span = Span(name, time.perf_counter(), parent, threading.get_ident(), span_id)
        stack.append(span)
        return span

    def exit(self, span: Span) -> None:
        span.end = time.perf_counter()
        stack = self._stack()
        stack.pop()
        duration = span.end - span.start
        own = duration - span.child_s - _covered(span.cross, span.start, span.end)
        parent = span.parent
        key = (self.phase, span.name)
        with self._lock:
            if parent is not None:
                if parent.thread == span.thread:
                    parent.child_s += duration
                else:
                    parent.cross.append((span.start, span.end))
            self.calls[key] += 1
            self.total_s[key] += duration
            self.self_s[key] += own
            if self.keep_spans:
                if len(self.kept) < MAX_KEPT_SPANS:
                    self.kept.append(
                        {
                            "id": span.span_id,
                            "parent": None if parent is None else parent.span_id,
                            "name": span.name,
                            "thread": span.thread,
                            "start": span.start,
                            "end": span.end,
                            "self_s": own,
                        }
                    )
                else:
                    self.dropped += 1

    def count(self, key: str, value: float) -> None:
        with self._lock:
            self.counts[(self.phase, key)] += value

    def wrap(self, name: str, fn: Callable, hook: Optional[Callable] = None) -> Callable:
        """``fn`` inside a span; ``hook(tracer, span, args, kwargs, result)``
        records counts after the span closes, and its own time is charged to
        no layer."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = self.enter(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.exit(span)
            if hook is not None:
                t0 = time.perf_counter()
                hook(self, span, args, kwargs, result)
                spent = time.perf_counter() - t0
                with self._lock:
                    if span.parent is not None:
                        if span.parent.thread == span.thread:
                            span.parent.child_s += spent
                        else:
                            span.parent.cross.append((t0, t0 + spent))
            return result

        return traced


def _mcfqkd_modules():
    return [m for n, m in list(sys.modules.items()) if n == "mcfqkd" or n.startswith("mcfqkd.")]


def rebind(original: Callable, replacement: Callable) -> list:
    """Point every ``mcfqkd`` module name bound to ``original`` at
    ``replacement``; returns the patches for ``uninstall``."""
    patches = []
    for mod in _mcfqkd_modules():
        for key, value in list(vars(mod).items()):
            if value is original:
                setattr(mod, key, replacement)
                patches.append((mod, key, original))
    return patches


def lookup(module_name: str, attr: str) -> Optional[Callable]:
    module = sys.modules.get(module_name)
    found = getattr(module, attr, None) if module is not None else None
    return found if callable(found) else None


def install(tracer: Tracer, specs) -> Tuple[list, List[str]]:
    """Wrap each ``(layer, module, attr, hook)`` at every name it is bound to.

    Returns the patches to undo and the layers whose function was missing.
    """
    patches = []
    missing = []
    for layer, module_name, attr, hook in specs:
        original = lookup(module_name, attr)
        if original is None:
            missing.append(layer)
            continue
        patches += rebind(original, tracer.wrap(layer, original, hook))
    return patches, missing


def uninstall(patches) -> None:
    for mod, key, original in reversed(patches):
        setattr(mod, key, original)
