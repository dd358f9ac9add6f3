"""Spans around the program's layer entry points, installed from outside.

A :class:`Tracer` replaces chosen functions and methods of the
``repro`` package with wrappers that record one span per call: its
name, start, end and parent span.  Spans stay in memory and are
written out once, when the run ends.  Nothing inside ``src/`` knows it
is being traced; :meth:`Tracer.uninstall` puts every original back, so
the benchmark can alternate traced and untraced rounds in one process.

A span's parent is the innermost open span on the same thread.  A span
opened on a thread with no open span (an executor thread of the serve
layer) takes :attr:`Tracer.root` as its parent: the benchmark drives
one request at a time, so that is the request the work belongs to.
"""

from __future__ import annotations

import functools
import inspect
import json
import threading
import time
from collections import Counter, defaultdict
from typing import Any, Callable

#: A counter hook: ``fn(args, kwargs, result) -> amount``.
CountFn = Callable[[tuple, dict, Any], float]


class Tracer:
    """Records spans and counts at wrapped layer boundaries."""

    def __init__(self) -> None:
        #: ``[name, start, end, parent, counts]`` per span; parent ``-1``
        #: means none, ``counts`` holds the counter hooks' amounts.
        self.spans: list[list] = []
        self.root = -1
        self._local = threading.local()
        self._lock = threading.Lock()
        self._patches: list[tuple[Any, str, Any]] = []

    # -- recording ----------------------------------------------------

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _open(self, name: str, parent: int) -> int:
        with self._lock:
            self.spans.append([name, time.perf_counter(), None, parent, {}])
            return len(self.spans) - 1

    def _close(self, idx: int) -> None:
        self.spans[idx][2] = time.perf_counter()

    def _active(self, name: str) -> bool:
        return any(self.spans[i][0] == name for i in self._stack())

    # -- installation -------------------------------------------------

    def wrap(self, owner: Any, attr: str, name: str,
             counters: dict[str, CountFn] | None = None,
             outer_only: bool = False) -> None:
        """Record a ``name`` span around every call of ``owner.attr``.

        ``counters`` add ``fn(args, kwargs, result)`` to named counts
        after each call.  ``outer_only`` skips recursive calls (a
        recursive function then yields one span per outermost call).
        """
        original = inspect.getattr_static(owner, attr)
        if isinstance(original, (staticmethod, classmethod)):
            raise TypeError(f"cannot wrap descriptor {owner!r}.{attr}")
        counters = counters or {}
        tracer = self

        if inspect.iscoroutinefunction(original):
            # An async entry point is the root of one request: every
            # span opened while it runs, on any thread, descends from it.
            @functools.wraps(original)
            async def wrapper(*args, **kwargs):
                idx = tracer._open(name, -1)
                tracer.root = idx
                try:
                    return await original(*args, **kwargs)
                finally:
                    tracer._close(idx)
                    tracer.root = -1
        else:
            @functools.wraps(original)
            def wrapper(*args, **kwargs):
                if outer_only and tracer._active(name):
                    return original(*args, **kwargs)
                stack = tracer._stack()
                idx = tracer._open(name, stack[-1] if stack else tracer.root)
                stack.append(idx)
                try:
                    result = original(*args, **kwargs)
                finally:
                    tracer._close(idx)
                    stack.pop()
                counts = tracer.spans[idx][4]
                for counter, fn in counters.items():
                    counts[counter] = fn(args, kwargs, result)
                return result

        setattr(owner, attr, wrapper)
        self._patches.append((owner, attr, original))

    def install(self, layers) -> None:
        """Wrap every ``(owner, attr, name[, wrap keyword arguments])``."""
        for owner, attr, name, *options in layers:
            self.wrap(owner, attr, name, **(options[0] if options else {}))

    def uninstall(self) -> None:
        """Restore every wrapped attribute (newest first)."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- results ------------------------------------------------------

    def totals(self, roots: set[int] | None = None
               ) -> tuple[dict[str, float], dict[str, float], Counter]:
        """Self seconds and total seconds per span name, and counts.

        A span's self time is its duration minus the time of its
        children; its total time is its duration.  Counts hold
        ``<name>.calls`` per span name plus every counter hook's total.
        With ``roots``, only spans descending from (or equal to) those
        root span indices count.
        """
        keep = self._descendants(roots) if roots is not None else None
        child: dict[int, float] = defaultdict(float)
        for name, start, end, parent, _ in self.spans:
            if end is not None and parent >= 0:
                child[parent] += end - start
        seconds: dict[str, float] = defaultdict(float)
        total: dict[str, float] = defaultdict(float)
        counts: Counter = Counter()
        for idx, (name, start, end, _, span_counts) in enumerate(self.spans):
            if end is None or (keep is not None and idx not in keep):
                continue
            seconds[name] += (end - start) - child[idx]
            total[name] += end - start
            counts[name + ".calls"] += 1
            counts.update(span_counts)
        return dict(seconds), dict(total), counts

    def roots(self) -> list[int]:
        """Indices of the spans that have no parent, in start order."""
        return [i for i, span in enumerate(self.spans) if span[3] < 0]

    def _descendants(self, roots: set[int]) -> set[int]:
        keep: set[int] = set()
        for idx, span in enumerate(self.spans):
            if idx in roots or span[3] in keep:
                keep.add(idx)  # parents precede children in the list
        return keep

    def dump(self, path: str) -> None:
        """Write every span as JSON."""
        with open(path, "w") as fh:
            json.dump({"spans": self.spans}, fh)

    @classmethod
    def load(cls, path: str) -> "Tracer":
        """Read a :meth:`dump` back (spans recorded by another process)."""
        with open(path) as fh:
            data = json.load(fh)
        tracer = cls()
        tracer.spans = data["spans"]
        return tracer
