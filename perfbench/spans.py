"""In-memory span recorder that wraps module attributes from outside.

A span is ``[name, start, end, parent]`` where ``parent`` is the index of
the enclosing span, or -1. Spans live in one list for the life of a
round and are written out once at the end. Self time is a span's
duration minus the durations of its direct children; the workloads are
single-threaded, so children never overlap.
"""

from __future__ import annotations

import functools
import json
import time
from collections import defaultdict
from contextlib import contextmanager


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.counts: dict[str, float] = defaultdict(int)
        self._stack = [-1]
        self._patches = []

    @property
    def current(self) -> str | None:
        """Name of the innermost open span, or None at the top."""
        top = self._stack[-1]
        return None if top < 0 else self.spans[top][0]

    @contextmanager
    def span(self, name):
        idx = len(self.spans)
        self.spans.append([name, time.perf_counter(), 0.0, self._stack[-1]])
        self._stack.append(idx)
        try:
            yield
        finally:
            self._stack.pop()
            self.spans[idx][2] = time.perf_counter()

    def _patch(self, owner, attr, make):
        original = getattr(owner, attr)
        self._patches.append((owner, attr, original))
        setattr(owner, attr, functools.wraps(original)(make(original)))

    def wrap(self, owner, attr, name, before=None, when=None):
        """Record a span named `name` around every call of `owner.attr`.

        `before(args, kwargs)` runs ahead of each call and may replace
        arguments in `kwargs`; `when()` returning False passes the call
        through unrecorded.
        """
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def make(fn):
            def traced(*args, **kwargs):
                if before is not None:
                    before(args, kwargs)
                if when is not None and not when():
                    return fn(*args, **kwargs)
                idx = len(spans)
                spans.append([name, clock(), 0.0, stack[-1]])
                stack.append(idx)
                try:
                    return fn(*args, **kwargs)
                finally:
                    stack.pop()
                    spans[idx][2] = clock()

            return traced

        self._patch(owner, attr, make)

    def wrap_generator(self, owner, attr, name):
        """Like `wrap` for a generator function: one span per item drawn."""
        tracer = self

        def make(fn):
            def traced(*args, **kwargs):
                it = fn(*args, **kwargs)
                while True:
                    with tracer.span(name):
                        try:
                            item = next(it)
                        except StopIteration:
                            return
                    yield item

            return traced

        self._patch(owner, attr, make)

    def count_calls(self, owner, attr, name, amount=None):
        """Add 1, or `amount(args, kwargs)`, to `counts[name]` on every call
        of `owner.attr`, recording no span."""
        counts = self.counts

        def make(fn):
            def counted(*args, **kwargs):
                counts[name] += 1 if amount is None else amount(args, kwargs)
                return fn(*args, **kwargs)

            return counted

        self._patch(owner, attr, make)

    def restore(self):
        """Undo every patch, newest first."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def summary(self) -> dict[str, dict[str, float]]:
        """Per span name: number of spans, inclusive and self seconds."""
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        out: dict[str, dict[str, float]] = defaultdict(
            lambda: {"n": 0, "total_s": 0.0, "self_s": 0.0}
        )
        for (name, start, end, _), inner in zip(self.spans, child_time):
            row = out[name]
            row["n"] += 1
            row["total_s"] += end - start
            row["self_s"] += end - start - inner
        return dict(out)

    def write(self, path):
        """One JSON line per span: name, start, end, parent, id."""
        with open(path, "w") as fh:
            for idx, (name, start, end, parent) in enumerate(self.spans):
                fh.write(
                    json.dumps(
                        {"id": idx, "name": name, "start": start, "end": end,
                         "parent": parent}
                    )
                    + "\n"
                )
