"""The benchmark clock, the per-operation timer, and in-memory spans around
the module-level names each layer calls.

A span is recorded at a layer boundary: the wrapped function's qualified
name, its layer (the reachtrack module that defines it), the span that was
open when it was called, the operation (tick or cell) it belongs to, and its
start and end on the benchmark clock. Spans stay in memory and are written
out once, when the benchmark ends.
"""

from __future__ import annotations

import contextlib
import functools
import gzip
import json
import time


class Clock:
    """perf_counter minus the time spent inside `excluded()` sections.

    Output checks and tracer bookkeeping run excluded, so neither the
    untraced timings nor the span durations include them.
    """

    def __init__(self):
        self._excluded = 0.0
        self._depth = 0

    def now(self) -> float:
        return time.perf_counter() - self._excluded

    @contextlib.contextmanager
    def excluded(self):
        if self._depth:
            yield
            return
        self._depth += 1
        t0 = time.perf_counter()
        try:
            yield
        finally:
            self._excluded += time.perf_counter() - t0
            self._depth -= 1


class OpTimer:
    """Times every operation on the benchmark clock and counts the ones that
    raised or failed an output check."""

    def __init__(self, clock):
        self.clock = clock
        self.durations: list[float] = []
        self.failed = 0
        self.failed_outside = 0    # check failures between operations
        self._active = False
        self._failed = False

    def fail(self) -> None:
        if self._active:
            self._failed = True
        else:
            self.failed_outside += 1

    def wrap(self, fn):
        timer = self

        def timed(*args, **kwargs):
            timer._active, timer._failed = True, False
            t0 = timer.clock.now()
            try:
                return fn(*args, **kwargs)
            except Exception:
                timer._failed = True
                raise
            finally:
                timer.durations.append(timer.clock.now() - t0)
                timer.failed += timer._failed
                timer._active = False

        return timed


class Span:
    __slots__ = ("name", "layer", "parent", "op", "t0", "t1", "info")

    def __init__(self, name, layer, parent, op):
        self.name = name
        self.layer = layer
        self.parent = parent
        self.op = op
        self.t0 = 0.0
        self.t1 = 0.0
        self.info = None

    @property
    def duration(self) -> float:
        return self.t1 - self.t0


class Tracer:
    """Stack-parented spans around patched module attributes.

    `patch(owner, attr, ...)` replaces `owner.attr` with a recording wrapper;
    `restore()` puts every original back. While `recording` is False the
    wrappers only forward the call.
    """

    def __init__(self, clock: Clock):
        self.clock = clock
        self.spans: list[Span] = []
        self.recording = False
        self.op = None
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    def patch(self, owner, attr: str, info=None, enter=None) -> None:
        """Wrap `owner.attr`. `info(args, kwargs, result)` gives the span's
        counts; `enter(args)` returns a new operation id for root spans."""
        fn = getattr(owner, attr)
        layer = fn.__module__.rsplit(".", 1)[-1]
        name = f"{layer}.{fn.__qualname__}"
        self._patched.append((owner, attr, fn))
        setattr(owner, attr, self._wrap(fn, name, layer, info, enter))

    def restore(self) -> None:
        while self._patched:
            owner, attr, fn = self._patched.pop()
            setattr(owner, attr, fn)

    def _wrap(self, fn, name, layer, info, enter):
        tracer = self
        clock = self.clock
        spans = self.spans
        stack = self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.recording:
                return fn(*args, **kwargs)
            if enter is not None:
                tracer.op = enter(args)
            span = Span(name, layer, stack[-1] if stack else -1, tracer.op)
            stack.append(len(spans))
            spans.append(span)
            span.t0 = clock.now()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.t1 = clock.now()
                stack.pop()
            if info is not None:
                with clock.excluded():
                    span.info = info(args, kwargs, result)
            return result

        return traced

    def self_times(self) -> list[float]:
        """Each span's duration minus the durations of its direct children."""
        own = [s.duration for s in self.spans]
        for s in self.spans:
            if s.parent >= 0:
                own[s.parent] -= s.duration
        return own

    def nearest(self, names: set[str]) -> list[int]:
        """For every span, the index of its closest ancestor-or-self whose
        name is in `names`, or -1. Parents precede children in `spans`."""
        out = []
        for i, s in enumerate(self.spans):
            if s.name in names:
                out.append(i)
            else:
                out.append(out[s.parent] if s.parent >= 0 else -1)
        return out

    def write(self, path) -> None:
        """Gzipped JSON lines: one span per line, times in microseconds."""
        with gzip.open(path, "wt") as fh:
            for i, s in enumerate(self.spans):
                fh.write(json.dumps({
                    "id": i, "parent": s.parent, "name": s.name, "layer": s.layer,
                    "op": s.op, "t0_us": round(s.t0 * 1e6, 3),
                    "dur_us": round(s.duration * 1e6, 3), "info": s.info,
                }) + "\n")
