"""In-memory spans around the benchmark's calls into the library.

A span is the tuple ``(id, parent, name, start_ns, end_ns)``.  The run
span of a pass has no parent, each job span hangs under it, and each
call span (named ``<layer>.<function>``) hangs under its job.  Spans
stay in memory until the run ends and are then written out in one go.
"""

from __future__ import annotations

import contextlib
from collections import defaultdict
from time import perf_counter_ns


class Tracer:
    """Records one span per library call and per job and pass."""

    def __init__(self):
        self.spans: list[tuple[int, int | None, str, int, int]] = []
        self._stack: list[int] = []
        self._last_id = 0

    def call(self, name: str, fn, *args, **kwargs):
        self._last_id += 1
        sid = self._last_id
        start = perf_counter_ns()
        try:
            return fn(*args, **kwargs)
        finally:
            end = perf_counter_ns()
            self.spans.append((sid, self._stack[-1] if self._stack else None, name, start, end))

    @contextlib.contextmanager
    def span(self, name: str):
        self._last_id += 1
        sid = self._last_id
        parent = self._stack[-1] if self._stack else None
        self._stack.append(sid)
        start = perf_counter_ns()
        try:
            yield
        finally:
            end = perf_counter_ns()
            self._stack.pop()
            self.spans.append((sid, parent, name, start, end))


class NullTracer:
    """Same interface as Tracer, recording nothing: the untraced passes."""

    spans: list = []

    @staticmethod
    def call(name: str, fn, *args, **kwargs):
        return fn(*args, **kwargs)

    @staticmethod
    def span(name: str):
        return contextlib.nullcontext()


def busy_by_name(spans) -> dict[str, int]:
    """Busy nanoseconds per span name."""
    out: dict[str, int] = defaultdict(int)
    for _, _, name, start, end in spans:
        out[name] += end - start
    return out


def layer_table(spans) -> dict[str, dict[str, float]]:
    """Busy seconds, self seconds and calls per layer (the name's prefix).

    Self time is a span's duration minus the time its child spans cover.
    The ``run`` and ``job`` rows are the benchmark's own time: the loop
    and the output checks between library calls.
    """
    covered: dict[int, int] = defaultdict(int)
    for _, parent, _, start, end in spans:
        if parent is not None:
            covered[parent] += end - start
    rows: dict[str, list[int]] = defaultdict(lambda: [0, 0, 0])
    for sid, _, name, start, end in spans:
        row = rows[name.split(".", 1)[0]]
        row[0] += end - start
        row[1] += end - start - covered[sid]
        row[2] += 1
    return {
        layer: {"busy_s": busy / 1e9, "self_s": own / 1e9, "calls": calls}
        for layer, (busy, own, calls) in sorted(rows.items())
    }
