"""In-memory spans around calls into the package, for the traced run.

A span has a name, a start, an end, its parent span and the op (one
product) it belongs to.  ``Tracer.install`` replaces module attributes
with recording wrappers and ``Tracer.uninstall`` puts the originals
back; no file of the package changes.  Calls are strictly nested on one
thread, so a span's self time is its duration minus the durations of
its children.
"""

from __future__ import annotations

import json
import statistics
import time
from collections import Counter, defaultdict
from contextlib import contextmanager
from dataclasses import asdict, dataclass


@dataclass
class Span:
    id: int
    parent: int | None
    op: int | None
    name: str
    start: float
    end: float = 0.0
    raised: bool = False


class Tracer:
    """Records spans at a fixed list of call points.

    ``points`` holds ``(module, attribute, span name, counter)``; the
    counter, when not None, is called as ``counter(tracer, args, result)``
    after the call returns, so counts are taken where the work happens.
    """

    def __init__(self, points):
        self.points = points
        self.spans: list[Span] = []
        self.counts: Counter = Counter()
        self.gauges: dict[str, float] = {}
        self.op: int | None = None
        self._stack: list[Span] = []
        self._saved: list[tuple] = []

    @contextmanager
    def span(self, name: str):
        parent = self._stack[-1].id if self._stack else None
        span = Span(len(self.spans), parent, self.op, name, time.perf_counter())
        self.spans.append(span)
        self._stack.append(span)
        try:
            yield span
        except BaseException:
            span.raised = True
            raise
        finally:
            span.end = time.perf_counter()
            self._stack.pop()

    def _wrap(self, fn, name: str, counter):
        def traced(*args, **kwargs):
            with self.span(name):
                result = fn(*args, **kwargs)
            if counter is not None:
                counter(self, args, result)
            return result

        return traced

    @contextmanager
    def recording(self, name: str, op: int | None = None):
        """Install the wrappers and record one root span around the block."""
        self.op = op
        self.install()
        try:
            with self.span(name):
                yield
        finally:
            self.uninstall()

    def install(self) -> None:
        for module, attr, name, counter in self.points:
            original = getattr(module, attr)
            self._saved.append((module, attr, original))
            setattr(module, attr, self._wrap(original, name, counter))

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._saved):
            setattr(module, attr, original)
        self._saved.clear()

    def write(self, path) -> None:
        """Write every span, one JSON object per line."""
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(asdict(span)) + "\n")


def summarize_spans(spans: list[Span]) -> dict:
    """Busy time per span name (run total and median per op), self time
    per module inside ops, raised calls per module, and total op time.

    The module of a span is the part of its name before the first dot;
    spans named ``op`` are the per-product roots.
    """
    child_time: dict[int, float] = defaultdict(float)
    for s in spans:
        if s.parent is not None:
            child_time[s.parent] += s.end - s.start
    total: dict[str, float] = defaultdict(float)
    per_op: dict[str, dict[int, float]] = defaultdict(lambda: defaultdict(float))
    module_self: dict[str, float] = defaultdict(float)
    raised: Counter = Counter()
    op_time = 0.0
    unattributed = 0.0
    for s in spans:
        duration = s.end - s.start
        self_time = duration - child_time[s.id]
        if s.name == "op":
            op_time += duration
            unattributed += self_time
            continue
        module = s.name.split(".")[0]
        total[s.name] += duration
        raised[module] += s.raised
        if s.op is not None:
            per_op[s.name][s.op] += duration
            module_self[module] += self_time
    return {
        "total_s": dict(total),
        "op_median_s": {name: statistics.median(ops.values()) for name, ops in per_op.items()},
        "module_self_s": dict(module_self),
        "raised": dict(raised),
        "op_s": op_time,
        "unattributed_s": unattributed,
    }
