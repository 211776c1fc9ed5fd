"""The benchmark's own span recorder, used only by traced runs.

A span is ``[name, start, end, parent, request]`` around one proxied or
directly timed call into a layer.  Spans are kept in memory and written out
once, when the run ends.  A span's *self time* is its duration minus the
part of it that its child spans cover, so the self times under a root span
sum to that root's duration.

Spans that ``repro.obs`` records inside the program are harvested separately
(:func:`obs_self_times`): they carry a parent link and a duration, which is
all a self time needs.
"""

from __future__ import annotations

import json
import threading
import time
from typing import Any, Callable

#: trace.json keeps at most this many spans; the self-time table covers all
MAX_WRITTEN_SPANS = 20_000

_NAME, _START, _END, _PARENT, _REQUEST = range(5)


class SpanRecorder:
    """Records nested spans per thread; lock-free (``list.append`` is atomic)."""

    def __init__(self) -> None:
        self.spans: list[list[Any]] = []
        self._local = threading.local()

    def _stack(self) -> list[list[Any]]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def call(self, name: str, fn: Callable[..., Any], *args: Any,
             request: Any = None) -> Any:
        """Run ``fn(*args)`` inside a span named ``name``."""
        stack = self._stack()
        span = [name, time.perf_counter(), None, stack[-1] if stack else None, request]
        self.spans.append(span)
        stack.append(span)
        try:
            return fn(*args)
        finally:
            span[_END] = time.perf_counter()
            stack.pop()

    def totals(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, total seconds and self seconds."""
        covered: dict[int, float] = {}
        for span in self.spans:
            parent = span[_PARENT]
            if parent is not None and span[_END] is not None:
                covered[id(parent)] = covered.get(id(parent), 0.0) + span[_END] - span[_START]
        out: dict[str, dict[str, float]] = {}
        for span in self.spans:
            if span[_END] is None:
                continue
            duration = span[_END] - span[_START]
            row = out.setdefault(span[_NAME], {"calls": 0, "total_s": 0.0, "self_s": 0.0})
            row["calls"] += 1
            row["total_s"] += duration
            row["self_s"] += duration - covered.get(id(span), 0.0)
        return out

    def to_rows(self) -> tuple[list[dict[str, Any]], int]:
        """JSON-ready spans (capped) and the number left out."""
        index = {id(span): i for i, span in enumerate(self.spans)}
        origin = self.spans[0][_START] if self.spans else 0.0
        rows = [
            {
                "id": i,
                "name": span[_NAME],
                "start": span[_START] - origin,
                "end": (span[_END] if span[_END] is not None else span[_START]) - origin,
                "parent": index[id(span[_PARENT])] if span[_PARENT] is not None else None,
                "request": span[_REQUEST],
            }
            for i, span in enumerate(self.spans[:MAX_WRITTEN_SPANS])
        ]
        return rows, max(0, len(self.spans) - MAX_WRITTEN_SPANS)


def obs_self_times(tracer: Any) -> dict[str, dict[str, float]]:
    """Per ``repro.obs`` span name: calls, total and self seconds, counters.

    Works from the tracer's public fields only (``spans``, ``parent_index``,
    ``wall_s``, ``counters``).
    """
    spans = tracer.spans
    covered = [0.0] * len(spans)
    for span in spans:
        if span.parent_index >= 0:
            covered[span.parent_index] += span.wall_s
    out: dict[str, dict[str, float]] = {}
    for i, span in enumerate(spans):
        row = out.setdefault(span.name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
        row["calls"] += 1
        row["total_s"] += span.wall_s
        row["self_s"] += span.wall_s - covered[i]
        for counter, amount in span.counters.items():
            row[counter] = row.get(counter, 0) + amount
    return out


def write_trace(path: str, recorder: SpanRecorder, obs: dict[str, dict[str, float]],
                per_layer: dict[str, dict[str, Any]], meta: dict[str, Any]) -> None:
    rows, dropped = recorder.to_rows()
    document = {
        "meta": meta,
        "per_layer": per_layer,
        "self_time": recorder.totals(),
        "obs_self_time": obs,
        "spans": rows,
        "spans_not_written": dropped,
    }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(document, fh)
        fh.write("\n")
