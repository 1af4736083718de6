"""Benchmark-side spans: one record around every call the benchmark makes.

The traced pass wraps each op, and each call into a layer inside it, in a
span (name, start, end, parent, op id).  Spans stay in memory and are
written once, when the run ends.  The untraced pass uses :data:`OFF`, whose
``span`` is a shared no-op context, so end-to-end numbers carry no
recording cost.
"""

from __future__ import annotations

import json
import threading
import time
from pathlib import Path
from typing import Any

__all__ = ["SpanRecorder", "OFF"]


class _Span:
    __slots__ = ("_recorder", "_record")

    def __init__(self, recorder: "SpanRecorder", record: list) -> None:
        self._recorder = recorder
        self._record = record

    def __enter__(self) -> "_Span":
        stack = self._recorder._stack()
        record = self._record
        record[3] = stack[-1] if stack else None
        with self._recorder._lock:
            record[0] = len(self._recorder.records)
            self._recorder.records.append(record)
        stack.append(record[0])
        record[4] = time.perf_counter()
        return self

    def __exit__(self, *exc_info: object) -> None:
        self._record[5] = time.perf_counter()
        self._recorder._stack().pop()


class _NullSpan:
    __slots__ = ()

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *exc_info: object) -> None:
        pass


_NULL_SPAN = _NullSpan()


class SpanRecorder:
    """Append-only span store; one nesting stack per thread (per connection)."""

    def __init__(self) -> None:
        #: ``[id, name, op, parent, start, end]`` per span
        self.records: list[list] = []
        self._lock = threading.Lock()
        self._local = threading.local()

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def span(self, name: str, op: int | None = None) -> Any:
        return _Span(self, [-1, name, op, None, 0.0, 0.0])

    def nesting_ok(self, tolerance: float = 0.05) -> bool:
        """Per op, do child spans plus self time sum to the op span?

        Self time is the span minus its children, so the sum is exact as
        long as children lie inside their parent and do not overlap; this
        checks that, allowing ``tolerance`` of the parent for clock jitter.
        """
        child_time = [0.0] * len(self.records)
        for _id, _name, _op, parent, start, end in self.records:
            if parent is not None:
                child_time[parent] += end - start
        return all(
            child_time[span_id] <= (end - start) * (1.0 + tolerance)
            for span_id, _name, _op, _parent, start, end in self.records
        )

    def write(self, path: Path) -> None:
        fields = ("id", "name", "op", "parent", "start", "end")
        with open(path, "w") as handle:
            json.dump([dict(zip(fields, record)) for record in self.records], handle)


class _Off:
    def span(self, name: str, op: int | None = None) -> Any:
        return _NULL_SPAN


OFF = _Off()
