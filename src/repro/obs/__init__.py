"""Unified observability: spans, metrics, and JSONL event traces.

One :class:`Observation` bundles the three halves of the subsystem — a
:class:`~repro.obs.spans.Tracer` for nested timing spans, a
:class:`~repro.obs.metrics.MetricsRegistry` for counters/gauges/histograms,
and an :class:`~repro.obs.events.EventSink` receiving schema-versioned
records.  Algorithms never hold an observation; they ask for the ambient
one::

    from ..obs import current

    obs = current()
    with obs.span("gils.climb"):
        obs.counter("gils.local_maxima").inc()

By default the ambient observation is the shared no-op singleton: ``span``
returns a cached null span, ``counter`` a null counter, and ``event`` does
nothing, so instrumentation costs a handful of attribute lookups when
nobody is watching (what turning it on costs is ``BENCHMARK.json``'s
``obs.traced_overhead_pct``).
Drivers opt in with::

    with observe(Observation(sink=JsonlSink("trace.jsonl"))) as obs:
        result = guided_indexed_local_search(instance, budget)

This package deliberately imports nothing from the rest of ``repro`` at
module level (``Stopwatch`` and ``ConvergenceTrace`` are imported lazily)
so that ``core``/``geometry`` modules can import ``repro.obs`` at their
top level without cycles.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Any, Callable, Iterator, Mapping, Optional, Union

from .aggregate import collect_exports, export_state, merge_states, replay_into
from .events import (
    EVENT_TYPES,
    SCHEMA_VERSION,
    EventSink,
    JsonlSink,
    MemorySink,
    merge_trace_files,
    read_trace,
    validate_event,
)
from .metrics import (
    NULL_COUNTER,
    NULL_GAUGE,
    NULL_HISTOGRAM,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
)
from .names import METRIC_NAMES, SPAN_NAMES, check_metric_name, check_span_name
from .report import format_table, phase_rows, service_latency, summarize_trace
from .spans import NULL_SPAN, Span, Tracer

__all__ = [
    "Observation",
    "current",
    "activate",
    "observe",
    "SCHEMA_VERSION",
    "EVENT_TYPES",
    "EventSink",
    "MemorySink",
    "JsonlSink",
    "merge_trace_files",
    "read_trace",
    "validate_event",
    "MetricsRegistry",
    "Counter",
    "Gauge",
    "Histogram",
    "Tracer",
    "Span",
    "SPAN_NAMES",
    "METRIC_NAMES",
    "check_span_name",
    "check_metric_name",
    "export_state",
    "merge_states",
    "replay_into",
    "collect_exports",
    "summarize_trace",
    "phase_rows",
    "format_table",
    "service_latency",
]

_EMITTING_TRACE_CLASS: Optional[type] = None


def _rebuild_trace(points: tuple) -> Any:
    """Pickle helper: an emitting trace unpickles as a plain ConvergenceTrace."""
    from ..core.result import ConvergenceTrace

    trace = ConvergenceTrace()
    for point in points:
        trace.record(point.elapsed, point.iterations, point.violations, point.similarity)
    return trace


def _emitting_trace_class() -> type:
    """Build (once) a ConvergenceTrace subclass that mirrors into events.

    Lazy so this package never imports ``repro.core`` at module level.
    """
    global _EMITTING_TRACE_CLASS
    if _EMITTING_TRACE_CLASS is None:
        from ..core.result import ConvergenceTrace

        class _EmittingTrace(ConvergenceTrace):
            """ConvergenceTrace that also emits ``convergence`` events."""

            def __init__(self, observation: "Observation") -> None:
                super().__init__()
                self._observation = observation

            def record(
                self,
                elapsed: float,
                iterations: int,
                violations: int,
                similarity: float,
            ) -> None:
                super().record(elapsed, iterations, violations, similarity)
                self._observation.event(
                    "convergence",
                    elapsed=float(elapsed),
                    iterations=int(iterations),
                    violations=int(violations),
                    similarity=float(similarity),
                )

            def __reduce__(self):
                # the observation (and its sink) never crosses the process
                # boundary: pickle back to a plain ConvergenceTrace
                return (_rebuild_trace, (tuple(self.points),))

        _EMITTING_TRACE_CLASS = _EmittingTrace
    return _EMITTING_TRACE_CLASS


def _default_elapsed() -> Callable[[], float]:
    from ..core.budget import Stopwatch

    return Stopwatch().elapsed


class Observation:
    """A live observation: tracer + metrics registry + event sink."""

    enabled = True

    def __init__(
        self,
        sink: Optional[EventSink] = None,
        registry: Optional[MetricsRegistry] = None,
        stopwatch: Optional[Any] = None,
    ) -> None:
        self.sink: EventSink = sink if sink is not None else MemorySink()
        self.registry = registry if registry is not None else MetricsRegistry()
        if stopwatch is not None:
            self._elapsed: Callable[[], float] = stopwatch.elapsed
        else:
            self._elapsed = _default_elapsed()
        self.tracer = Tracer(self.event, self._elapsed)

    # -- events ---------------------------------------------------------
    def event(self, event_type: str, **fields: Any) -> None:
        """Emit one schema-versioned record through the sink."""
        record: dict[str, Any] = {
            "v": SCHEMA_VERSION,
            "type": event_type,
            "ts": self._elapsed(),
        }
        record.update(fields)
        self.sink.emit(record)

    def emit_metrics(self) -> None:
        """Emit a ``metric_snapshot`` event of the registry's current state."""
        self.event("metric_snapshot", metrics=self.registry.snapshot())

    # -- spans ----------------------------------------------------------
    def span(self, name: str, io: Optional[Callable[[], int]] = None) -> Span:
        return self.tracer.span(name, io)

    # -- metrics --------------------------------------------------------
    def counter(self, name: str) -> Counter:
        return self.registry.counter(name)

    def gauge(self, name: str) -> Gauge:
        return self.registry.gauge(name)

    def histogram(self, name: str) -> Histogram:
        return self.registry.histogram(name)

    def absorb_index_work(self, delta: Mapping[str, int]) -> None:
        self.registry.absorb_index_work(delta)

    # -- adapters -------------------------------------------------------
    def convergence_trace(self) -> Any:
        """A ConvergenceTrace that mirrors each point as a ``convergence`` event."""
        return _emitting_trace_class()(self)

    def close(self) -> None:
        self.sink.close()


class _DisabledObservation:
    """Shared no-op observation: every operation is a cheap constant."""

    enabled = False
    sink = None
    registry = None

    __slots__ = ()

    def event(self, event_type: str, **fields: Any) -> None:
        pass

    def emit_metrics(self) -> None:
        pass

    def span(self, name: str, io: Optional[Callable[[], int]] = None) -> Any:
        return NULL_SPAN

    def counter(self, name: str) -> Any:
        return NULL_COUNTER

    def gauge(self, name: str) -> Any:
        return NULL_GAUGE

    def histogram(self, name: str) -> Any:
        return NULL_HISTOGRAM

    def absorb_index_work(self, delta: Mapping[str, int]) -> None:
        pass

    def convergence_trace(self) -> Any:
        from ..core.result import ConvergenceTrace

        return ConvergenceTrace()

    def close(self) -> None:
        pass


NOOP = _DisabledObservation()

_ACTIVE: Union[Observation, _DisabledObservation] = NOOP


def current() -> Union[Observation, _DisabledObservation]:
    """The ambient observation (the no-op singleton unless one is active)."""
    return _ACTIVE


def activate(
    observation: Union[Observation, _DisabledObservation, None],
) -> Union[Observation, _DisabledObservation]:
    """Install ``observation`` as ambient; returns the previous one.

    Pass ``None`` (or :data:`NOOP`) to disable observation.
    """
    global _ACTIVE
    previous = _ACTIVE
    _ACTIVE = observation if observation is not None else NOOP
    return previous


@contextmanager
def observe(
    observation: Optional[Observation] = None,
) -> Iterator[Observation]:
    """Run a block under ``observation`` (a fresh MemorySink one by default)."""
    if observation is None:
        observation = Observation()
    previous = activate(observation)
    try:
        yield observation
    finally:
        activate(previous)
