"""Turn a raw event trace into per-phase summaries.

:func:`summarize_trace` is the analysis half of ``repro trace summarize``:
given the records of one JSONL trace (or an in-memory sink) it aggregates
``span_close`` events into a per-phase wall-time / node-access table,
collects the convergence staircase, and surfaces the final metric
snapshot.  Pure dict-in/dict-out so tests and plotting scripts can reuse
it without the CLI.  :func:`format_table` renders rows as a text table.
"""

from __future__ import annotations

import math
from typing import Any, Iterable, Mapping, Optional, Sequence

__all__ = ["summarize_trace", "phase_rows", "service_latency", "format_table"]

#: the span whose close events are a request's end-to-end solve latency
SERVICE_SOLVE_SPAN = "service.solve"


def summarize_trace(records: Iterable[Mapping[str, Any]]) -> dict[str, Any]:
    """Aggregate a sequence of event records into a summary dict.

    Returns::

        {
          "events": <total records>,
          "members": sorted member indices seen (empty for single-process),
          "phases": {name: {"count", "elapsed", "node_reads"}},
          "convergence": {"points", "final_violations", "final_similarity"}
            or None,
          "local_maxima": <count>, "restarts": <count>, "crossovers": <count>,
          "requests": {"count", "by_status", "elapsed"} or None,
          "latency": {"count", "p50", "p95", "p99"} or None,
          "buffer": {"hits", "misses", "hit_ratio"} or None,
          "faults": {"crashes", "hangs", "corruptions", "retries",
            "rebuilds", "recovered_members", "lost_members"} or None,
          "metrics": last metric_snapshot payload or None,
        }

    ``requests`` aggregates the service request log; ``latency`` holds
    nearest-rank p50/p95/p99 over the ``service.solve`` span closes (the
    end-to-end per-request solve latency, present only for service
    traces); ``buffer`` reads the
    ``index.buffer.*`` counters out of the final metric snapshot (present
    only when a buffer pool was attached during the run); ``faults`` reads
    the ``faults.*`` recovery counters the same way (present only when
    faults were injected or recovered from during the run).

    ``node_reads`` per phase is ``None`` when no span of that name carried
    an io probe, otherwise the sum over probed spans.
    """
    phases: dict[str, dict[str, Any]] = {}
    members: set[int] = set()
    metrics: Optional[dict[str, Any]] = None
    convergence: Optional[dict[str, Any]] = None
    points = 0
    local_maxima = 0
    restarts = 0
    crossovers = 0
    total = 0
    requests: Optional[dict[str, Any]] = None
    latency_samples: list[float] = []
    for record in records:
        total += 1
        member = record.get("member")
        if isinstance(member, int):
            members.add(member)
        event_type = record.get("type")
        if event_type == "span_close":
            name = str(record.get("name", ""))
            phase = phases.get(name)
            if phase is None:
                phase = phases[name] = {
                    "count": 0,
                    "elapsed": 0.0,
                    "node_reads": None,
                }
            phase["count"] += 1
            phase["elapsed"] += float(record.get("elapsed", 0.0))
            reads = record.get("node_reads")
            if reads is not None:
                phase["node_reads"] = (phase["node_reads"] or 0) + int(reads)
            if name == SERVICE_SOLVE_SPAN:
                latency_samples.append(float(record.get("elapsed", 0.0)))
        elif event_type == "convergence":
            points += 1
            convergence = {
                "points": points,
                "final_violations": record.get("violations"),
                "final_similarity": record.get("similarity"),
            }
        elif event_type == "local_maximum":
            local_maxima += 1
        elif event_type == "restart":
            restarts += 1
        elif event_type == "crossover":
            crossovers += 1
        elif event_type == "request":
            if requests is None:
                requests = {"count": 0, "by_status": {}, "elapsed": 0.0}
            requests["count"] += 1
            status = str(record.get("status", "?"))
            requests["by_status"][status] = requests["by_status"].get(status, 0) + 1
            requests["elapsed"] += float(record.get("elapsed", 0.0))
        elif event_type == "metric_snapshot":
            metrics = dict(record.get("metrics", {}))
    buffer: Optional[dict[str, Any]] = None
    if metrics is not None:
        counters = metrics.get("counters", {})
        hits = counters.get("index.buffer.hit")
        misses = counters.get("index.buffer.miss")
        if hits is not None or misses is not None:
            hits, misses = int(hits or 0), int(misses or 0)
            accesses = hits + misses
            buffer = {
                "hits": hits,
                "misses": misses,
                "hit_ratio": (hits / accesses) if accesses else 0.0,
            }
    faults: Optional[dict[str, Any]] = None
    if metrics is not None:
        counters = metrics.get("counters", {})
        observed = {
            key.split(".", 1)[1]: int(value)
            for key, value in counters.items()
            if key.startswith("faults.")
        }
        if observed:
            faults = {
                name: observed.get(name, 0)
                for name in (
                    "crashes", "hangs", "corruptions", "retries", "rebuilds",
                    "recovered_members", "lost_members",
                )
            }
    return {
        "events": total,
        "members": sorted(members),
        "phases": {name: phases[name] for name in sorted(phases)},
        "convergence": convergence,
        "local_maxima": local_maxima,
        "restarts": restarts,
        "crossovers": crossovers,
        "requests": requests,
        "latency": _latency_stats(latency_samples),
        "buffer": buffer,
        "faults": faults,
        "metrics": metrics,
    }


def service_latency(
    records: Iterable[Mapping[str, Any]],
    span_name: str = SERVICE_SOLVE_SPAN,
) -> Optional[dict[str, Any]]:
    """Request-latency percentiles over one span's ``span_close`` events.

    Returns ``{"count", "p50", "p95", "p99"}`` in seconds (nearest-rank
    percentiles — deterministic, no interpolation), or ``None`` when the
    trace closed no span of that name.  This is the same statistic
    ``trace summarize`` surfaces and the bench ledger attaches to its obs
    snapshots.
    """
    samples = [
        float(record.get("elapsed", 0.0))
        for record in records
        if record.get("type") == "span_close" and record.get("name") == span_name
    ]
    return _latency_stats(samples)


def _latency_stats(samples: Sequence[float]) -> Optional[dict[str, Any]]:
    if not samples:
        return None
    ordered = sorted(samples)
    return {
        "count": len(ordered),
        "p50": _nearest_rank(ordered, 50.0),
        "p95": _nearest_rank(ordered, 95.0),
        "p99": _nearest_rank(ordered, 99.0),
    }


def _nearest_rank(ordered: Sequence[float], q: float) -> float:
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    return ordered[min(rank, len(ordered)) - 1]


def phase_rows(summary: Mapping[str, Any]) -> list[list[Any]]:
    """Flatten a summary's phase table into printable rows.

    Columns: phase, count, total elapsed seconds, total node reads
    (``"-"`` when the phase carried no io probe).
    """
    rows: list[list[Any]] = []
    for name, phase in summary.get("phases", {}).items():
        reads = phase.get("node_reads")
        rows.append(
            [
                name,
                phase.get("count", 0),
                phase.get("elapsed", 0.0),
                "-" if reads is None else reads,
            ]
        )
    return rows


def format_table(
    title: str,
    columns: Sequence[str],
    rows: Sequence[Sequence[object]],
    precision: int = 3,
) -> str:
    """Render ``rows`` under ``columns`` as an aligned monospace table."""
    rendered_rows = [
        [_render_cell(cell, precision) for cell in row] for row in rows
    ]
    headers = [str(column) for column in columns]
    widths = [
        max(len(headers[index]), *(len(row[index]) for row in rendered_rows))
        if rendered_rows
        else len(headers[index])
        for index in range(len(headers))
    ]
    lines = [title]
    lines.append("  ".join(header.rjust(width) for header, width in zip(headers, widths)))
    lines.append("  ".join("-" * width for width in widths))
    for row in rendered_rows:
        lines.append("  ".join(cell.rjust(width) for cell, width in zip(row, widths)))
    return "\n".join(lines)


def _render_cell(cell: object, precision: int) -> str:
    if isinstance(cell, bool):
        return str(cell)
    if isinstance(cell, float):
        return f"{cell:.{precision}f}"
    return str(cell)
