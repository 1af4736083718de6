"""The benchmark ledger: schema-versioned benchmark rows as JSONL.

The row format of the figure pipelines: every measured benchmark section
becomes one flat JSON row — the bench counterpart of the obs event schema
(:mod:`repro.obs.events`), with the same strictness contract: a fixed
``v`` schema version, required typed fields, booleans rejected where
numbers are expected, unknown extra fields allowed for forward
compatibility.  A row looks like::

    {"v": 1, "run_id": "689a0c3e-00042", "ts": 1754650000.0,
     "commit": "61e63b8", "bench": "faults",
     "section": "warm_solve",
     "value": 4.7e-05, "unit": "s", "better": "lower",
     "timer": {"repeats": 3, "p50": 5.1e-05, "min": 4.7e-05},
     "env": {"python": "3.11.7", "numpy": "2.4.6", "scale": 1.0, ...},
     "meta": {...}, "metrics": {...}}

``value`` is the section's headline number (best-of-N seconds, a
similarity, a percentage — ``unit`` says which); ``better`` records which
direction is an improvement (``"lower"`` / ``"higher"``), or ``None``
for rows that are informational.  ``timer`` carries the repeat statistics
when the value came from a timing loop.  ``env`` fingerprints the host
and the ``REPRO_BENCH_SCALE`` the row was measured at, and
``metrics``/``meta`` attach the obs snapshot and free-form section
context.

The figure runner and the benchmarks emit through :func:`emit_sections`,
which stamps the shared fields (run id, commit, timestamp, environment) and
appends to the ledger (``REPRO_LEDGER_PATH``, default
:data:`DEFAULT_LEDGER_NAME` in the working directory); ``runs/*/to_csv.py``
read the rows back with :func:`read_ledger` and write them with
:func:`write_csv`.  Performance is judged elsewhere — by
``python3 perf/run.py`` and ``perf/compare.py`` (``docs/benchmarks.md``).
"""

from __future__ import annotations

import csv
import json
import os
import platform
import statistics
import subprocess
import time
from typing import Any, Iterable, Mapping, Optional, Sequence

__all__ = [
    "LEDGER_VERSION",
    "DEFAULT_LEDGER_NAME",
    "LEDGER_PATH_ENV",
    "LedgerWriter",
    "validate_row",
    "read_ledger",
    "write_csv",
    "emit_sections",
    "timer_stats",
    "environment_fingerprint",
    "bench_scale",
    "scaled",
    "scaled_int",
    "git_commit",
    "new_run_id",
    "ledger_path",
]

#: bump when the row layout changes incompatibly
LEDGER_VERSION = 1

#: environment variable overriding where rows are appended
LEDGER_PATH_ENV = "REPRO_LEDGER_PATH"

DEFAULT_LEDGER_NAME = "BENCH_ledger.jsonl"

#: accepted values of the ``better`` direction
BETTER_DIRECTIONS = ("lower", "higher")

_FieldSpec = dict[str, tuple[type, ...]]

_REQUIRED_FIELDS: _FieldSpec = {
    "v": (int,),
    "run_id": (str,),
    "ts": (int, float),
    "commit": (str, type(None)),
    "bench": (str,),
    "section": (str,),
    "value": (int, float),
    "unit": (str,),
    "better": (str, type(None)),
    "env": (dict,),
}

#: optional fields validated when present (``None`` always accepted)
_OPTIONAL_FIELDS: _FieldSpec = {
    "timer": (dict, type(None)),
    "meta": (dict, type(None)),
    "metrics": (dict, type(None)),
}

_TIMER_FIELDS: _FieldSpec = {
    "repeats": (int,),
    "p50": (int, float),
    "min": (int, float),
}

_ENV_FIELDS: _FieldSpec = {
    "python": (str,),
    "numpy": (str,),
    "scale": (int, float),
}


def validate_row(row: object) -> dict[str, Any]:
    """Check one ledger row against the schema; returns it, raises ``ValueError``.

    Mirrors :func:`repro.obs.events.validate_event`: booleans are rejected
    where numbers are expected, unknown extra fields pass through.  Timer
    stats additionally must be internally consistent — at least one
    repeat, and ``min`` never above ``p50`` (a non-monotonic pair means
    the repeats were aggregated wrong).
    """
    if not isinstance(row, dict):
        raise ValueError(f"ledger row must be an object, got {type(row).__name__}")
    version = row.get("v")
    if version != LEDGER_VERSION:
        raise ValueError(f"unsupported ledger schema version {version!r}")
    _check_fields(row, _REQUIRED_FIELDS, "row")
    for field, accepted in _OPTIONAL_FIELDS.items():
        if field in row:
            value = row[field]
            if isinstance(value, bool) or not isinstance(value, accepted):
                raise ValueError(f"row field {field!r} has invalid value {value!r}")
    better = row["better"]
    if better is not None and better not in BETTER_DIRECTIONS:
        raise ValueError(
            f"better must be one of {BETTER_DIRECTIONS} or null, got {better!r}"
        )
    _check_fields(row["env"], _ENV_FIELDS, "env")
    timer = row.get("timer")
    if timer is not None:
        _check_fields(timer, _TIMER_FIELDS, "timer")
        if timer["repeats"] < 1:
            raise ValueError(f"timer.repeats must be >= 1, got {timer['repeats']!r}")
        if timer["min"] > timer["p50"]:
            raise ValueError(
                f"non-monotonic timer stats: min {timer['min']!r} exceeds "
                f"p50 {timer['p50']!r}"
            )
    return row


def _check_fields(mapping: Mapping[str, Any], spec: _FieldSpec, where: str) -> None:
    for field, accepted in spec.items():
        if field not in mapping:
            raise ValueError(f"{where} is missing field {field!r}")
        value = mapping[field]
        if isinstance(value, bool) or not isinstance(value, accepted):
            raise ValueError(f"{where} field {field!r} has invalid value {value!r}")


def read_ledger(path: str, validate: bool = True) -> list[dict[str, Any]]:
    """Parse (and by default validate) every row of a JSONL ledger file."""
    rows: list[dict[str, Any]] = []
    with open(path, "r", encoding="utf-8") as handle:
        for line_number, line in enumerate(handle, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                row = json.loads(line)
            except json.JSONDecodeError as error:
                raise ValueError(f"{path}:{line_number}: invalid JSON: {error}") from None
            if validate:
                try:
                    validate_row(row)
                except ValueError as error:
                    raise ValueError(f"{path}:{line_number}: {error}") from None
            rows.append(row)
    return rows


def write_csv(
    path: str | os.PathLike[str],
    columns: Sequence[str],
    rows: Sequence[Sequence[object]],
) -> None:
    """Write pivoted ledger rows as CSV (for external plotting tools)."""
    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(list(columns))
        for row in rows:
            writer.writerow(list(row))


class LedgerWriter:
    """Append-mode JSONL row writer — validates every row before writing."""

    def __init__(self, path: str) -> None:
        self.path = str(path)
        self._handle = open(self.path, "a", encoding="utf-8")

    def write(self, row: dict[str, Any]) -> dict[str, Any]:
        validate_row(row)
        self._handle.write(json.dumps(row, sort_keys=True) + "\n")
        return row

    def close(self) -> None:
        if not self._handle.closed:
            self._handle.flush()
            self._handle.close()

    def __enter__(self) -> "LedgerWriter":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()


def timer_stats(samples: Sequence[float]) -> dict[str, Any]:
    """Collapse raw timing repeats into the ledger's ``timer`` stats."""
    if not samples:
        raise ValueError("timer_stats needs at least one sample")
    return {
        "repeats": len(samples),
        "p50": float(statistics.median(samples)),
        "min": float(min(samples)),
    }


def bench_scale() -> float:
    """The ``REPRO_BENCH_SCALE`` multiplier of sizes, budgets and repetitions."""
    return float(os.environ.get("REPRO_BENCH_SCALE", "1.0"))


def scaled(value: float, minimum: float = 0.0) -> float:
    """``value`` times :func:`bench_scale`, never below ``minimum``."""
    return max(minimum, value * bench_scale())


def scaled_int(value: int, minimum: int = 1) -> int:
    """:func:`scaled` rounded to a count, never below ``minimum``."""
    return max(minimum, round(value * bench_scale()))


def environment_fingerprint() -> dict[str, Any]:
    """Host/python/numpy fingerprint stamped onto every row.

    ``scale`` records the :func:`bench_scale` the numbers were measured
    at — rows measured at different scales are different workloads.
    """
    import numpy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "platform": platform.platform(),
        "machine": platform.machine(),
        "scale": bench_scale(),
    }


def git_commit(cwd: Optional[str] = None) -> Optional[str]:
    """Short commit hash of the tree the benchmarks ran from, or ``None``."""
    try:
        completed = subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"],
            capture_output=True,
            text=True,
            timeout=10,
            cwd=cwd or os.path.dirname(os.path.abspath(__file__)),
        )
    except (OSError, subprocess.SubprocessError):
        return None
    if completed.returncode != 0:
        return None
    return completed.stdout.strip() or None


def new_run_id() -> str:
    """One id shared by every row of one :func:`emit_sections` call.

    Derived from start time and pid (no RNG involved — RL001 applies to
    ``src/``).
    """
    return f"{int(time.time()):08x}-{os.getpid():05d}"


def ledger_path() -> str:
    """Resolve where rows are appended: env override, else the default name."""
    return os.environ.get(LEDGER_PATH_ENV) or os.path.join(
        os.getcwd(), DEFAULT_LEDGER_NAME
    )


def emit_sections(
    bench: str,
    sections: Iterable[Mapping[str, Any]],
    *,
    ledger: Optional[str] = None,
) -> list[dict[str, Any]]:
    """Persist one benchmark family's measured sections.

    Each section mapping needs ``section``/``value``/``unit`` and may carry
    ``better`` (improvement direction, default ``None``), ``timer`` (from
    :func:`timer_stats`) and ``meta``.  The shared fields — run id, commit,
    timestamp, environment fingerprint, and the active observation's metric
    snapshot (with ``service.solve`` latency percentiles when the sink
    recorded them) — are stamped here, once, identically onto every row.

    Rows are appended to the ledger (``ledger`` argument, else
    :data:`LEDGER_PATH_ENV`, else :data:`DEFAULT_LEDGER_NAME` in the
    working directory).
    """
    from ..obs import current
    from ..obs.report import service_latency

    sections = [dict(section) for section in sections]
    metrics: Optional[dict[str, Any]] = None
    observation = current()
    if observation.enabled:
        metrics = observation.registry.snapshot()
        records = getattr(observation.sink, "records", None)
        if records:
            latency = service_latency(records)
            if latency is not None:
                metrics["latency"] = latency

    run_id = new_run_id()
    commit = git_commit()
    stamp = time.time()
    env = environment_fingerprint()

    rows: list[dict[str, Any]] = []
    for section in sections:
        row: dict[str, Any] = {
            "v": LEDGER_VERSION,
            "run_id": run_id,
            "ts": stamp,
            "commit": commit,
            "bench": bench,
            "section": str(section["section"]),
            "value": section["value"],
            "unit": str(section["unit"]),
            "better": section.get("better"),
            "env": env,
        }
        for optional in ("timer", "meta"):
            if section.get(optional) is not None:
                row[optional] = section[optional]
        if metrics is not None:
            row["metrics"] = metrics
        rows.append(row)

    with LedgerWriter(ledger or ledger_path()) as writer:
        for row in rows:
            writer.write(row)
    return rows
