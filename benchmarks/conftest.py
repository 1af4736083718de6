"""Shared infrastructure for the benchmark suite.

Benchmarks regenerate the paper's tables/figures at laptop scale.  Since
pytest captures stdout, rendered tables are registered here and printed in
the terminal summary, after pytest-benchmark's own timing table.

Scale knobs: every benchmark honours the ``REPRO_BENCH_SCALE`` environment
variable.  The default 1.0 is the laptop configuration; CI and every
``runs/*/run_all.sh`` run the quick ``REPRO_BENCH_SCALE=0.1``.  Multiply
budgets, dataset sizes and repetitions towards the paper's setting, e.g.::

    REPRO_BENCH_SCALE=10 pytest benchmarks/bench_fig10a.py --benchmark-only
"""

from __future__ import annotations

import os

_TABLES: list[str] = []


def record_table(text: str) -> None:
    """Queue a rendered table for the end-of-run summary."""
    _TABLES.append(text)


def bench_scale() -> float:
    """User-controlled multiplier for budgets / sizes / repetitions."""
    return float(os.environ.get("REPRO_BENCH_SCALE", "1.0"))


def scaled(value: float, minimum: float = 0.0) -> float:
    return max(minimum, value * bench_scale())


def scaled_int(value: int, minimum: int = 1) -> int:
    return max(minimum, round(value * bench_scale()))


def pytest_terminal_summary(terminalreporter):
    if not _TABLES:
        return
    terminalreporter.section("paper tables (repro)")
    for text in _TABLES:
        terminalreporter.write_line("")
        for line in text.splitlines():
            terminalreporter.write_line(line)
