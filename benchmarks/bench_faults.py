"""Fault-hook bench — the cost of robustness when nothing is injected.

The fault-injection sites (:func:`repro.faults.fault_point`,
:func:`repro.faults.checkpoint_incumbent`) sit on the solver's incumbent
path and at member dispatch, so their *disabled* cost is paid by every
production run.  This bench measures:

* **fault_point (disabled)** — per-call cost with no plan active;
* **checkpoint_incumbent (disabled)** — per-call cost with no hook set;
* **warm solve** — an inline ``parallel_restarts`` solve (best-of-N);
* **overhead** — the disabled hooks' share of that solve, computed from
  the number of hook invocations the solve actually performs (one
  dispatch site per member plus one incumbent publication per milestone).

The acceptance gate, asserted here: disabled hooks stay under 2% of
solve time.  The measured values are appended to the ledger as rows.
"""

from __future__ import annotations

import time

import pytest
from conftest import record_table, scaled_int

from repro import Budget, QueryGraph, hard_instance
from repro.bench import format_table
from repro.bench.ledger import emit_sections, timer_stats
from repro.core.parallel import parallel_restarts
from repro.faults import SITE_MEMBER_PROGRESS, checkpoint_incumbent, fault_point

_RESULTS: list[dict] = []


@pytest.fixture(scope="module", autouse=True)
def _flush_results():
    yield
    if not _RESULTS:
        return
    rows = [[r["section"], r["value"], r["unit"]] for r in _RESULTS]
    record_table(
        format_table(
            "Fault-hook bench — disabled-path overhead",
            ["section", "value", "unit"],
            rows,
            precision=6,
        )
    )
    emit_sections("faults", _RESULTS)


def _record(
    section: str, value: float, unit: str, better: str | None = None,
    timer: dict | None = None,
) -> None:
    _RESULTS.append({
        "section": section, "value": value, "unit": unit, "better": better,
        "timer": timer,
    })


def _per_call_seconds(callable_, calls: int, repeats: int = 5) -> list[float]:
    samples = []
    for _ in range(repeats):
        started = time.perf_counter()
        for _ in range(calls):
            callable_()
        samples.append((time.perf_counter() - started) / calls)
    return samples


def test_disabled_hook_overhead():
    calls = scaled_int(100_000, minimum=10_000)

    fault_point_samples = _per_call_seconds(
        lambda: fault_point(SITE_MEMBER_PROGRESS, index=0, attempt=0, hit=0), calls
    )
    checkpoint_samples = _per_call_seconds(
        lambda: checkpoint_incumbent((1, 2, 3), 4, 0.5, 0.01, 100), calls
    )
    fault_point_s = min(fault_point_samples)
    checkpoint_s = min(checkpoint_samples)
    _record("fault_point_disabled", fault_point_s * 1e9, "ns/call",
            better="lower",
            timer=timer_stats([x * 1e9 for x in fault_point_samples]))
    _record("checkpoint_disabled", checkpoint_s * 1e9, "ns/call",
            better="lower",
            timer=timer_stats([x * 1e9 for x in checkpoint_samples]))

    iterations = scaled_int(2_000)
    cardinality = scaled_int(300, minimum=60)
    instance = hard_instance(QueryGraph.chain(3), cardinality=cardinality, seed=5)

    best_solve = float("inf")
    milestones = 0
    solve_samples = []
    for _ in range(3):
        started = time.perf_counter()
        result = parallel_restarts(
            instance, Budget.iterations(iterations), seed=0, heuristic="gils",
            restarts=2, workers=1,
        )
        elapsed = time.perf_counter() - started
        solve_samples.append(elapsed)
        if elapsed < best_solve:
            best_solve = elapsed
            milestones = result.milestones
    _record("warm_solve", best_solve, "s", better="lower",
            timer=timer_stats(solve_samples))

    # hooks the solve actually executed: one dispatch fault_point per member
    # plus one checkpoint publication per incumbent improvement
    hook_seconds = 2 * fault_point_s + max(1, milestones) * checkpoint_s
    overhead_pct = 100.0 * hook_seconds / best_solve
    # a ratio of two tiny numbers: informational, no direction declared
    _record("disabled_overhead", overhead_pct, "%")
    assert overhead_pct < 2.0, (
        f"disabled fault hooks cost {overhead_pct:.3f}% of a warm solve "
        "(budget: 2%)"
    )
