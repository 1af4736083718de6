"""Process-parallel restarts: determinism, reductions and budget splitting.

The core contract: with an iteration budget, ``parallel_restarts(seed=k,
workers=n)`` returns the same best solution for *any* ``n`` — member seeds
are hash-derived from the member index, never from worker identity or
completion order.
"""

from __future__ import annotations

import random
from types import SimpleNamespace

import pytest

from repro import Budget, QueryGraph, hard_instance, parallel_restarts
from repro.core import portfolio_search
from repro.core.parallel import (
    RunSpec,
    _merge_concurrent_traces,
    default_workers,
    derive_seed,
    run_specs,
)
from repro.core.result import ConvergenceTrace


@pytest.fixture(scope="module")
def instance():
    return hard_instance(QueryGraph.clique(3), cardinality=120, seed=21)


# ----------------------------------------------------------------------
# seed derivation
# ----------------------------------------------------------------------
def test_derive_seed_is_stable_and_decorrelated():
    assert derive_seed(0, 0) == derive_seed(0, 0)  # deterministic
    seeds = {derive_seed(base, index) for base in range(10) for index in range(10)}
    assert len(seeds) == 100  # no collisions across bases and indices
    assert all(0 <= seed < 2**64 for seed in seeds)


def test_default_workers_positive():
    assert default_workers() >= 1


# ----------------------------------------------------------------------
# determinism across worker counts
# ----------------------------------------------------------------------
@pytest.mark.parametrize("heuristic", ["ils", "sea"])
def test_parallel_restarts_independent_of_worker_count(instance, heuristic):
    budget = Budget.iterations(40)
    results = [
        parallel_restarts(
            instance, budget, seed=13, heuristic=heuristic, restarts=3,
            workers=workers,
        )
        for workers in (1, 2, 3)
    ]
    reference = results[0]
    for result in results[1:]:
        assert result.best_assignment == reference.best_assignment
        assert result.best_violations == reference.best_violations
        assert result.stats["winner"] == reference.stats["winner"]
        member_key = [
            (m["violations"], m["iterations"]) for m in result.stats["members"]
        ]
        reference_key = [
            (m["violations"], m["iterations"]) for m in reference.stats["members"]
        ]
        assert member_key == reference_key


def test_parallel_restarts_reproducible(instance):
    first = parallel_restarts(
        instance, Budget.iterations(30), seed=4, restarts=2, workers=1
    )
    second = parallel_restarts(
        instance, Budget.iterations(30), seed=4, restarts=2, workers=1
    )
    assert first.best_assignment == second.best_assignment
    assert first.best_violations == second.best_violations


def test_parallel_restarts_result_shape(instance):
    result = parallel_restarts(
        instance, Budget.iterations(25), seed=1, heuristic="ils", restarts=3,
        workers=1,
    )
    assert result.algorithm == "parallel(ils×3)"
    assert len(result.stats["members"]) == 3
    assert 0 <= result.stats["winner"] < 3
    assert result.best_violations == min(
        member["violations"] for member in result.stats["members"]
    )
    assert result.iterations == sum(
        member["iterations"] for member in result.stats["members"]
    )
    # merged trace is a strictly-improving staircase
    violations = [point.violations for point in result.trace.points]
    assert violations == sorted(violations, reverse=True)
    assert len(set(violations)) == len(violations)


def test_member_stats_include_tree_work(instance):
    """Every member digest carries a TreeStats snapshot of its index work."""
    result = parallel_restarts(
        instance, Budget.iterations(25), seed=9, heuristic="gils", restarts=3,
        workers=1,
    )
    for member in result.stats["members"]:
        index_work = member["index"]
        assert isinstance(index_work, dict)
        assert index_work["node_reads"] > 0
        # full TreeStats vocabulary present, all non-negative
        for key in ("leaf_reads", "window_queries", "best_value_searches",
                    "splits", "inserts", "deletes"):
            assert index_work[key] >= 0


# ----------------------------------------------------------------------
# monotone-staircase trace merge
# ----------------------------------------------------------------------
def trace_result(points):
    """Fake member result: ``_merge_concurrent_traces`` reads only ``.trace``."""
    trace = ConvergenceTrace()
    for elapsed, iterations, violations, similarity in points:
        trace.record(elapsed, iterations, violations, similarity)
    return SimpleNamespace(trace=trace)


def test_merged_trace_is_monotone_staircase():
    """Interleaved member points merge into one improving staircase."""
    members = [
        trace_result([(0.1, 1, 5, 0.2), (0.5, 5, 2, 0.7), (0.9, 9, 2, 0.7)]),
        trace_result([(0.2, 2, 4, 0.4), (0.6, 6, 3, 0.6)]),
        trace_result([(0.3, 3, 6, 0.1)]),  # never improves on the others
    ]
    merged = _merge_concurrent_traces(members)
    violations = [point.violations for point in merged.points]
    similarities = [point.similarity for point in merged.points]
    elapsed = [point.elapsed for point in merged.points]
    assert violations == [5, 4, 2]  # strictly improving
    assert similarities == sorted(similarities)  # non-decreasing similarity
    assert elapsed == sorted(elapsed)


def test_merged_trace_covers_every_members_final_point():
    members = [
        trace_result([(0.1, 1, 6, 0.2), (0.8, 8, 1, 0.9)]),
        trace_result([(0.2, 2, 3, 0.5)]),
        trace_result([(0.4, 4, 4, 0.4)]),
    ]
    merged = _merge_concurrent_traces(members)
    for member in members:
        final = member.trace.points[-1]
        # by the member's final timestamp the merged staircase is at least
        # as good as that member ever got
        assert merged.similarity_at(final.elapsed) >= final.similarity


def test_merged_trace_ties_resolved_by_violations_at_same_time():
    members = [
        trace_result([(0.5, 5, 2, 0.7)]),
        trace_result([(0.5, 5, 4, 0.4)]),
    ]
    merged = _merge_concurrent_traces(members)
    # the better simultaneous point wins; the worse one never appears
    assert [point.violations for point in merged.points] == [2]


def test_merged_trace_from_real_runs_is_staircase(instance):
    result = parallel_restarts(
        instance, Budget.iterations(40), seed=2, heuristic="ils", restarts=3,
        workers=1,
    )
    points = result.trace.points
    similarities = [point.similarity for point in points]
    violations = [point.violations for point in points]
    assert similarities == sorted(similarities)
    assert violations == sorted(violations, reverse=True)
    # the staircase bottoms out at the winner's best
    assert points[-1].violations == result.best_violations


def test_parallel_restarts_rejects_bad_restarts(instance):
    with pytest.raises(ValueError):
        parallel_restarts(instance, Budget.iterations(5), restarts=0)


def test_run_specs_unknown_heuristic(instance):
    spec = RunSpec(heuristic="nope", seed=0, time_limit=None, max_iterations=5, index=0)
    with pytest.raises(ValueError, match="unknown heuristic"):
        run_specs(instance, [spec], workers=1)


def test_run_specs_preserves_spec_order(instance):
    specs = [
        RunSpec(heuristic=name, seed=derive_seed(2, index), time_limit=None,
                max_iterations=20, index=index)
        for index, name in enumerate(["ils", "sea", "ils"])
    ]
    inline, inline_faults = run_specs(instance, specs, workers=1)
    pooled, pooled_faults = run_specs(instance, specs, workers=2)
    assert inline_faults is None and pooled_faults is None
    assert [r.algorithm for r in inline] == [r.algorithm for r in pooled]
    for a, b in zip(inline, pooled):
        assert a.best_violations == b.best_violations
        assert a.best_assignment == b.best_assignment


# ----------------------------------------------------------------------
# parallel portfolio
# ----------------------------------------------------------------------
def test_portfolio_parallel_matches_across_worker_counts(instance):
    budget = Budget.iterations(40)
    two = portfolio_search(instance, budget, seed=6, workers=2)
    three = portfolio_search(instance, budget, seed=6, workers=3)
    assert two.best_assignment == three.best_assignment
    assert two.best_violations == three.best_violations
    assert two.stats["winner"] == three.stats["winner"]
    assert two.algorithm.startswith("portfolio(")


def test_portfolio_workers_validation(instance):
    with pytest.raises(ValueError):
        portfolio_search(instance, Budget.iterations(5), workers=0)


def test_portfolio_parallel_accepts_random_seed(instance):
    result = portfolio_search(
        instance, Budget.iterations(20), seed=random.Random(3), workers=2
    )
    assert result.best_violations >= 0
    assert len(result.stats["members"]) == 2
    assert "faults" not in result.stats
