"""End-to-end observability: instrumented algorithms, traces, aggregation.

The acceptance contract for the observability layer: running GILS under an
observation yields schema-valid events whose per-phase wall time and node
accesses sum (within 5 %) to the run totals; parallel runs merge
member-tagged events and metrics deterministically across worker counts.
"""

from __future__ import annotations

import pytest

from repro import Budget, QueryGraph, hard_instance, parallel_restarts
from repro.core import (
    GILSConfig,
    guided_indexed_local_search,
    indexed_local_search,
    spatial_evolutionary_algorithm,
)
from repro.core.evaluator import QueryEvaluator
from repro.obs import (
    MemorySink,
    Observation,
    observe,
    summarize_trace,
    validate_event,
)


@pytest.fixture(scope="module")
def instance():
    return hard_instance(QueryGraph.clique(3), cardinality=150, seed=17)


def observed_run(runner, *args, **kwargs):
    sink = MemorySink()
    with observe(Observation(sink=sink)) as observation:
        result = runner(*args, **kwargs)
        observation.emit_metrics()
    return result, sink, observation


# ----------------------------------------------------------------------
# single-process GILS trace
# ----------------------------------------------------------------------
def test_gils_trace_is_schema_valid(instance):
    _result, sink, _obs = observed_run(
        guided_indexed_local_search, instance, Budget.iterations(400), seed=5
    )
    assert sink.records
    for record in sink.records:
        validate_event(record)
    types = {record["type"] for record in sink.records}
    assert {"span_open", "span_close", "convergence", "metric_snapshot"} <= types


def test_gils_phase_totals_sum_to_run_totals(instance):
    """Per-phase wall time and node accesses account for the whole run."""
    result, sink, _obs = observed_run(
        guided_indexed_local_search, instance, Budget.seconds(0.4), seed=5
    )
    summary = summarize_trace(sink.records)
    phases = summary["phases"]
    assert set(phases) == {"gils.run", "gils.seed", "gils.climb"}

    # node accesses: seeding reads nothing, so climb accounts for the run
    # exactly, and the span total matches the RunResult's index delta
    run_reads = phases["gils.run"]["node_reads"]
    assert phases["gils.climb"]["node_reads"] == run_reads
    assert result.stats["index"]["node_reads"] == run_reads
    assert run_reads > 0

    # wall time: the seed + climb phases cover the run span within 5 %
    covered = phases["gils.seed"]["elapsed"] + phases["gils.climb"]["elapsed"]
    run_elapsed = phases["gils.run"]["elapsed"]
    assert covered <= run_elapsed
    assert covered >= 0.95 * run_elapsed
    # and the run span itself covers the reported RunResult.elapsed within 5 %
    assert run_elapsed >= 0.95 * result.elapsed


def test_gils_counters_match_stats(instance):
    result, _sink, observation = observed_run(
        guided_indexed_local_search,
        instance,
        Budget.iterations(300),
        seed=2,
        config=GILSConfig(),
    )
    counters = observation.registry.snapshot()["counters"]
    # lazily created: absent means zero
    assert counters.get("gils.local_maxima", 0) == result.stats["local_maxima"]
    assert counters["index.node_reads"] == result.stats["index"]["node_reads"]
    assert counters["gils.penalties_issued"] == result.stats["penalties_issued"]
    # GILS moves through best-value searches
    assert (
        counters["index.best_value_searches"]
        == result.stats["index"]["best_value_searches"]
        > 0
    )


def test_ils_emits_restart_events(instance):
    result, sink, _obs = observed_run(
        indexed_local_search, instance, Budget.iterations(300), seed=3
    )
    restarts = [r for r in sink.records if r["type"] == "restart"]
    assert len(restarts) == result.stats["restarts"]
    assert [r["index"] for r in restarts] == list(range(len(restarts)))


def test_sea_emits_generation_spans(instance):
    result, sink, _obs = observed_run(
        spatial_evolutionary_algorithm, instance, Budget.iterations(200), seed=4
    )
    summary = summarize_trace(sink.records)
    assert "sea.run" in summary["phases"]
    assert "sea.generation" in summary["phases"]
    counters = summary["metrics"]["counters"]
    # an exact hit breaks out mid-generation: that generation has a span
    # but is not counted as completed, hence the +1 tolerance
    span_count = summary["phases"]["sea.generation"]["count"]
    assert counters["sea.generations"] <= span_count <= counters["sea.generations"] + 1
    assert result.iterations == counters["sea.generations"]


def test_convergence_events_mirror_trace(instance):
    result, sink, _obs = observed_run(
        guided_indexed_local_search, instance, Budget.iterations(300), seed=6
    )
    events = [r for r in sink.records if r["type"] == "convergence"]
    assert len(events) == len(result.trace.points)
    assert [e["violations"] for e in events] == [
        p.violations for p in result.trace.points
    ]


def test_disabled_observation_changes_nothing(instance):
    """The same seed and budget produce identical results with obs on/off."""
    evaluator = QueryEvaluator(instance)
    plain = guided_indexed_local_search(
        instance, Budget.iterations(250), seed=8, evaluator=evaluator
    )
    observed, _sink, _obs = observed_run(
        guided_indexed_local_search,
        instance,
        Budget.iterations(250),
        seed=8,
        evaluator=evaluator,
    )
    assert plain.best_assignment == observed.best_assignment
    assert plain.best_violations == observed.best_violations
    assert plain.iterations == observed.iterations


# ----------------------------------------------------------------------
# cross-process aggregation
# ----------------------------------------------------------------------
def test_parallel_run_merges_member_events(instance):
    result, sink, observation = observed_run(
        parallel_restarts,
        instance,
        Budget.iterations(120),
        seed=11,
        heuristic="gils",
        restarts=3,
        workers=2,
    )
    members = {r["member"] for r in sink.records if "member" in r}
    assert members == {0, 1, 2}  # events from every member, >= 2 workers
    for record in sink.records:
        validate_event(record)

    obs_stats = result.stats["obs"]
    assert obs_stats["members"] == [0, 1, 2]
    assert obs_stats["events"] > 0
    counters = observation.registry.snapshot()["counters"]
    assert counters["parallel.members"] == 3
    assert counters["index.node_reads"] == sum(
        member["index"]["node_reads"] for member in result.stats["members"]
    )


def test_merged_metrics_independent_of_worker_count(instance):
    def run(workers):
        result, _sink, observation = observed_run(
            parallel_restarts,
            instance,
            Budget.iterations(120),
            seed=13,
            heuristic="ils",
            restarts=3,
            workers=workers,
        )
        return result, observation.registry.snapshot()

    (one_result, one_metrics) = run(1)
    (two_result, two_metrics) = run(2)
    assert one_metrics == two_metrics
    assert one_result.best_assignment == two_result.best_assignment
    assert one_result.stats["obs"]["metrics"] == two_result.stats["obs"]["metrics"]


def test_parallel_trace_summary_reports_members(instance):
    _result, sink, _obs = observed_run(
        parallel_restarts,
        instance,
        Budget.iterations(100),
        seed=7,
        heuristic="gils",
        restarts=2,
        workers=2,
    )
    summary = summarize_trace(sink.records)
    assert summary["members"] == [0, 1]
    assert "parallel.run" in summary["phases"]
    assert "gils.run" in summary["phases"]
    # member gils.run spans: one per member
    assert summary["phases"]["gils.run"]["count"] == 2


def test_members_unobserved_when_parent_disabled(instance):
    result = parallel_restarts(
        instance, Budget.iterations(60), seed=1, heuristic="ils", restarts=2,
        workers=2,
    )
    assert "obs" not in result.stats
