"""Cross-cutting randomized properties over the whole stack.

These tests draw random query topologies and datasets and check the global
contracts that tie the library together: exact joins agree with brute
force, IBB is optimal, heuristics return consistent and in-domain results,
and the incremental machinery never drifts — on *arbitrary* connected query
graphs, not just the chains/cliques the paper evaluates.
"""

import random
from contextlib import contextmanager

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import Budget, QueryGraph, hard_instance
from repro.core import (
    guided_indexed_local_search,
    indexed_branch_and_bound,
    indexed_local_search,
    indexed_simulated_annealing,
    spatial_evolutionary_algorithm,
)
from repro.core.evaluator import QueryEvaluator
from repro.core.solution import SolutionState
from repro.joins import brute_force_best, brute_force_join, window_reduction_join


@st.composite
def random_query_graphs(draw):
    num_variables = draw(st.integers(min_value=3, max_value=5))
    max_edges = num_variables * (num_variables - 1) // 2
    num_edges = draw(st.integers(min_value=num_variables - 1, max_value=max_edges))
    seed = draw(st.integers(min_value=0, max_value=10_000))
    return QueryGraph.random_connected(num_variables, num_edges, random.Random(seed))


@st.composite
def random_instances(draw, cardinality=18):
    query = draw(random_query_graphs())
    seed = draw(st.integers(min_value=0, max_value=10_000))
    target = draw(st.sampled_from([0.5, 1.0, 4.0]))
    return hard_instance(query, cardinality, seed=seed, target_solutions=target)


COMMON_SETTINGS = dict(
    max_examples=15,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)


class TestExactJoinAgreement:
    @settings(**COMMON_SETTINGS)
    @given(random_instances())
    def test_wr_equals_brute_force_on_random_graphs(self, instance):
        expected = set(brute_force_join(instance))
        assert set(window_reduction_join(instance)) == expected

    @settings(**COMMON_SETTINGS)
    @given(random_instances())
    def test_ibb_is_optimal_on_random_graphs(self, instance):
        _, oracle = brute_force_best(instance)
        result = indexed_branch_and_bound(instance)
        assert result.best_violations == oracle
        assert result.stats["proven_optimal"]


@contextmanager
def every_move_checked():
    """Every ``set_value`` of every state — climbing moves, SEA's crossover
    copies, annealing's rejections — is followed by a full recount: counters
    and carried rectangles against the datasets."""
    plain = SolutionState.set_value

    def checked(state, variable, object_id, rect=None):
        plain(state, variable, object_id, rect)
        state.check_consistency()

    SolutionState.set_value = checked
    try:
        yield
    finally:
        SolutionState.set_value = plain


class TestHeuristicContracts:
    @settings(**COMMON_SETTINGS)
    @given(random_instances(), st.integers(min_value=0, max_value=999))
    def test_all_heuristics_return_consistent_results(self, instance, seed):
        evaluator = QueryEvaluator(instance)
        with every_move_checked():
            runs = [
                indexed_local_search(instance, Budget.iterations(60), seed, evaluator=evaluator),
                guided_indexed_local_search(
                    instance, Budget.iterations(60), seed, evaluator=evaluator
                ),
                spatial_evolutionary_algorithm(
                    instance, Budget.iterations(4), seed, evaluator=evaluator
                ),
                indexed_simulated_annealing(
                    instance, Budget.iterations(200), seed, evaluator=evaluator
                ),
            ]
        for result in runs:
            values = list(result.best_assignment)
            # in-domain values
            assert all(
                0 <= value < len(instance.datasets[i])
                for i, value in enumerate(values)
            )
            # reported violations match a recount
            assert evaluator.count_violations(values) == result.best_violations
            # similarity consistent with violations
            assert result.best_similarity == pytest.approx(
                evaluator.similarity(result.best_violations)
            )

    @settings(**COMMON_SETTINGS)
    @given(random_instances(), st.integers(min_value=0, max_value=999))
    def test_heuristics_never_beat_the_optimum(self, instance, seed):
        _, oracle = brute_force_best(instance)
        result = indexed_local_search(instance, Budget.iterations(120), seed)
        assert result.best_violations >= oracle

    @settings(**COMMON_SETTINGS)
    @given(random_instances())
    def test_trace_points_strictly_improve(self, instance):
        result = indexed_local_search(instance, Budget.iterations(150), seed=1)
        violations = [point.violations for point in result.trace.points]
        assert violations == sorted(set(violations), reverse=True)
