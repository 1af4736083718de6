"""Indexed Local Search tests."""

import random

import pytest

from repro import Budget, QueryGraph, hard_instance, indexed_local_search, planted_instance
from repro.core.evaluator import QueryEvaluator
from repro.core.best_value import ProbeMemo
from repro.core.ils import ILSConfig, improve_worst_first

from conftest import assert_memo_changed_nothing


class TestConfig:
    def test_random_tries_validated(self):
        with pytest.raises(ValueError):
            ILSConfig(random_tries=0)


class TestClimbing:
    def test_improve_once_strictly_reduces_violations(self, tiny_clique_instance):
        evaluator = QueryEvaluator(tiny_clique_instance)
        rng = random.Random(0)
        memo = ProbeMemo(evaluator)
        for _ in range(20):
            state = evaluator.random_state(rng)
            before = state.violations
            improved = improve_worst_first(state, memo.improve)
            if improved:
                assert state.violations < before
            state.check_consistency()

    def test_local_maximum_is_stable(self, tiny_clique_instance):
        evaluator = QueryEvaluator(tiny_clique_instance)
        rng = random.Random(1)
        memo = ProbeMemo(evaluator)
        state = evaluator.random_state(rng)
        while improve_worst_first(state, memo.improve):
            pass
        # at a local maximum no single-variable change can improve: verify
        # exhaustively on this brute-forceable instance
        best = state.violations
        for variable in range(4):
            original = state.values[variable]
            for candidate in range(60):
                state.set_value(variable, candidate)
                assert state.violations >= best
            state.set_value(variable, original)


class TestRuns:
    def test_deterministic_given_seed(self, small_clique_instance):
        a = indexed_local_search(small_clique_instance, Budget.iterations(200), seed=5)
        b = indexed_local_search(small_clique_instance, Budget.iterations(200), seed=5)
        assert a.best_assignment == b.best_assignment
        assert a.best_violations == b.best_violations

    def test_same_instance_same_search_as_before_the_columnar_table(self, without_memo):
        """Recorded on the commit before the object table became columns: the
        generator draws the same bits and the search reads them in the same
        order, so the run repeats exactly.  The recorded reads are those of
        a descent per probe; the probe memo answers 28 of the 568 probes
        without one."""
        instance = hard_instance(QueryGraph.clique(3), 2_000, seed=11)
        plain = without_memo(indexed_local_search, instance, Budget.iterations(200), seed=3)
        assert plain.best_assignment == (960, 531, 1814)
        assert plain.stats["index"]["node_reads"] == 2340
        assert plain.stats["index"]["best_value_searches"] == 568
        result = indexed_local_search(instance, Budget.iterations(200), seed=3)
        assert result.best_assignment == (960, 531, 1814)
        assert result.stats["index"]["node_reads"] == 2284
        assert result.stats["probes"] == {"asked": 568, "answered": 28}
        assert result.stats["index"]["best_value_searches"] == 568 - 28

    def test_iteration_budget_respected(self, small_clique_instance):
        result = indexed_local_search(
            small_clique_instance, Budget.iterations(50), seed=0
        )
        assert result.iterations == 50

    def test_result_consistency(self, small_clique_instance):
        result = indexed_local_search(
            small_clique_instance, Budget.iterations(300), seed=1
        )
        evaluator = QueryEvaluator(small_clique_instance)
        assert evaluator.count_violations(list(result.best_assignment)) == (
            result.best_violations
        )
        assert result.best_similarity == pytest.approx(
            evaluator.similarity(result.best_violations)
        )
        assert result.algorithm == "ILS"
        assert result.stats["local_maxima"] == result.milestones

    def test_trace_is_strictly_improving(self, small_clique_instance):
        result = indexed_local_search(
            small_clique_instance, Budget.iterations(500), seed=2
        )
        violations = [point.violations for point in result.trace.points]
        assert violations == sorted(violations, reverse=True)
        assert len(set(violations)) == len(violations)

    def test_finds_planted_exact_solution(self):
        instance = planted_instance(QueryGraph.clique(4), 150, seed=3)
        result = indexed_local_search(instance, Budget.iterations(5_000), seed=3)
        assert result.is_exact
        assert result.best_similarity == 1.0

    def test_stop_on_exact_halts_early(self):
        instance = planted_instance(QueryGraph.clique(4), 150, seed=3)
        result = indexed_local_search(instance, Budget.iterations(100_000), seed=3)
        assert result.is_exact
        assert result.iterations < 100_000


    def test_spent_budget_still_answers_its_seed(self):
        """A run whose budget is gone before the first check returns its
        seed, as GILS and SEA do — not an empty tuple with E + 1 violations."""
        instance = hard_instance(QueryGraph.clique(4), 200, seed=3)
        evaluator = QueryEvaluator(instance)
        result = indexed_local_search(
            instance, Budget(time_limit=1e-12), seed=1, evaluator=evaluator
        )
        assert len(result.best_assignment) == 4
        assert 0 <= result.best_violations <= evaluator.num_constraints
        assert 0.0 <= result.best_similarity <= 1.0
        assert evaluator.count_violations(list(result.best_assignment)) == (
            result.best_violations
        )
        assert result.best_similarity == evaluator.similarity(result.best_violations)

    @pytest.mark.parametrize("warm", [False, True], ids=["seeded", "warm"])
    def test_probe_memo_changes_nothing_but_descents(self, small_clique_instance, memo_ab, warm):
        warm_start = [random.Random(4).randrange(400) for _ in range(5)] if warm else None
        memoised, plain = memo_ab(
            indexed_local_search, small_clique_instance, Budget.iterations(400),
            seed=2, warm_start=warm_start,
        )
        assert_memo_changed_nothing(memoised, plain, "local_maxima", "restarts")
        assert memoised.stats["probes"]["answered"] > 0


class TestRandomReassignmentAblation:
    def test_runs_and_labels_itself(self, small_clique_instance):
        config = ILSConfig(use_index=False, random_tries=4)
        result = indexed_local_search(
            small_clique_instance, Budget.iterations(200), seed=4, config=config
        )
        assert result.algorithm == "LS-random"
        assert 0 <= result.best_violations <= 10

    def test_indexed_version_is_no_worse(self, small_clique_instance):
        indexed = indexed_local_search(
            small_clique_instance, Budget.iterations(400), seed=6
        )
        randomised = indexed_local_search(
            small_clique_instance,
            Budget.iterations(400),
            seed=6,
            config=ILSConfig(use_index=False, random_tries=4),
        )
        assert indexed.best_violations <= randomised.best_violations
