"""Guided Indexed Local Search and penalty-table tests."""

import random

import pytest

from repro import Budget, QueryGraph, guided_indexed_local_search, planted_instance
from repro.core.evaluator import QueryEvaluator
from repro.core.gils import DEFAULT_LAMBDA_FACTOR, GILSConfig
from repro.core.penalties import PenaltyTable

from conftest import assert_memo_changed_nothing


class TestPenaltyTable:
    def test_lambda_validated(self):
        with pytest.raises(ValueError):
            PenaltyTable(-0.1)

    def test_default_zero(self):
        table = PenaltyTable(0.5)
        assert table.get(0, 17) == 0
        assert table.weighted(0, 17) == 0.0
        assert table.weighted_total([17, 3]) == 0.0
        assert len(table) == 0

    def test_punish_minimum_all_zero(self):
        table = PenaltyTable(1.0)
        punished = table.punish_minimum([4, 5, 6])
        assert punished == [0, 1, 2]
        assert all(table.get(v, [4, 5, 6][v]) == 1 for v in range(3))
        assert table.total_issued == 3

    def test_punish_minimum_spares_already_punished(self):
        # the paper: only assignments with the *minimum* penalty get +1
        table = PenaltyTable(1.0)
        table.punish_minimum([4, 5, 6])       # all -> 1
        table.punish_minimum([4, 9, 6])       # (1, 9) has 0: only it punished
        assert table.get(0, 4) == 1
        assert table.get(1, 9) == 1
        assert table.get(2, 6) == 1

    def test_punish_minimum_repeated_same_solution(self):
        table = PenaltyTable(1.0)
        table.punish_minimum([4, 5])
        table.punish_minimum([4, 5])
        assert table.get(0, 4) == 2
        assert table.get(1, 5) == 2

    def test_weighted_total(self):
        table = PenaltyTable(0.5)
        table.punish_minimum([1, 2])
        assert table.weighted_total([1, 2]) == pytest.approx(1.0)
        assert table.weighted_total([1, 99]) == pytest.approx(0.5)


class TestGILSConfig:
    def test_paper_default_lambda(self, small_clique_instance):
        config = GILSConfig()
        lam = config.resolve_lambda(small_clique_instance)
        assert lam == pytest.approx(
            DEFAULT_LAMBDA_FACTOR * small_clique_instance.problem_size()
        )

    def test_override(self, small_clique_instance):
        assert GILSConfig(lam=0.25).resolve_lambda(small_clique_instance) == 0.25
        with pytest.raises(ValueError):
            GILSConfig(lam=-1.0).resolve_lambda(small_clique_instance)


class TestRuns:
    def test_deterministic_given_seed(self, small_clique_instance):
        a = guided_indexed_local_search(
            small_clique_instance, Budget.iterations(300), seed=5
        )
        b = guided_indexed_local_search(
            small_clique_instance, Budget.iterations(300), seed=5
        )
        assert a.best_assignment == b.best_assignment

    def test_result_reports_actual_violations(self, small_clique_instance):
        result = guided_indexed_local_search(
            small_clique_instance, Budget.iterations(400), seed=1
        )
        evaluator = QueryEvaluator(small_clique_instance)
        assert evaluator.count_violations(list(result.best_assignment)) == (
            result.best_violations
        )
        assert result.algorithm == "GILS"

    def test_penalties_are_issued_at_maxima(self, small_clique_instance):
        result = guided_indexed_local_search(
            small_clique_instance, Budget.iterations(400), seed=2
        )
        assert result.stats["local_maxima"] > 0
        assert result.stats["penalties_issued"] >= result.stats["local_maxima"]
        assert result.stats["lambda"] > 0

    def test_finds_planted_exact_solution_with_working_lambda(self):
        instance = planted_instance(QueryGraph.clique(4), 150, seed=7)
        result = guided_indexed_local_search(
            instance, Budget.iterations(20_000), seed=7, config=GILSConfig(lam=0.1)
        )
        assert result.best_violations <= 1

    def test_stop_on_exact(self):
        instance = planted_instance(QueryGraph.chain(4), 200, seed=8)
        result = guided_indexed_local_search(
            instance,
            Budget.iterations(50_000),
            seed=8,
            config=GILSConfig(lam=0.1),
        )
        if result.is_exact:
            assert result.iterations < 50_000

    def test_larger_lambda_escapes_maxima_faster(self, small_clique_instance):
        tiny = guided_indexed_local_search(
            small_clique_instance,
            Budget.iterations(500),
            seed=3,
            config=GILSConfig(lam=1e-12),
        )
        working = guided_indexed_local_search(
            small_clique_instance,
            Budget.iterations(500),
            seed=3,
            config=GILSConfig(lam=0.2),
        )
        # with a meaningful λ the walk visits more distinct assignments
        assert working.stats["penalised_assignments"] >= tiny.stats[
            "penalised_assignments"
        ]


class TestProbeMemo:
    @pytest.mark.parametrize("lam", [None, 0.6], ids=["paper", "large"])
    @pytest.mark.parametrize("warm", [False, True], ids=["seeded", "warm"])
    def test_probe_memo_changes_nothing_but_descents(
        self, small_clique_instance, memo_ab, lam, warm
    ):
        warm_start = [random.Random(4).randrange(400) for _ in range(5)] if warm else None
        memoised, plain = memo_ab(
            guided_indexed_local_search, small_clique_instance, Budget.iterations(400),
            seed=2, config=GILSConfig(lam=lam), warm_start=warm_start,
        )
        assert_memo_changed_nothing(
            memoised, plain, "local_maxima", "penalties_issued", "penalised_assignments"
        )
        probes = memoised.stats["probes"]
        assert probes["answered"] > 0
        assert probes["plateau_lists"] > 0
