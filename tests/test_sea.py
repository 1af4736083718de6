"""Spatial Evolutionary Algorithm tests: parameters, crossover, runs."""

import random

import pytest

from repro import (
    Budget,
    QueryGraph,
    SEAConfig,
    SEAParameters,
    hard_instance,
    planted_instance,
    spatial_evolutionary_algorithm,
)
from repro.core.evaluator import QueryEvaluator
from repro.core.sea import greedy_keep_set

from conftest import assert_memo_changed_nothing


class TestParameters:
    def test_paper_schedule(self):
        params = SEAParameters.from_problem_size(100.0)
        assert params.population == 10_000          # 100·s
        assert params.tournament == 5               # 0.05·s
        assert params.crossover_rate == 0.6
        assert params.mutation_rate == 1.0
        assert params.crossover_point_interval == 1_000  # 10·s

    def test_scaled_schedule(self):
        params = SEAParameters.from_problem_size(100.0, scale=0.01)
        assert params.population == 100
        assert params.tournament == 5  # tournament does not scale
        assert params.crossover_point_interval == 10

    def test_minimums(self):
        params = SEAParameters.from_problem_size(1.0, scale=0.01)
        assert params.population >= 8
        assert params.tournament >= 1
        assert params.crossover_point_interval >= 1

    def test_validation(self):
        with pytest.raises(ValueError):
            SEAParameters(population=1, tournament=1)
        with pytest.raises(ValueError):
            SEAParameters(population=10, tournament=10)
        with pytest.raises(ValueError):
            SEAParameters(population=10, tournament=2, crossover_rate=1.5)
        with pytest.raises(ValueError):
            SEAParameters(population=10, tournament=2, crossover_kind="fancy")
        with pytest.raises(ValueError):
            SEAParameters.from_problem_size(0.0)
        with pytest.raises(ValueError):
            SEAParameters.from_problem_size(10.0, scale=0.0)

    def test_crossover_point_schedule(self):
        params = SEAParameters(population=10, tournament=2, crossover_point_interval=5)
        assert params.crossover_point(0, 8) == 1
        assert params.crossover_point(4, 8) == 1
        assert params.crossover_point(5, 8) == 2
        assert params.crossover_point(10, 8) == 3
        assert params.crossover_point(10_000, 8) == 7  # capped at n-1

    def test_config_validation(self):
        with pytest.raises(ValueError):
            SEAConfig(immigrants_per_generation=-1)


class TestGreedyKeepSet:
    def test_paper_figure_8_example(self):
        """Reconstruct the solution-splitting example of Figure 8.

        Query: edges 1-2, 1-4, 1-6, 2-3, 3-5, 4-6, 5-6, 2-5 (0-indexed
        below); satisfied in the current solution: 1-4, 1-6, 4-6, 2-3.
        Initial order (satisfied desc, violations asc): v6, v4, v2, v1, v3,
        v5 (paper's 1-indexed naming).  With c = 3 the paper inserts v6,
        then v4 (edge 4-6), then v1 (edges 1-6 and 1-4).
        """
        query = QueryGraph(6)
        edges = [(0, 1), (0, 3), (0, 5), (1, 2), (2, 4), (3, 5), (4, 5), (1, 4)]
        for i, j in edges:
            query.add_edge(i, j)
        satisfied = {(0, 3), (0, 5), (3, 5), (1, 2)}

        # build datasets whose rects realise exactly this satisfaction
        # pattern at assignment (0, 0, 0, 0, 0, 0): place each variable's
        # rect far away, then overlap the satisfied pairs pairwise
        from repro import Rect, SpatialDataset
        from repro.query import ProblemInstance

        positions = {
            0: Rect(0, 0, 1.2, 1.2),      # overlaps v3 and v5 region
            3: Rect(1, 1, 2.2, 2.2),      # overlaps v0 and v5
            5: Rect(1.1, 0.1, 2.0, 1.4),  # overlaps v0 and v3
            1: Rect(10, 10, 11, 11),      # overlaps v2 only
            2: Rect(10.5, 10.5, 11.5, 11.5),
            4: Rect(50, 50, 51, 51),      # overlaps nothing
        }
        datasets = [
            SpatialDataset([positions[v], Rect(90 + v, 90, 91 + v, 91)])
            for v in range(6)
        ]
        instance = ProblemInstance(query=query, datasets=datasets)
        evaluator = QueryEvaluator(instance)
        state = evaluator.make_state([0] * 6)
        observed = {
            (i, j)
            for i, j, predicate in query.edges()
            if evaluator.pair_satisfied(i, 0, j, 0)
        }
        # hypothesis of the construction: exactly the wanted pattern holds
        assert observed == {tuple(sorted(e)) for e in satisfied}

        keep = greedy_keep_set(state, 3)
        assert keep == {0, 3, 5}  # the solved sub-graph v1/v4/v6 of the paper

    def test_keep_set_size_clamped(self, small_clique_instance):
        evaluator = QueryEvaluator(small_clique_instance)
        state = evaluator.random_state(random.Random(0))
        assert len(greedy_keep_set(state, 0)) == 1
        assert len(greedy_keep_set(state, 3)) == 3
        assert len(greedy_keep_set(state, 99)) == 4  # n-1 for n=5

    def test_keep_set_is_subset_of_variables(self, small_clique_instance):
        evaluator = QueryEvaluator(small_clique_instance)
        rng = random.Random(1)
        for _ in range(10):
            state = evaluator.random_state(rng)
            keep = greedy_keep_set(state, 3)
            assert keep <= set(range(5))


class TestRuns:
    def test_deterministic_given_seed(self, small_clique_instance):
        config = SEAConfig(
            parameters=SEAParameters(population=16, tournament=2),
        )
        a = spatial_evolutionary_algorithm(
            small_clique_instance, Budget.iterations(10), seed=5, config=config
        )
        b = spatial_evolutionary_algorithm(
            small_clique_instance, Budget.iterations(10), seed=5, config=config
        )
        assert a.best_assignment == b.best_assignment

    def test_result_consistency(self, small_clique_instance):
        result = spatial_evolutionary_algorithm(
            small_clique_instance, Budget.iterations(8), seed=1
        )
        evaluator = QueryEvaluator(small_clique_instance)
        assert evaluator.count_violations(list(result.best_assignment)) == (
            result.best_violations
        )
        assert result.algorithm == "SEA"
        assert result.stats["population"] >= 8

    def test_finds_planted_exact_solution(self):
        instance = planted_instance(QueryGraph.clique(4), 150, seed=9)
        result = spatial_evolutionary_algorithm(
            instance, Budget.iterations(200), seed=9
        )
        assert result.is_exact

    def test_strictly_published_variant_runs(self, small_clique_instance):
        config = SEAConfig(
            parameters=SEAParameters(population=16, tournament=2),
            seed_with_local_maxima=False,
            immigrants_per_generation=0,
        )
        result = spatial_evolutionary_algorithm(
            small_clique_instance, Budget.iterations(15), seed=2, config=config
        )
        assert result.stats["immigrants"] == 0
        assert result.best_violations <= 10

    def test_random_crossover_ablation_runs(self, small_clique_instance):
        config = SEAConfig(
            parameters=SEAParameters(
                population=16, tournament=2, crossover_kind="random"
            ),
        )
        result = spatial_evolutionary_algorithm(
            small_clique_instance, Budget.iterations(10), seed=3, config=config
        )
        assert result.best_violations <= 10

    def test_generation_budget_respected(self, small_clique_instance):
        config = SEAConfig(
            parameters=SEAParameters(population=16, tournament=2),
            stop_on_exact=False,
        )
        result = spatial_evolutionary_algorithm(
            small_clique_instance, Budget.iterations(7), seed=4, config=config
        )
        assert result.iterations == 7


class TestProbeMemo:
    @pytest.mark.parametrize("warm", [False, True], ids=["seeded", "warm"])
    def test_probe_memo_changes_nothing_but_descents(self, small_clique_instance, memo_ab, warm):
        warm_start = [random.Random(4).randrange(400) for _ in range(5)] if warm else None
        memoised, plain = memo_ab(
            spatial_evolutionary_algorithm, small_clique_instance, Budget.iterations(6),
            seed=2, warm_start=warm_start,
        )
        assert_memo_changed_nothing(memoised, plain, "mutations", "immigrants", "crossovers")
        assert memoised.stats["probes"]["answered"] > 0
