"""Indexed Branch and Bound: optimality against the brute-force oracle.

Candidate enumeration asks each window once per run (``WindowMemo``); the
loop it replaced — one ``search_predicate`` per instantiated neighbour,
hits counted in a dict — lives on here (:func:`reference_candidates`) as
the oracle for the candidate *sequence* and, for a fresh memo, the index
work charged for it.
"""

import gc
import random

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import (
    Budget,
    IBBConfig,
    QueryGraph,
    Rect,
    bulk_load,
    hard_instance,
    indexed_branch_and_bound,
    planted_instance,
)
from repro.core import ibb
from repro.core.evaluator import QueryEvaluator
from repro.core.ibb import WindowMemo, connectivity_order
from repro.data import SpatialDataset
from repro.geometry import INSIDE, NORTHEAST, WithinDistance
from repro.index.queries import search_predicate
from repro.joins import brute_force_best
from repro.query import ProblemInstance

from conftest import _inserted, _never_inflated, _remutated, _unpacked


class TestConnectivityOrder:
    def test_is_a_permutation(self, tiny_chain_instance):
        order = connectivity_order(QueryEvaluator(tiny_chain_instance))
        assert sorted(order) == [0, 1, 2, 3]

    def test_every_later_variable_touches_the_prefix(self):
        rng = random.Random(0)
        for _ in range(10):
            query = QueryGraph.random_connected(6, 8, rng)
            instance = hard_instance(query, 20, seed=1)
            evaluator = QueryEvaluator(instance)
            order = connectivity_order(evaluator)
            seen = {order[0]}
            for variable in order[1:]:
                assert any(j in seen for j, _p in evaluator.neighbors[variable])
                seen.add(variable)

    def test_chain_order_is_a_sweep(self, tiny_chain_instance):
        order = connectivity_order(QueryEvaluator(tiny_chain_instance))
        # starting from an interior variable, neighbors must be contiguous
        positions = {v: i for i, v in enumerate(order)}
        for i, j, _p in tiny_chain_instance.query.edges():
            assert abs(positions[i] - positions[j]) >= 1  # sanity
        # every prefix of the order induces a connected subchain
        for length in range(2, 5):
            prefix = sorted(order[:length])
            assert prefix == list(range(prefix[0], prefix[0] + length))


class TestOptimality:
    @pytest.mark.parametrize("seed", range(6))
    def test_matches_brute_force_on_cliques(self, seed):
        instance = hard_instance(QueryGraph.clique(3), 25, seed=seed)
        _, oracle_violations = brute_force_best(instance)
        result = indexed_branch_and_bound(instance)
        assert result.best_violations == oracle_violations
        assert result.stats["proven_optimal"]

    @pytest.mark.parametrize("seed", range(6))
    def test_matches_brute_force_on_chains(self, seed):
        instance = hard_instance(QueryGraph.chain(4), 15, seed=100 + seed)
        _, oracle_violations = brute_force_best(instance)
        result = indexed_branch_and_bound(instance)
        assert result.best_violations == oracle_violations

    def test_given_order_matches_connectivity_order(self):
        instance = hard_instance(QueryGraph.cycle(4), 15, seed=3)
        a = indexed_branch_and_bound(instance)
        b = indexed_branch_and_bound(
            instance, config=IBBConfig(use_connectivity_order=False)
        )
        assert a.best_violations == b.best_violations

    def test_finds_planted_exact_and_stops(self):
        instance = planted_instance(QueryGraph.clique(3), 60, seed=4)
        result = indexed_branch_and_bound(instance)
        assert result.is_exact
        assert result.stats["proven_optimal"]


class TestBoundSeeding:
    def test_seed_bound_preserves_optimality(self):
        instance = hard_instance(QueryGraph.clique(3), 25, seed=9)
        evaluator = QueryEvaluator(instance)
        plain = indexed_branch_and_bound(instance)
        # seed with a mediocre random solution
        rng = random.Random(0)
        seed_values = tuple(evaluator.random_values(rng))
        seeded = indexed_branch_and_bound(
            instance,
            initial_bound=evaluator.count_violations(seed_values),
            initial_assignment=seed_values,
        )
        assert seeded.best_violations == plain.best_violations

    def test_tight_bound_prunes_nodes(self):
        instance = hard_instance(QueryGraph.clique(3), 40, seed=10)
        plain = indexed_branch_and_bound(instance)
        seeded = indexed_branch_and_bound(
            instance,
            initial_bound=plain.best_violations + 1,
            initial_assignment=plain.best_assignment,
        )
        assert seeded.stats["nodes_expanded"] <= plain.stats["nodes_expanded"]
        assert seeded.best_violations == plain.best_violations

    def test_optimal_seed_returned_unchanged(self):
        instance = hard_instance(QueryGraph.clique(3), 25, seed=11)
        optimal = indexed_branch_and_bound(instance)
        reseeded = indexed_branch_and_bound(
            instance,
            initial_bound=optimal.best_violations,
            initial_assignment=optimal.best_assignment,
        )
        assert reseeded.best_violations == optimal.best_violations
        assert reseeded.best_assignment == optimal.best_assignment

    def test_bound_requires_assignment(self):
        instance = hard_instance(QueryGraph.clique(3), 25, seed=12)
        with pytest.raises(ValueError):
            indexed_branch_and_bound(instance, initial_bound=2)


class TestAnytimeBehaviour:
    @pytest.mark.parametrize(
        "fixture,assignment,node_reads,window_queries,memo_reads,memo_queries",
        [
            ("tiny_clique_instance", (3, 22, 23, 29), 6357, 3186, 455, 230),
            ("tiny_chain_instance", (42, 0, 1, 23), 159, 79, 157, 78),
            ("small_clique_instance", (0, 0, 382, 302, 305), 9137, 4503, 875, 419),
        ],
    )
    def test_index_work_as_before_the_windows_moved_onto_the_stack(
        self,
        request,
        without_window_memo,
        fixture,
        assignment,
        node_reads,
        window_queries,
        memo_reads,
        memo_queries,
    ):
        """Recorded on the commit before IBB carried its prefix's rectangles
        (the two budget-bound runs re-pinned when the last counted candidate
        became expanded: 6353/3184 and 9131/4500 before), and held by the run
        that queries every window afresh; the window memo's run asks the same
        windows and queries only ``memo_queries`` of them."""
        instance = request.getfixturevalue(fixture)
        plain = without_window_memo(
            indexed_branch_and_bound, instance, budget=Budget.iterations(3_000)
        )
        assert plain.best_assignment == assignment
        assert plain.stats["index"]["node_reads"] == node_reads
        assert plain.stats["index"]["window_queries"] == window_queries
        result = indexed_branch_and_bound(instance, budget=Budget.iterations(3_000))
        assert result.best_assignment == assignment
        assert result.stats["index"]["node_reads"] == memo_reads
        assert result.stats["index"]["window_queries"] == memo_queries
        assert result.stats["windows"] == {
            "asked": window_queries,
            "answered": window_queries - memo_queries,
        }

    @pytest.mark.parametrize("seed", range(5))
    def test_budget_buys_as_many_expansions_as_it_counts(self, seed):
        """A budget of exactly the expansions an unbounded run needs reaches
        the same exact, proven answer; one fewer does not prove it."""
        instance = planted_instance(QueryGraph.clique(3), 60, seed=seed)
        unbounded = indexed_branch_and_bound(instance)
        needed = unbounded.iterations
        assert unbounded.is_exact and unbounded.stats["proven_optimal"]
        bounded = indexed_branch_and_bound(instance, budget=Budget.iterations(needed))
        assert bounded.iterations == needed
        assert bounded.best_assignment == unbounded.best_assignment
        assert bounded.is_exact and bounded.stats["proven_optimal"]
        short = indexed_branch_and_bound(instance, budget=Budget.iterations(needed - 1))
        assert short.iterations == needed - 1
        assert not short.stats["proven_optimal"]

    def test_budget_exhaustion_returns_best_so_far(self):
        instance = hard_instance(QueryGraph.clique(4), 60, seed=13)
        result = indexed_branch_and_bound(instance, budget=Budget.iterations(500))
        evaluator = QueryEvaluator(instance)
        assert evaluator.count_violations(list(result.best_assignment)) == (
            result.best_violations
        )
        if not result.is_exact:
            assert not result.stats["proven_optimal"]

    def test_forced_exhaustion_counts_solutions(self):
        # stop_at_violations = -1 forces full exploration even after exact
        instance = planted_instance(QueryGraph.clique(3), 25, seed=14)
        result = indexed_branch_and_bound(
            instance, config=IBBConfig(stop_at_violations=-1)
        )
        assert result.is_exact
        assert result.stats["proven_optimal"]


# ----------------------------------------------------------------------
# the per-edge window queries _candidates used to issue: its oracle
# ----------------------------------------------------------------------
def reference_candidates(evaluator, variable, edges, values):
    dataset_size = len(evaluator.rects[variable])
    if not edges:
        for object_id in range(dataset_size):
            yield object_id, 0
        return
    counts = {}
    tree = evaluator.trees[variable]
    rects = evaluator.rects
    for j, predicate in edges:
        window = rects[j][values[j]]
        for _rect, item in search_predicate(tree, predicate, window):
            counts[item] = counts.get(item, 0) + 1
    buckets = {}
    for object_id, satisfied in counts.items():
        buckets.setdefault(satisfied, []).append(object_id)
    for satisfied in range(len(edges), 0, -1):
        for object_id in sorted(buckets.get(satisfied, ())):
            yield object_id, satisfied
    for object_id in range(dataset_size):
        if object_id not in counts:
            yield object_id, 0


BUILDERS = {
    "bulk_load": bulk_load,
    "inserted": _inserted,
    "unpacked": _unpacked,
    "never_inflated": _never_inflated,
    "remutated": _remutated,
}


def mixed_clique():
    """Clique-3 of ``intersects`` plus a fourth variable tied to each of them
    by a different §7 predicate."""
    query = QueryGraph(4)
    for i, j in ((0, 1), (0, 2), (1, 2)):
        query.add_edge(i, j)
    return (
        query.add_edge(0, 3, INSIDE).add_edge(1, 3, NORTHEAST).add_edge(2, 3, WithinDistance(0.15))
    )


def mixed_star(n):
    """A star whose centre joins its leaves by ``inside`` / ``northeast`` /
    ``within_distance`` / ``intersects`` in turn (leaf → centre orientation)."""
    predicates = [INSIDE, NORTHEAST, WithinDistance(0.1), None]
    query = QueryGraph(n)
    for leaf in range(1, n):
        predicate = predicates[(leaf - 1) % len(predicates)]
        if predicate is None:
            query.add_edge(0, leaf)
        else:
            query.add_edge(leaf, 0, predicate)
    return query


QUERIES = {
    "chain": QueryGraph.chain(4),
    "clique": QueryGraph.clique(4),
    "star": QueryGraph.star(5),
    "mixed_clique": mixed_clique(),
    "mixed_star": mixed_star(5),
}


def make_instance(query, builder, count, extent, max_entries, seed):
    rng = random.Random(seed)
    datasets = []
    for _ in range(query.num_variables):
        rect_list = [
            Rect.from_center(rng.random(), rng.random(), extent * (0.5 + rng.random()), extent)
            for _ in range(count)
        ]
        tree = builder(list(zip(rect_list, range(count))), max_entries)
        datasets.append(SpatialDataset(rect_list, tree=tree))
    return ProblemInstance(query=query, datasets=datasets)


def order_with_edges(evaluator, variable, edges):
    """A variable order that instantiates exactly ``edges``' partners before
    ``variable``: its position is ``len(edges)``."""
    first = [j for j, _predicate in edges]
    rest = [v for v in range(evaluator.num_variables) if v != variable and v not in first]
    return first + [variable] + rest


def assert_same_candidates(evaluator, rng, rounds):
    """Every variable against all its neighbours instantiated at random, and
    against each prefix of them, from a fresh memo: same ``(object_id,
    satisfied)`` sequence, same ``TreeStats`` delta (``window_queries``
    included)."""
    compared = 0
    for _ in range(rounds):
        values = evaluator.random_values(rng)
        for variable in range(evaluator.num_variables):
            neighbors = evaluator.neighbors[variable]
            for length in range(len(neighbors) + 1):
                edges = neighbors[:length]
                memo = WindowMemo(evaluator, order_with_edges(evaluator, variable, edges))
                assert memo.edges[length] == edges
                stats = evaluator.trees[variable].stats
                before = stats.snapshot()
                got = list(memo.candidates(length, values))
                work = stats.diff(before)
                before = stats.snapshot()
                expected = list(reference_candidates(evaluator, variable, edges, values))
                assert got == expected
                assert work == stats.diff(before)
                compared += bool(edges) and got[0][1] > 0
    assert compared  # some candidate list had a non-empty bucket


class TestCandidatesAgainstPerEdgeQueries:
    @pytest.mark.parametrize("builder", sorted(BUILDERS))
    @pytest.mark.parametrize("shape", sorted(QUERIES))
    def test_sequence_and_index_work(self, builder, shape):
        instance = make_instance(QUERIES[shape], BUILDERS[builder], 150, 0.12, 5, f"{builder}:{shape}")
        evaluator = QueryEvaluator(instance)
        assert evaluator.trees[0].height > 2
        assert_same_candidates(evaluator, random.Random(shape), rounds=6)
        if builder == "never_inflated":
            assert all(tree._root is None for tree in evaluator.trees)

    @pytest.mark.parametrize("shape", ["clique", "mixed_clique"])
    def test_three_level_tree_beyond_the_prefix(self, shape):
        instance = make_instance(QUERIES[shape], bulk_load, 3_000, 0.03, 40, shape)
        evaluator = QueryEvaluator(instance)
        packed = evaluator.trees[0].packed()
        assert packed.height == 3 and 0 < packed.prefix_stop < 3_000
        assert_same_candidates(evaluator, random.Random(shape), rounds=3)

    def test_unconstrained_variable_lists_the_domain(self, tiny_clique_instance):
        evaluator = QueryEvaluator(tiny_clique_instance)
        size = len(evaluator.rects[0])
        memo = WindowMemo(evaluator, [0, 1, 2, 3])
        assert list(memo.candidates(0, [0] * 4)) == [(i, 0) for i in range(size)]
        assert evaluator.trees[0].stats.window_queries == 0
        assert memo.stats() == {"asked": 0, "answered": 0}


# ----------------------------------------------------------------------
# the window memo: reuse changes nothing but the queries
# ----------------------------------------------------------------------
def run_options(mode, evaluator, rng):
    """IBB keyword arguments of a plain, a seeded and an exhaustive run."""
    if mode == "seeded":
        seed_values = tuple(evaluator.random_values(rng))
        return {
            "budget": Budget.iterations(2_000),
            "initial_bound": evaluator.count_violations(seed_values),
            "initial_assignment": seed_values,
        }
    if mode == "exhaustive":
        return {"budget": Budget.iterations(30_000), "config": IBBConfig(stop_at_violations=-1)}
    return {"budget": Budget.iterations(2_000)}


def assert_reuse_changed_nothing(without_window_memo, instance, budget, **options):
    """The same IBB run with and without the window memo: the same search,
    and every window the memo did not answer is one real window query."""
    memoised = indexed_branch_and_bound(instance, budget.spawn(), **options)
    plain = without_window_memo(indexed_branch_and_bound, instance, budget.spawn(), **options)
    assert memoised.best_assignment == plain.best_assignment
    assert memoised.best_violations == plain.best_violations
    for key in ("nodes_expanded", "proven_optimal"):
        assert memoised.stats[key] == plain.stats[key], key
    windows, index_work = memoised.stats["windows"], memoised.stats["index"]
    assert windows["asked"] == plain.stats["index"]["window_queries"]
    assert index_work["window_queries"] == windows["asked"] - windows["answered"]
    assert index_work["node_reads"] <= plain.stats["index"]["node_reads"]
    return memoised


def walk_siblings(evaluator, rng, steps):
    """IBB-like candidate lists from one memo, each against the per-edge
    oracle: at a random depth, a few siblings (the parent re-drawn), after
    re-drawing one earlier variable.  Checks that the memo's unanswered
    windows are its real queries; returns the memo."""
    order = connectivity_order(evaluator)
    memo = WindowMemo(evaluator, order)
    values = evaluator.random_values(rng)
    queries = 0
    for _ in range(steps):
        depth = rng.randrange(1, len(order))
        changed = order[rng.randrange(depth)]
        values[changed] = rng.randrange(len(evaluator.columns[changed]))
        variable, parent = order[depth], order[depth - 1]
        stats = evaluator.trees[variable].stats
        for _sibling in range(rng.randrange(1, 4)):
            values[parent] = rng.randrange(len(evaluator.columns[parent]))
            before = stats.window_queries
            got = list(memo.candidates(depth, values))
            queries += stats.window_queries - before
            assert got == list(
                reference_candidates(evaluator, variable, memo.edges[depth], values)
            )
    assert queries == memo.asked - memo.answered
    return memo


def record_memos(monkeypatch):
    """The window memos of the IBB runs that follow, in a list."""
    memos = []

    class Recorded(WindowMemo):
        __slots__ = ()

        def __init__(self, *args):
            super().__init__(*args)
            memos.append(self)

    monkeypatch.setattr(ibb, "WindowMemo", Recorded)
    return memos


#: coordinates on a 0.1 grid of the unit square: equal counts, touching
#: edges, and the §7 mixes' distances all occur
_grid = st.sampled_from([i / 10 for i in range(10)])
_side = st.sampled_from([0.0, 0.05, 0.1, 0.2])
grid_rects = st.builds(lambda x, y, w, h: Rect(x, y, x + w, y + h), _grid, _grid, _side, _side)


class TestWindowMemo:
    """Each window is queried once per run and each depth reuses its shared
    edges, yet every candidate list — and so every run — is unchanged."""

    @pytest.mark.parametrize("mode", ["plain", "seeded", "exhaustive"])
    @pytest.mark.parametrize("builder", sorted(BUILDERS))
    @pytest.mark.parametrize("shape", sorted(QUERIES))
    def test_runs_equal_runs_without_reuse(self, without_window_memo, shape, builder, mode):
        instance = make_instance(
            QUERIES[shape], BUILDERS[builder], 50, 0.05, 4, f"{builder}:{shape}"
        )
        evaluator = QueryEvaluator(instance)
        assert evaluator.trees[0].height > 2
        options = run_options(mode, evaluator, random.Random(mode))
        assert_reuse_changed_nothing(without_window_memo, instance, **options)

    # no pinned example count: CI reruns this under HYPOTHESIS_PROFILE=deep
    @settings(deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(
        st.sampled_from(sorted(QUERIES)),
        st.sampled_from(sorted(BUILDERS)),
        st.sampled_from(["plain", "seeded", "exhaustive"]),
        st.lists(st.lists(grid_rects, min_size=1, max_size=25), min_size=5, max_size=5),
        st.integers(min_value=0, max_value=2**32),
    )
    def test_identity_property(self, without_window_memo, shape, builder, mode, rect_lists, seed):
        """Any instance: sibling walks match the per-edge oracle, and runs
        match the runs without reuse."""
        query = QUERIES[shape]
        build = BUILDERS[builder]
        datasets = [
            SpatialDataset(rect_list, tree=build(list(zip(rect_list, range(len(rect_list)))), 4))
            for rect_list in rect_lists[: query.num_variables]
        ]
        instance = ProblemInstance(query=query, datasets=datasets)
        evaluator = QueryEvaluator(instance)
        rng = random.Random(seed)
        walk_siblings(evaluator, rng, steps=10)
        assert_reuse_changed_nothing(
            without_window_memo, instance, **run_options(mode, evaluator, rng)
        )

    @pytest.mark.parametrize("shape", ["clique", "mixed_clique"])
    def test_sibling_walk_on_a_three_level_tree(self, shape):
        instance = make_instance(QUERIES[shape], bulk_load, 3_000, 0.03, 40, shape)
        evaluator = QueryEvaluator(instance)
        assert evaluator.trees[0].packed().height == 3
        memo = walk_siblings(evaluator, random.Random(shape), steps=40)
        assert memo.answered > 0

    def test_memo_holds_nothing_the_collector_tracks(self, monkeypatch):
        """Keys, hit arrays, per-depth keys and count dicts are plain
        numbers, so a run's memo never fills the collector's young
        generation."""
        memos = record_memos(monkeypatch)
        instance = make_instance(QUERIES["clique"], bulk_load, 80, 0.03, 4, "hygiene")
        indexed_branch_and_bound(
            instance, Budget.iterations(50_000), config=IBBConfig(stop_at_violations=-1)
        )
        # a dense instance leaves shared counts behind too
        dense = make_instance(QUERIES["clique"], bulk_load, 150, 0.12, 5, "hygiene")
        memos.append(walk_siblings(QueryEvaluator(dense), random.Random(1), steps=20))
        held = []
        for memo in memos:
            assert memo._hits
            held += [value for pair in memo._hits.items() for value in pair]
            held += memo._shared_keys + memo._shared_counts
            for counts in memo._shared_counts:
                held += [value for pair in counts.items() for value in pair]
        assert any(memos[-1]._shared_counts)
        assert not [value for value in held if gc.is_tracked(value)]

    def test_memo_stays_bounded(self, monkeypatch):
        instance = make_instance(QUERIES["clique"], bulk_load, 80, 0.03, 4, "bounded")
        options = {"config": IBBConfig(stop_at_violations=-1)}
        unbounded = indexed_branch_and_bound(instance, Budget.iterations(50_000), **options)
        memos = record_memos(monkeypatch)
        monkeypatch.setattr(ibb, "WINDOW_KEYS", 4)
        bounded = indexed_branch_and_bound(instance, Budget.iterations(50_000), **options)
        (memo,) = memos
        assert len(memo._hits) <= 4
        assert bounded.stats["windows"]["asked"] == unbounded.stats["windows"]["asked"]
        assert bounded.stats["index"]["window_queries"] > unbounded.stats["index"]["window_queries"]
        assert bounded.best_assignment == unbounded.best_assignment
        assert bounded.stats["nodes_expanded"] == unbounded.stats["nodes_expanded"]
