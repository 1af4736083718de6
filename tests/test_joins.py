"""Exact-join baselines: WR, ST, PJM, pairwise R-tree join vs brute force.

ST and the pairwise join read the trees' packed arrays through pair
matrices; the one-``Rect``-at-a-time walk over the node graph they replaced
lives on here (:func:`reference_traversal`) as the oracle for what brute
force cannot see: the *sequence* of tuples and the per-tree ``node_reads`` /
``leaf_reads``.
"""

import random
import tracemalloc

import numpy as np
import pytest

from repro import (
    Budget,
    QueryGraph,
    Rect,
    bulk_load,
    hard_instance,
    indexed_branch_and_bound,
    planted_instance,
)
from repro.core.evaluator import QueryEvaluator
from repro.data import SpatialDataset
from repro.geometry import (
    CONTAINS,
    INSIDE,
    INTERSECTS,
    NORTHEAST,
    SOUTHWEST,
    SpatialPredicate,
    WithinDistance,
)
from repro.index.queries import search_predicate
from repro.index.node import Node
from repro.joins import st as st_module
from repro.joins import (
    brute_force_best,
    brute_force_join,
    count_exact_solutions,
    pairwise_join_method,
    rtree_join,
    synchronous_traversal_join,
    window_reduction_join,
)
from repro.joins.st import traverse_trees
from repro.joins.wr import window_candidates
from repro.query import ProblemInstance

from conftest import _inserted, _never_inflated, _remutated, _unpacked


def make_instance(query_builder, n, cardinality, seed, target=4.0):
    return hard_instance(
        query_builder(n), cardinality, seed=seed, target_solutions=target
    )


class TestBruteForce:
    def test_size_guard(self):
        instance = make_instance(QueryGraph.chain, 8, 50, seed=0)
        with pytest.raises(ValueError, match="brute force"):
            list(brute_force_join(instance))

    def test_solutions_are_valid(self):
        instance = make_instance(QueryGraph.clique, 3, 30, seed=1)
        from repro.core.evaluator import QueryEvaluator

        evaluator = QueryEvaluator(instance)
        for solution in brute_force_join(instance):
            assert evaluator.count_violations(solution) == 0

    def test_best_is_no_worse_than_any_enumerated(self):
        instance = make_instance(QueryGraph.clique, 3, 20, seed=2, target=0.2)
        _, best_violations = brute_force_best(instance)
        if count_exact_solutions(instance) > 0:
            assert best_violations == 0


class TestPairwiseRtreeJoin:
    @pytest.mark.parametrize("seed", range(5))
    def test_matches_nested_loop(self, seed):
        rng = random.Random(seed)
        rects_a = [Rect.from_center(rng.random(), rng.random(), 0.1, 0.1) for _ in range(80)]
        rects_b = [Rect.from_center(rng.random(), rng.random(), 0.1, 0.1) for _ in range(120)]
        tree_a = bulk_load(list(zip(rects_a, range(len(rects_a)))), max_entries=5)
        tree_b = bulk_load(list(zip(rects_b, range(len(rects_b)))), max_entries=7)
        expected = {
            (i, j)
            for i, a in enumerate(rects_a)
            for j, b in enumerate(rects_b)
            if a.intersects(b)
        }
        assert set(rtree_join(tree_a, tree_b)) == expected

    def test_different_heights(self):
        rng = random.Random(9)
        small = [Rect.from_center(rng.random(), rng.random(), 0.3, 0.3) for _ in range(4)]
        large = [Rect.from_center(rng.random(), rng.random(), 0.05, 0.05) for _ in range(500)]
        tree_small = bulk_load(list(zip(small, range(len(small)))), max_entries=4)
        tree_large = bulk_load(list(zip(large, range(len(large)))), max_entries=4)
        assert tree_small.height < tree_large.height
        expected = {
            (i, j)
            for i, a in enumerate(small)
            for j, b in enumerate(large)
            if a.intersects(b)
        }
        assert set(rtree_join(tree_small, tree_large)) == expected

    def test_empty_trees(self):
        empty = bulk_load([])
        other = bulk_load([(Rect(0, 0, 1, 1), 0)])
        assert list(rtree_join(empty, other)) == []
        assert list(rtree_join(other, empty)) == []


class TestMultiwayJoinsAgree:
    @pytest.mark.parametrize("seed", range(4))
    @pytest.mark.parametrize(
        "query_builder", [QueryGraph.chain, QueryGraph.clique, QueryGraph.cycle]
    )
    def test_all_algorithms_match_brute_force(self, query_builder, seed):
        instance = make_instance(query_builder, 3, 25, seed=seed)
        expected = set(brute_force_join(instance))
        assert set(window_reduction_join(instance)) == expected
        assert set(synchronous_traversal_join(instance)) == expected
        assert set(pairwise_join_method(instance)) == expected

    def test_four_way_chain(self):
        instance = make_instance(QueryGraph.chain, 4, 15, seed=21)
        expected = set(brute_force_join(instance))
        assert set(window_reduction_join(instance)) == expected
        assert set(synchronous_traversal_join(instance)) == expected
        assert set(pairwise_join_method(instance)) == expected

    def test_planted_solution_is_found_by_all(self):
        instance = planted_instance(QueryGraph.clique(3), 40, seed=22)
        planted = instance.planted
        assert planted in set(window_reduction_join(instance))
        assert planted in set(synchronous_traversal_join(instance))
        assert planted in set(pairwise_join_method(instance))


class TestWindowReduction:
    def test_limit(self):
        instance = make_instance(QueryGraph.chain, 3, 30, seed=23, target=20.0)
        all_solutions = list(window_reduction_join(instance))
        if len(all_solutions) >= 3:
            limited = list(window_reduction_join(instance, limit=3))
            assert len(limited) == 3
            assert set(limited) <= set(all_solutions)

    def test_supports_arbitrary_predicates(self):
        query = QueryGraph(3).add_edge(0, 1).add_edge(1, 2, INSIDE)
        instance = hard_instance(query, 30, seed=24, target_solutions=10.0)
        from repro.core.evaluator import QueryEvaluator

        evaluator = QueryEvaluator(instance)
        expected = set(brute_force_join(instance, evaluator))
        assert set(window_reduction_join(instance, evaluator)) == expected


class _SameParity(SpatialPredicate):
    """A predicate type no kernel knows: the filter's scalar fallback."""

    name = "same_parity"

    def test(self, a: Rect, b: Rect) -> bool:
        return int(a.xmin * 40) % 2 == int(b.xmin * 40) % 2

    def node_may_satisfy(self, node_mbr: Rect, b: Rect) -> bool:
        return True


class TestWindowCandidatesFilter:
    """``window_candidates`` against the filter over lists of rectangles it
    used to be, hit order included, for every §7 predicate and one no kernel
    knows."""

    PREDICATES = [
        INTERSECTS, INSIDE, CONTAINS, NORTHEAST, SOUTHWEST, WithinDistance(0.2), _SameParity(),
    ]

    @pytest.mark.parametrize("predicate", PREDICATES, ids=lambda predicate: predicate.name)
    def test_equals_the_scalar_filter(self, predicate):
        query = QueryGraph(3).add_edge(0, 2).add_edge(2, 1, predicate).add_edge(0, 1)
        rng = random.Random(predicate.name)
        datasets = [
            SpatialDataset(
                [
                    Rect.from_center(rng.random(), rng.random(), 0.3 * rng.random(), 0.3 * rng.random())
                    for _ in range(250)
                ],
                max_entries=8,
            )
            for _ in range(3)
        ]
        evaluator = QueryEvaluator(ProblemInstance(query=query, datasets=datasets))
        rects, edges = evaluator.rects, evaluator.neighbors[2]
        assert [j for j, _predicate in edges] == [0, 1]
        kept = dropped = 0
        for _ in range(40):
            values = evaluator.random_values(rng)
            hits = [
                item
                for _rect, item in search_predicate(
                    evaluator.trees[2], INTERSECTS, rects[0][values[0]]
                )
            ]
            expected = [
                item for item in hits if predicate.test(rects[2][item], rects[1][values[1]])
            ]
            windows = evaluator.rects_of(values)
            assert window_candidates(evaluator, 2, edges, windows.__getitem__) == expected
            kept += len(expected)
            dropped += len(hits) - len(expected)
        assert kept and dropped


class TestSynchronousTraversal:
    def test_rejects_non_intersects(self):
        query = QueryGraph(3).add_edge(0, 1).add_edge(1, 2, INSIDE)
        instance = hard_instance(query, 20, seed=25)
        with pytest.raises(ValueError, match="all-intersects"):
            list(synchronous_traversal_join(instance))

    def test_trees_of_unequal_heights(self):
        # one large dataset forces a deeper tree than the tiny ones
        query = QueryGraph.chain(3)
        rng = random.Random(26)
        from repro.data import SpatialDataset

        tiny = SpatialDataset(
            [Rect.from_center(rng.random(), rng.random(), 0.4, 0.4) for _ in range(5)],
            max_entries=4,
        )
        big = SpatialDataset(
            [
                Rect.from_center(rng.random(), rng.random(), 0.1, 0.1)
                for _ in range(400)
            ],
            max_entries=4,
        )
        instance = ProblemInstance(query=query, datasets=[tiny, big, tiny])
        expected = set(brute_force_join(instance))
        assert set(synchronous_traversal_join(instance)) == expected


class TestPJM:
    def test_requires_an_intersects_seed_edge(self):
        query = QueryGraph(3).add_edge(0, 1, INSIDE).add_edge(1, 2, INSIDE)
        instance = hard_instance(query, 20, seed=27)
        with pytest.raises(ValueError, match="intersects edge"):
            list(pairwise_join_method(instance))

    def test_mixed_predicates_after_seed(self):
        query = QueryGraph(3).add_edge(0, 1).add_edge(1, 2, INSIDE)
        instance = hard_instance(query, 25, seed=28, target_solutions=10.0)
        expected = set(brute_force_join(instance))
        assert set(pairwise_join_method(instance)) == expected


# ----------------------------------------------------------------------
# the node-walking traversal ST used to be: oracle for order and reads
# ----------------------------------------------------------------------
def reference_traversal(trees, edge_lists):
    """Backtrack over ``list(node.entries())`` with one ``Rect.intersects``
    per pair — synchronous traversal as it was before it read arrays."""

    def qualifying_combinations(nodes, leaf):
        entry_lists = []
        for node in nodes:
            if leaf or not node.is_leaf:
                entry_lists.append(list(node.entries()))
            else:
                entry_lists.append([(node.mbr, node)])
        chosen = []

        def backtrack(position):
            if position == len(nodes):
                yield list(chosen)
                return
            for rect, payload in entry_lists[position]:
                if all(rect.intersects(chosen[j][0]) for j in edge_lists[position]):
                    chosen.append((rect, payload))
                    yield from backtrack(position + 1)
                    chosen.pop()

        yield from backtrack(0)

    def descend(nodes):
        for tree, node in zip(trees, nodes):
            tree.stats.node_reads += 1
            if node.is_leaf:
                tree.stats.leaf_reads += 1
        if all(node.is_leaf for node in nodes):
            for combo in qualifying_combinations(nodes, leaf=True):
                yield tuple(item for _rect, item in combo)
            return
        for combo in qualifying_combinations(nodes, leaf=False):
            yield from descend(
                tuple(
                    payload if isinstance(payload, Node) else nodes[position]
                    for position, (_rect, payload) in enumerate(combo)
                )
            )

    roots = [tree.root for tree in trees]
    if all(root.mbr is not None for root in roots):
        yield from descend(tuple(roots))


def reads_of(trees):
    return [(tree.stats.node_reads, tree.stats.leaf_reads) for tree in trees]


def assert_same_traversal(trees, edge_lists, walkable=None):
    """Same tuples in the same order, same reads per tree.  ``walkable`` are
    structurally identical twins for the reference when ``trees`` must not
    be asked for a node."""
    walkable = walkable or trees
    for tree in (*trees, *walkable):
        tree.stats.reset()
    got = list(traverse_trees(trees, edge_lists))
    reads = reads_of(trees)
    for tree in walkable:
        tree.stats.reset()
    expected = list(reference_traversal(walkable, edge_lists))
    assert got == expected
    assert reads == reads_of(walkable)
    return got


def random_rects(rng, count, extent):
    return [Rect.from_center(rng.random(), rng.random(), extent, extent) for _ in range(count)]


def entries_of(rect_list):
    return list(zip(rect_list, range(len(rect_list))))


def star_centred_last(n):
    """Variables 1 … n−2 have no edge into their prefix: the extension step
    with nothing to check (a Cartesian product) is exercised."""
    query = QueryGraph(n)
    for leaf in range(n - 1):
        query.add_edge(leaf, n - 1)
    return query


QUERIES = {
    "chain": QueryGraph.chain(3),
    "clique": QueryGraph.clique(3),
    "star": QueryGraph.star(4),
    "star_centred_last": star_centred_last(4),
}


def edge_lists_of(query):
    return [sorted(j for j in query.neighbors(i) if j < i) for i in range(query.num_variables)]


WALKABLE_BUILDERS = {
    "bulk_load": bulk_load,
    "inserted": _inserted,
    "unpacked": _unpacked,
    "remutated": _remutated,
}


class TestTraversalAgainstNodeWalk:
    @pytest.mark.parametrize("builder", sorted(WALKABLE_BUILDERS))
    @pytest.mark.parametrize("shape", sorted(QUERIES))
    def test_sequence_and_reads(self, builder, shape):
        query = QUERIES[shape]
        rng = random.Random(f"{builder}:{shape}")
        trees = [
            WALKABLE_BUILDERS[builder](entries_of(random_rects(rng, 90, 0.12)), 5)
            for _ in range(query.num_variables)
        ]
        assert trees[0].height > 2
        assert assert_same_traversal(trees, edge_lists_of(query))

    @pytest.mark.parametrize("shape", sorted(QUERIES))
    def test_never_inflated_trees(self, shape):
        query = QUERIES[shape]
        rng = random.Random(shape)
        tables = [entries_of(random_rects(rng, 90, 0.12)) for _ in range(query.num_variables)]
        trees = [_never_inflated(entries, 5) for entries in tables]
        twins = [_inserted(entries, 5) for entries in tables]
        assert assert_same_traversal(trees, edge_lists_of(query), walkable=twins)
        assert all(tree._root is None for tree in trees)

    def test_trees_of_unequal_height(self):
        rng = random.Random(31)
        tiny = bulk_load(entries_of(random_rects(rng, 3, 0.4)), max_entries=4)
        big = bulk_load(entries_of(random_rects(rng, 400, 0.1)), max_entries=4)
        grown = _inserted(entries_of(random_rects(rng, 24, 0.2)), 4)
        assert len({tiny.height, big.height, grown.height}) == 3
        for trees in ([tiny, big, grown], [big, tiny, grown], [grown, big, tiny]):
            assert assert_same_traversal(trees, edge_lists_of(QueryGraph.chain(3)))

    def test_three_level_tree_beyond_the_prefix(self):
        rng = random.Random(32)
        trees = [bulk_load(entries_of(random_rects(rng, 3_000, 0.01))) for _ in range(2)]
        trees.append(_inserted(entries_of(random_rects(rng, 1_200, 0.02)), 40))
        assert trees[0].height == 3
        assert trees[0].packed().prefix_stop < len(trees[0])
        assert assert_same_traversal(trees, edge_lists_of(QueryGraph.chain(3)))

    def test_non_integer_items(self):
        rng = random.Random(33)
        trees = [
            _inserted([(rect, f"{name}{i}") for i, rect in enumerate(random_rects(rng, 40, 0.2))], 4)
            for name in "ab"
        ]
        got = assert_same_traversal(trees, [[], [0]])
        assert got and all(a.startswith("a") and b.startswith("b") for a, b in got)


class TestPairwiseJoinReads:
    @pytest.mark.parametrize("builder", sorted(WALKABLE_BUILDERS))
    def test_equal_heights_match_pair_set_and_node_walk_reads(self, builder):
        rng = random.Random(builder)
        rects_a, rects_b = random_rects(rng, 150, 0.08), random_rects(rng, 150, 0.08)
        tree_a = WALKABLE_BUILDERS[builder](entries_of(rects_a), 6)
        tree_b = WALKABLE_BUILDERS[builder](entries_of(rects_b), 6)
        assert tree_a.height == tree_b.height
        for tree in (tree_a, tree_b):
            tree.stats.reset()
        pairs = list(rtree_join(tree_a, tree_b))
        reads = reads_of([tree_a, tree_b])
        assert len(pairs) == len(set(pairs))
        assert set(pairs) == {
            (i, j)
            for i, a in enumerate(rects_a)
            for j, b in enumerate(rects_b)
            if a.intersects(b)
        }
        for tree in (tree_a, tree_b):
            tree.stats.reset()
        assert list(reference_traversal([tree_a, tree_b], [[], [0]])) == pairs
        assert reads == reads_of([tree_a, tree_b])

    def test_disjoint_trees_read_nothing(self):
        tree_a = bulk_load(entries_of([Rect(0, 0, 1, 1), Rect(1, 1, 2, 2)]))
        tree_b = bulk_load(entries_of([Rect(5, 5, 6, 6)]))
        assert list(rtree_join(tree_a, tree_b)) == []
        assert tree_a.stats.node_reads == tree_b.stats.node_reads == 0


class TestPairBlock:
    """Identical rectangles: every combination qualifies, so the partial
    combinations of one node-tuple outgrow any fixed block."""

    def make_instance(self):
        same = [Rect(0.4, 0.4, 0.6, 0.6)] * 40
        # a root that is one full leaf (bulk loading would stop at 90 % fill)
        datasets = [SpatialDataset(same, tree=_inserted(entries_of(same), 40)) for _ in range(3)]
        return ProblemInstance(query=QueryGraph.clique(3), datasets=datasets)

    def test_results_equal_brute_force(self):
        instance = self.make_instance()
        got = list(synchronous_traversal_join(instance))
        assert len(got) == 40**3
        assert set(got) == set(brute_force_join(instance))

    @pytest.mark.parametrize("block", [st_module.PAIR_BLOCK, 1_024])
    def test_no_array_outgrows_the_block(self, block, monkeypatch):
        monkeypatch.setattr(st_module, "PAIR_BLOCK", block)
        instance = self.make_instance()
        packs = [dataset.tree.packed() for dataset in instance.datasets]
        assert all(pack.height == 1 for pack in packs)
        spans = [pack.keys for pack in packs]
        windows = [st_module._window_form(span) for span in spans]
        assert 40**3 > block  # a single extension step would not fit
        rows = 0
        tracemalloc.start()
        try:
            for columns in st_module._qualifying_combinations(spans, windows, [[], [0], [0, 1]]):
                assert 0 < len(columns[0]) <= block
                # chunks are row ranges: the lexicographic order survives them
                row = np.arange(rows, rows + len(columns[0]))
                for column, expected in zip(columns, (row // 1_600, row // 40 % 40, row % 40)):
                    assert np.array_equal(column, expected)
                rows += len(row)
            _current, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert rows == 40**3
        if block == 1_024:
            # unchunked, the last step alone lists 64 000 combinations in three
            # int64 columns (1.5 MB) after comparing 40² × 40 pairs on 4 rows
            assert peak < 256 * block


def test_no_reader_inflates_a_bulk_loaded_tree():
    instance = planted_instance(QueryGraph.clique(3), 120, seed=40)
    evaluator = QueryEvaluator(instance)
    expected = set(brute_force_join(instance, evaluator))
    assert set(synchronous_traversal_join(instance, evaluator)) == expected
    assert set(window_reduction_join(instance, evaluator)) == expected
    assert set(pairwise_join_method(instance, evaluator)) == expected
    assert list(rtree_join(evaluator.trees[0], evaluator.trees[1]))
    result = indexed_branch_and_bound(instance, Budget.iterations(2_000), evaluator=evaluator)
    assert result.best_violations == 0
    assert all(tree._root is None for tree in evaluator.trees)
