"""Predicate search, multi-window search and k-NN query tests."""

import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import Rect, RStarTree, bulk_load
from repro.geometry import CONTAINS, INSIDE, INTERSECTS, NORTHEAST, WithinDistance
from repro.index import BufferPool
from repro.index.queries import nearest_neighbors, search_predicate, search_windows

from conftest import rect_lists, rects


def make_tree(rect_list, max_entries=4):
    return bulk_load(list(zip(rect_list, range(len(rect_list)))), max_entries=max_entries)


class TestPredicateSearch:
    @settings(max_examples=30, deadline=None)
    @given(rect_lists(max_length=80), rects())
    def test_inside_matches_linear_scan(self, rect_list, window):
        tree = make_tree(rect_list)
        expected = {i for i, r in enumerate(rect_list) if window.contains(r)}
        got = {item for _r, item in search_predicate(tree, INSIDE, window)}
        assert got == expected

    @settings(max_examples=30, deadline=None)
    @given(rect_lists(max_length=80), rects())
    def test_contains_matches_linear_scan(self, rect_list, window):
        tree = make_tree(rect_list)
        expected = {i for i, r in enumerate(rect_list) if r.contains(window)}
        got = {item for _r, item in search_predicate(tree, CONTAINS, window)}
        assert got == expected

    @settings(max_examples=30, deadline=None)
    @given(rect_lists(max_length=80), rects())
    def test_northeast_matches_linear_scan(self, rect_list, window):
        tree = make_tree(rect_list)
        expected = {
            i
            for i, r in enumerate(rect_list)
            if r.xmin >= window.xmax and r.ymin >= window.ymax
        }
        got = {item for _r, item in search_predicate(tree, NORTHEAST, window)}
        assert got == expected

    @settings(max_examples=30, deadline=None)
    @given(
        rect_lists(max_length=80),
        rects(),
        st.floats(min_value=0.0, max_value=20.0),
    )
    def test_within_distance_matches_linear_scan(self, rect_list, window, distance):
        tree = make_tree(rect_list)
        predicate = WithinDistance(distance)
        expected = {
            i for i, r in enumerate(rect_list) if r.min_distance(window) <= distance
        }
        got = {item for _r, item in search_predicate(tree, predicate, window)}
        assert got == expected

    def test_empty_tree(self):
        tree = bulk_load([])
        assert list(search_predicate(tree, INSIDE, Rect(0, 0, 1, 1))) == []


def node_walk_search(tree, predicate, window):
    """The node-at-a-time search ``search_predicate`` used to be: the
    reference for yield *order* and read counts on the inflated form."""
    reads = 0
    hits = []
    stack = [tree.root] if tree.root.mbr is not None else []
    while stack:
        node = stack.pop()
        reads += 1
        if node.is_leaf:
            hits.extend(
                (rect, item) for rect, item in node.entries() if predicate.test(rect, window)
            )
        else:
            stack.extend(
                child
                for rect, child in node.entries()
                if predicate.node_may_satisfy(rect, window)
            )
    return hits, reads


class TestPackedAndInflatedFormsAgree:
    PREDICATES = [INTERSECTS, INSIDE, CONTAINS, NORTHEAST, WithinDistance(3.0)]

    def check(self, tree, window):
        for predicate in self.PREDICATES:
            before = tree.stats.node_reads
            got = list(search_predicate(tree, predicate, window))
            reads = tree.stats.node_reads - before
            assert (got, reads) == node_walk_search(tree, predicate, window)

    @settings(max_examples=40, deadline=None)
    @given(rect_lists(max_length=120), rects())
    def test_bulk_loaded(self, rect_list, window):
        tree = make_tree(rect_list)
        list(search_predicate(tree, INTERSECTS, window))
        assert tree._root is None  # the search ran on the arrays alone
        self.check(tree, window)

    @settings(max_examples=40, deadline=None)
    @given(rect_lists(max_length=120), rects())
    def test_insert_built_and_mutated(self, rect_list, window):
        tree = RStarTree(max_entries=4)
        for item, rect in enumerate(rect_list):
            tree.insert(rect, item)
        self.check(tree, window)
        assert tree.delete(rect_list[0], 0)
        tree.insert(window, "window")
        self.check(tree, window)


class TestSearchWindows:
    """One descent for several windows does — and charges — what one
    ``search_predicate`` per window would."""

    PREDICATES = [INTERSECTS, INSIDE, CONTAINS, NORTHEAST, WithinDistance(3.0)]

    def check(self, tree, constraints):
        twin_pool, pool = BufferPool(8), BufferPool(8)
        tree.pager = twin_pool
        before = tree.stats.snapshot()
        counts, order = {}, []
        for predicate, window in constraints:
            for _rect, item in search_predicate(tree, predicate, window):
                if item not in counts:
                    order.append(item)
                counts[item] = counts.get(item, 0) + 1
        expected_work = tree.stats.diff(before)
        tree.pager = pool
        before = tree.stats.snapshot()
        items, satisfied = search_windows(tree, constraints)
        tree.pager = None
        assert items == order
        assert satisfied == [counts[item] for item in order]
        assert tree.stats.diff(before) == expected_work
        # not only as many page accesses: the same ones in the same sequence
        assert (pool.hits, pool.misses, pool.evictions) == (
            twin_pool.hits, twin_pool.misses, twin_pool.evictions,
        )
        assert list(pool._resident) == list(twin_pool._resident)

    @settings(max_examples=60, deadline=None)
    @given(rect_lists(max_length=120), st.lists(rects(), min_size=1, max_size=6))
    def test_intersects(self, rect_list, windows):
        self.check(make_tree(rect_list), [(INTERSECTS, window) for window in windows])

    @settings(max_examples=60, deadline=None)
    @given(
        rect_lists(max_length=120),
        st.lists(st.tuples(st.sampled_from(PREDICATES), rects()), min_size=1, max_size=6),
    )
    def test_mixed_predicates(self, rect_list, constraints):
        tree = RStarTree(max_entries=4)
        for item, rect in enumerate(rect_list):
            tree.insert(rect, item)
        self.check(tree, constraints)

    def test_three_level_tree_beyond_the_prefix(self):
        rng = random.Random(5)
        rect_list = [
            Rect.from_center(rng.random(), rng.random(), 0.02, 0.02) for _ in range(3_000)
        ]
        tree = make_tree(rect_list, max_entries=40)
        assert tree.height == 3 and tree.packed().prefix_stop < 3_000
        for _ in range(30):
            windows = [
                Rect.from_center(rng.random(), rng.random(), 0.1, 0.1)
                for _ in range(rng.randint(1, 5))
            ]
            self.check(tree, [(INTERSECTS, window) for window in windows])
            self.check(tree, [(rng.choice(self.PREDICATES[:4]), window) for window in windows])
        assert tree._root is None

    def test_root_wider_than_the_prefix(self):
        rng = random.Random(7)
        rect_list = [Rect.from_center(rng.random(), rng.random(), 0.05, 0.05) for _ in range(700)]
        tree = bulk_load(list(zip(rect_list, range(700))), max_entries=1_000, fill=1.0)
        assert tree.height == 1 and tree.packed().prefix_nodes == 0
        window = Rect(0.2, 0.2, 0.5, 0.5)
        self.check(tree, [(INTERSECTS, window), (INSIDE, window)])
        items, _satisfied = search_windows(tree, [(INTERSECTS, window)])
        assert sorted(items) == [i for i, rect in enumerate(rect_list) if rect.intersects(window)]

    def test_non_integer_items(self):
        tree = RStarTree(max_entries=4)
        for i in range(30):
            tree.insert(Rect(i, i, i + 2, i + 2), f"item{i}")
        self.check(tree, [(INTERSECTS, Rect(3, 3, 9, 9)), (INSIDE, Rect(0, 0, 8, 8))])

    def test_empty_tree_and_no_constraints(self):
        assert search_windows(bulk_load([]), [(INTERSECTS, Rect(0, 0, 1, 1))]) == ([], [])
        tree = make_tree([Rect(0, 0, 1, 1)])
        assert search_windows(tree, []) == ([], [])
        assert tree.stats.node_reads == 0 and tree.stats.window_queries == 0


class TestNearestNeighbors:
    def brute_knn(self, rect_list, x, y, k):
        point = Rect(x, y, x, y)
        scored = sorted(
            (rect.min_distance(point), index) for index, rect in enumerate(rect_list)
        )
        return [distance for distance, _i in scored[:k]]

    def test_k_validated(self):
        with pytest.raises(ValueError):
            nearest_neighbors(bulk_load([]), 0, 0, k=0)

    def test_empty_tree(self):
        assert nearest_neighbors(bulk_load([]), 0, 0, k=3) == []

    def test_fewer_than_k(self):
        tree = make_tree([Rect(0, 0, 1, 1), Rect(2, 2, 3, 3)])
        assert len(nearest_neighbors(tree, 0, 0, k=5)) == 2

    def test_simple_ordering(self):
        rect_list = [Rect(10, 0, 11, 1), Rect(1, 0, 2, 1), Rect(5, 0, 6, 1)]
        tree = make_tree(rect_list)
        result = nearest_neighbors(tree, 0, 0.5, k=3)
        assert [item for _d, _r, item in result] == [1, 2, 0]

    def test_distance_zero_when_containing(self):
        tree = make_tree([Rect(0, 0, 10, 10)])
        [(distance, _rect, item)] = nearest_neighbors(tree, 5, 5, k=1)
        assert distance == 0.0
        assert item == 0

    @settings(max_examples=30, deadline=None)
    @given(
        rect_lists(min_length=1, max_length=60),
        st.floats(min_value=-50, max_value=50),
        st.floats(min_value=-50, max_value=50),
        st.integers(min_value=1, max_value=10),
    )
    def test_distances_match_brute_force(self, rect_list, x, y, k):
        tree = make_tree(rect_list)
        result = nearest_neighbors(tree, x, y, k=k)
        got = [distance for distance, _r, _i in result]
        expected = self.brute_knn(rect_list, x, y, k)
        assert got == pytest.approx(expected)
        # result must be sorted by distance
        assert got == sorted(got)
