"""Predicate search and k-NN query tests."""

import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import Rect, RStarTree, bulk_load
from repro.geometry import CONTAINS, INSIDE, INTERSECTS, NORTHEAST, WithinDistance
from repro.index.queries import nearest_neighbors, search_predicate

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
