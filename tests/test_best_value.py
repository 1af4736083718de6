"""find_best_value (Figure 5) vs the exhaustive-scan oracle.

The branch-and-bound must return exactly the same *score* as a linear scan
of the whole domain, for any window set, floor and penalty function — on
both the intersects hot path and the generic predicate path, and for every
way a tree reaches the search (bulk-loaded, insert-built, unpacked from the
warm plane's flat arrays).  The oracle scores through ``predicate.test``
only, so it shares no code with the kernels the search runs on.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import Rect, RStarTree, bulk_load
from repro.core.best_value import brute_force_best_value, find_best_value
from repro.geometry import CONTAINS, INSIDE, INTERSECTS, NORTHEAST, WithinDistance
from repro.index.bulk import pack_tree, tree_from_packed

from conftest import rect_lists, rects


def _inserted(entries, max_entries):
    tree = RStarTree(max_entries=max_entries)
    for rect, item in entries:
        tree.insert(rect, item)
    return tree


def _unpacked(entries, max_entries):
    # node bounds arrays become slices of one shared buffer
    return tree_from_packed(**pack_tree(bulk_load(entries, max_entries=max_entries)))


# module scope: the builders are stateless, and hypothesis rejects
# function-scoped fixtures under @given
@pytest.fixture(
    scope="module",
    params=[bulk_load, _inserted, _unpacked],
    ids=["bulk_load", "inserted", "unpacked"],
)
def make_tree(request):
    def make(rect_list, max_entries=4):
        return request.param(list(zip(rect_list, range(len(rect_list)))), max_entries)

    return make


def assert_same_outcome(found, expected):
    if expected is None:
        assert found is None
    else:
        assert found is not None
        assert found.score == pytest.approx(expected.score)
        assert found.satisfied == expected.satisfied


class TestAgainstOracleIntersects:
    @settings(max_examples=60, deadline=None)
    @given(
        rect_lists(min_length=1, max_length=60),
        st.lists(rects(), min_size=1, max_size=5),
        st.integers(min_value=-1, max_value=4),
    )
    def test_matches_brute_force(self, make_tree, rect_list, windows, floor):
        constraints = [(INTERSECTS, w) for w in windows]
        tree = make_tree(rect_list)
        found = find_best_value(tree, constraints, float(floor))
        expected = brute_force_best_value(rect_list, constraints, float(floor))
        assert_same_outcome(found, expected)

    def test_empty_constraints_returns_none(self, make_tree):
        tree = make_tree([Rect(0, 0, 1, 1)])
        assert find_best_value(tree, [], -1.0) is None

    def test_empty_tree_returns_none(self):
        tree = bulk_load([])
        assert find_best_value(tree, [(INTERSECTS, Rect(0, 0, 1, 1))], -1.0) is None

    def test_floor_excludes_equal_scores(self, make_tree):
        # one object satisfying exactly 1 window; floor 1 must return None
        tree = make_tree([Rect(0, 0, 1, 1)])
        constraints = [(INTERSECTS, Rect(0.5, 0.5, 2, 2))]
        assert find_best_value(tree, constraints, 1.0) is None
        found = find_best_value(tree, constraints, 0.0)
        assert found is not None and found.satisfied == 1

    def test_result_fields(self, make_tree):
        rect_list = [Rect(0, 0, 1, 1), Rect(5, 5, 6, 6), Rect(0.4, 0.4, 0.6, 0.6)]
        tree = make_tree(rect_list)
        constraints = [
            (INTERSECTS, Rect(0.5, 0.5, 0.55, 0.55)),
            (INTERSECTS, Rect(0.45, 0.45, 0.5, 0.5)),
        ]
        found = find_best_value(tree, constraints, 1.0)
        assert found.satisfied == 2
        assert found.item in (0, 2)
        assert found.rect == rect_list[found.item]


class TestAgainstOracleGenericPredicates:
    @settings(max_examples=40, deadline=None)
    @given(
        rect_lists(min_length=1, max_length=50),
        rects(),
        rects(),
        st.integers(min_value=-1, max_value=2),
    )
    def test_mixed_predicates_match_brute_force(self, make_tree, rect_list, w1, w2, floor):
        constraints = [(INSIDE, w1), (NORTHEAST, w2)]
        tree = make_tree(rect_list)
        found = find_best_value(tree, constraints, float(floor))
        expected = brute_force_best_value(rect_list, constraints, float(floor))
        assert_same_outcome(found, expected)

    @settings(max_examples=40, deadline=None)
    @given(
        rect_lists(min_length=1, max_length=50),
        rects(),
        st.floats(min_value=0.0, max_value=10.0),
    )
    def test_within_distance_matches_brute_force(self, make_tree, rect_list, window, distance):
        constraints = [(WithinDistance(distance), window), (CONTAINS, window)]
        tree = make_tree(rect_list)
        found = find_best_value(tree, constraints, -1.0)
        expected = brute_force_best_value(rect_list, constraints, -1.0)
        assert_same_outcome(found, expected)


class TestPenalties:
    @settings(max_examples=40, deadline=None)
    @given(
        rect_lists(min_length=1, max_length=50),
        st.lists(rects(), min_size=1, max_size=3),
        st.dictionaries(st.integers(0, 49), st.floats(0.0, 2.0), max_size=10),
    )
    def test_penalised_search_matches_brute_force(self, make_tree, rect_list, windows, raw):
        constraints = [(INTERSECTS, w) for w in windows]
        penalty = lambda item: raw.get(item, 0.0)
        tree = make_tree(rect_list)
        found = find_best_value(tree, constraints, -1.0, penalty=penalty)
        expected = brute_force_best_value(rect_list, constraints, -1.0, penalty=penalty)
        assert_same_outcome(found, expected)

    def test_penalty_breaks_tie_toward_unpunished(self, make_tree):
        # two identical rects both satisfying the window; penalise item 0
        rect_list = [Rect(0, 0, 1, 1), Rect(0, 0, 1, 1)]
        tree = make_tree(rect_list)
        constraints = [(INTERSECTS, Rect(0.5, 0.5, 2, 2))]
        found = find_best_value(
            tree, constraints, 0.9, penalty=lambda item: 0.5 if item == 0 else 0.0
        )
        assert found.item == 1
        assert found.score == pytest.approx(1.0)


class TestPruningEfficiency:
    def test_branch_and_bound_reads_fewer_nodes_than_full_scan(self, make_tree):
        rng = random.Random(0)
        rect_list = [
            Rect.from_center(rng.random(), rng.random(), 0.01, 0.01)
            for _ in range(2_000)
        ]
        tree = make_tree(rect_list, max_entries=16)
        total_nodes = 1 + sum(
            1 for _ in _iter_nodes(tree.root)
        )
        constraints = [(INTERSECTS, Rect(0.5, 0.5, 0.52, 0.52))]
        tree.stats.reset()
        find_best_value(tree, constraints, 0.0)
        assert tree.stats.node_reads < total_nodes / 2
        assert tree.stats.best_value_searches == 1


def _iter_nodes(node):
    for child in node.children:
        if hasattr(child, "children"):
            yield child
            yield from _iter_nodes(child)
