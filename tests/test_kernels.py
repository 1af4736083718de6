"""Property suite: the columnar kernels agree *exactly* with the scalar semantics.

Every kernel in :mod:`repro.geometry.kernels` replaces a scalar hot loop; the
contract is bit-for-bit agreement with ``predicate.test`` /
``node_may_satisfy`` / ``Rect.intersects``, including touching-edge and
degenerate (zero-area) rectangles.  The batched evaluator and the broadcast
join oracles built on the kernels are checked against loops over the scalar
API; ``find_best_value`` is checked against its scalar oracle in
``tests/test_best_value.py``.
"""

from __future__ import annotations

import itertools
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import rect_lists, rects
from repro import (
    CONTAINS,
    INSIDE,
    INTERSECTS,
    NORTHEAST,
    SOUTHWEST,
    Rect,
    WithinDistance,
    bulk_load,
)
from repro.core.evaluator import QueryEvaluator
from repro.geometry import SpatialPredicate
from repro.geometry.kernels import (
    RectColumns,
    count_may_satisfy,
    count_satisfied,
    filter_pairs,
    make_count_scorer,
    pack_bounds,
    pair_matrix,
    split_columns,
    window_columns,
)
from repro.geometry.kernels import test_pairs as kernel_test_pairs
from repro.index import RStarTree
from repro.joins.brute import brute_force_best, brute_force_join, count_exact_solutions
from repro.joins.pairwise import rtree_join

ALL_PREDICATES = [
    INTERSECTS,
    INSIDE,
    CONTAINS,
    NORTHEAST,
    SOUTHWEST,
    WithinDistance(0.0),
    WithinDistance(7.5),
]


def _ids(predicates):
    return [repr(predicate) for predicate in predicates]


# ----------------------------------------------------------------------
# predicate kernels vs Rect methods
# ----------------------------------------------------------------------
@pytest.mark.parametrize("predicate", ALL_PREDICATES, ids=_ids(ALL_PREDICATES))
@given(lhs=rect_lists(max_length=20), window=rects())
@settings(max_examples=50, deadline=None)
def test_test_pairs_matches_scalar(predicate, lhs, window):
    mask = kernel_test_pairs(
        predicate, split_columns(pack_bounds(lhs)), window_columns(window)
    )
    expected = [predicate.test(rect, window) for rect in lhs]
    assert mask.tolist() == expected


@pytest.mark.parametrize("predicate", ALL_PREDICATES, ids=_ids(ALL_PREDICATES))
@given(lhs=rect_lists(max_length=20), window=rects())
@settings(max_examples=50, deadline=None)
def test_filter_pairs_matches_scalar(predicate, lhs, window):
    mask = filter_pairs(
        predicate, split_columns(pack_bounds(lhs)), window_columns(window)
    )
    expected = [predicate.node_may_satisfy(rect, window) for rect in lhs]
    assert mask.tolist() == expected


@pytest.mark.parametrize("predicate", ALL_PREDICATES, ids=_ids(ALL_PREDICATES))
@given(lhs=rect_lists(max_length=12), rhs=rect_lists(max_length=12))
@settings(max_examples=30, deadline=None)
def test_pair_matrix_matches_scalar(predicate, lhs, rhs):
    matrix = pair_matrix(
        predicate, RectColumns.from_rects(lhs), RectColumns.from_rects(rhs)
    )
    assert matrix.shape == (len(lhs), len(rhs))
    for i, rect_a in enumerate(lhs):
        for j, rect_b in enumerate(rhs):
            assert bool(matrix[i, j]) == predicate.test(rect_a, rect_b)


def test_touching_edges_count_as_intersecting():
    """Closed-interval semantics: shared edges and corners intersect."""
    base = Rect(0.0, 0.0, 1.0, 1.0)
    edge = Rect(1.0, 0.0, 2.0, 1.0)     # shares the x=1 edge
    corner = Rect(1.0, 1.0, 2.0, 2.0)   # shares the (1, 1) corner
    apart = Rect(1.0 + 1e-12, 0.0, 2.0, 1.0)
    columns = split_columns(pack_bounds([edge, corner, apart]))
    mask = kernel_test_pairs(INTERSECTS, columns, window_columns(base))
    assert mask.tolist() == [True, True, False]
    assert [INTERSECTS.test(r, base) for r in (edge, corner, apart)] == mask.tolist()


def test_degenerate_rectangles():
    """Zero-area rectangles (points, segments) behave like their Rect forms."""
    point = Rect(0.5, 0.5, 0.5, 0.5)
    segment = Rect(0.0, 1.0, 2.0, 1.0)
    box = Rect(0.0, 0.0, 1.0, 1.0)
    rows = [point, segment, box]
    for predicate in ALL_PREDICATES:
        mask = kernel_test_pairs(
            predicate, split_columns(pack_bounds(rows)), window_columns(box)
        )
        assert mask.tolist() == [predicate.test(r, box) for r in rows]


@given(lhs=rect_lists(max_length=15), window=rects(), distance=st.floats(0.0, 20.0))
@settings(max_examples=50, deadline=None)
def test_within_distance_exact_parity(lhs, window, distance):
    """np.hypot mirrors math.hypot: the boundary case is bit-identical."""
    predicate = WithinDistance(distance)
    mask = kernel_test_pairs(
        predicate, split_columns(pack_bounds(lhs)), window_columns(window)
    )
    assert mask.tolist() == [predicate.test(rect, window) for rect in lhs]


# ----------------------------------------------------------------------
# constraint counting
# ----------------------------------------------------------------------
@given(
    rows=rect_lists(max_length=15),
    windows=rect_lists(min_length=1, max_length=5),
    data=st.data(),
)
@settings(max_examples=50, deadline=None)
def test_count_satisfied_matches_scalar(rows, windows, data):
    predicates = data.draw(
        st.lists(
            st.sampled_from(ALL_PREDICATES),
            min_size=len(windows),
            max_size=len(windows),
        )
    )
    constraints = list(zip(predicates, windows))
    counts = count_satisfied(pack_bounds(rows), constraints)
    expected = [
        sum(1 for p, w in constraints if p.test(rect, w)) for rect in rows
    ]
    assert counts.tolist() == expected

    may = count_may_satisfy(pack_bounds(rows), constraints)
    expected_may = [
        sum(1 for p, w in constraints if p.node_may_satisfy(rect, w))
        for rect in rows
    ]
    assert may.tolist() == expected_may

    scorer = make_count_scorer(constraints)
    assert scorer(pack_bounds(rows)).tolist() == expected


def test_count_scorer_all_intersects_fast_path():
    rng = random.Random(5)
    rows = [Rect.from_center(rng.random(), rng.random(), 0.2, 0.2) for _ in range(50)]
    constraints = [
        (INTERSECTS, Rect.from_center(rng.random(), rng.random(), 0.3, 0.3))
        for _ in range(4)
    ]
    scorer = make_count_scorer(constraints)
    expected = [sum(1 for p, w in constraints if p.test(r, w)) for r in rows]
    # all accepted row layouts agree
    assert scorer(pack_bounds(rows)).tolist() == expected
    assert scorer(RectColumns.from_rects(rows)).tolist() == expected
    assert scorer(split_columns(pack_bounds(rows))).tolist() == expected


class _OddPredicate(SpatialPredicate):
    """A predicate type the kernels have never heard of."""

    name = "odd"

    def test(self, a: Rect, b: Rect) -> bool:
        return (a.xmin + b.xmin) % 2.0 < 1.0

    def node_may_satisfy(self, node_mbr: Rect, b: Rect) -> bool:
        return True


def test_unknown_predicate_falls_back_to_scalar():
    rows = [Rect(0.0, 0.0, 1.0, 1.0), Rect(1.5, 0.0, 2.0, 1.0)]
    window = Rect(0.2, 0.2, 0.8, 0.8)
    odd = _OddPredicate()
    assert kernel_test_pairs(odd, split_columns(pack_bounds(rows)), window_columns(window)) is None
    constraints = [(odd, window), (INTERSECTS, window)]
    counts = count_satisfied(pack_bounds(rows), constraints)
    expected = [sum(1 for p, w in constraints if p.test(r, w)) for r in rows]
    assert counts.tolist() == expected
    matrix = pair_matrix(odd, RectColumns.from_rects(rows), RectColumns.from_rects(rows))
    for i, ra in enumerate(rows):
        for j, rb in enumerate(rows):
            assert bool(matrix[i, j]) == odd.test(ra, rb)


# ----------------------------------------------------------------------
# evaluator batches
# ----------------------------------------------------------------------
def test_count_violations_batch_matches_loop(tiny_clique_instance):
    evaluator = QueryEvaluator(tiny_clique_instance)
    rng = np.random.default_rng(3)
    batch = rng.integers(0, 60, size=(37, tiny_clique_instance.num_variables))
    expected = [evaluator.count_violations(tuple(row)) for row in batch.tolist()]
    assert evaluator.count_violations_batch(batch).tolist() == expected


def test_satisfied_counts_batch_matches_loop(tiny_chain_instance):
    evaluator = QueryEvaluator(tiny_chain_instance)
    rng = np.random.default_rng(4)
    batch = rng.integers(0, 60, size=(23, tiny_chain_instance.num_variables))
    expected = [evaluator.satisfied_counts(tuple(row)) for row in batch.tolist()]
    assert evaluator.satisfied_counts_batch(batch).tolist() == expected


def test_batch_rejects_bad_shape(tiny_clique_instance):
    evaluator = QueryEvaluator(tiny_clique_instance)
    with pytest.raises(ValueError):
        evaluator.count_violations_batch(np.zeros((3, 2), dtype=np.intp))
    with pytest.raises(ValueError):
        evaluator.satisfied_counts_batch(np.zeros(4, dtype=np.intp))


def test_make_states_matches_scalar_states(tiny_clique_instance):
    evaluator = QueryEvaluator(tiny_clique_instance)
    rng_a, rng_b = random.Random(9), random.Random(9)
    batched = evaluator.random_states(rng_a, 8)
    sequential = [evaluator.random_state(rng_b) for _ in range(8)]
    assert rng_a.random() == rng_b.random()  # same rng stream consumed
    for state_a, state_b in zip(batched, sequential):
        assert state_a.values == state_b.values
        assert state_a.sat == state_b.sat
        assert state_a.satisfied_edges == state_b.satisfied_edges


# ----------------------------------------------------------------------
# broadcast join oracles and the R-tree join filter vs scalar scans
# ----------------------------------------------------------------------
def _scalar_scan(instance):
    """The Cartesian product and a scalar violation counter to scan it with
    (over its own lists of rectangles: millions of calls, no row fetches)."""
    domains = [range(len(dataset)) for dataset in instance.datasets]
    tables = [list(dataset) for dataset in instance.datasets]
    edges = list(instance.query.edges())

    def count_violations(values):
        return sum(
            not predicate.test(tables[i][values[i]], tables[j][values[j]])
            for i, j, predicate in edges
        )

    return itertools.product(*domains), count_violations


def test_brute_force_join_matches_product_scan(tiny_chain_instance):
    product, count_violations = _scalar_scan(tiny_chain_instance)
    expected = [values for values in product if count_violations(values) == 0]
    # same tuples, same lexicographic order
    assert list(brute_force_join(tiny_chain_instance)) == expected
    assert count_exact_solutions(tiny_chain_instance) == len(expected)


def test_brute_force_best_matches_product_scan(tiny_clique_instance):
    product, count_violations = _scalar_scan(tiny_clique_instance)
    expected = (None, tiny_clique_instance.query.num_edges + 1)
    for values in product:
        violations = count_violations(values)
        if violations < expected[1]:  # strict: keeps the lexicographically first
            expected = (values, violations)
            if violations == 0:
                break
    assert brute_force_best(tiny_clique_instance) == expected


def _random_tree(rng, size, max_entries=8):
    entries = [
        (Rect.from_center(rng.random(), rng.random(), rng.random() * 0.2, rng.random() * 0.2), index)
        for index in range(size)
    ]
    return bulk_load(entries, max_entries=max_entries), [r for r, _ in entries]


def test_rtree_join_matches_nested_loop():
    rng = random.Random(21)
    tree_a, rects_a = _random_tree(rng, 90)
    tree_b, rects_b = _random_tree(rng, 70)
    oracle = sorted(
        (i, j)
        for i, ra in enumerate(rects_a)
        for j, rb in enumerate(rects_b)
        if ra.intersects(rb)
    )
    assert sorted(rtree_join(tree_a, tree_b)) == oracle


# ----------------------------------------------------------------------
# node bounds-array caching
# ----------------------------------------------------------------------
def test_node_bounds_cache_tracks_mutations():
    rng = random.Random(12)
    tree = RStarTree(max_entries=8)
    inserted = []
    for index in range(200):
        rect = Rect.from_center(rng.random(), rng.random(), 0.05, 0.05)
        inserted.append((rect, index))
        tree.insert(rect, index)
        if index % 37 == 0:
            tree.validate()  # asserts caches match pack_bounds
    # caches populated by queries must be invalidated by deletes
    def walk(node):
        assert np.array_equal(node.bounds_array(), pack_bounds(node.bounds))
        if not node.is_leaf:
            for child in node.children:
                walk(child)

    walk(tree.root)
    for rect, item in inserted[::3]:
        assert tree.delete(rect, item)
    tree.validate()
    walk(tree.root)


def test_dataset_columns_cached_and_consistent(tiny_clique_instance):
    dataset = tiny_clique_instance.datasets[0]
    columns = dataset.columns
    assert columns is dataset.columns  # cached
    assert len(columns) == len(dataset)
    for index in (0, len(dataset) // 2, len(dataset) - 1):
        assert columns.rect(index) == dataset.rects[index]
