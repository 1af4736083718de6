"""find_best_value (Figure 5) vs two oracles.

The branch-and-bound must return exactly the same *score* as a linear scan
of the whole domain, for any window set, floor and penalty function — on
both the intersects hot path and the generic predicate path, and for every
way a tree reaches the search (bulk-loaded, insert-built, wrapped around the
warm plane's flat arrays, re-packed after a mutation).  That oracle scores
through ``predicate.test`` only, so it shares no code with the kernels the
search runs on.

The search descends packed arrays; the recursive node-at-a-time descent it
replaced lives on here (:func:`reference_find_best_value`) as the second
oracle: same *item*, same ``node_reads`` / ``leaf_reads`` — i.e. the same
visit order and tie-breaks, which is what keeps seeded runs reproducible.
"""

import gc
import random
from functools import partial

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import QueryGraph, Rect, RStarTree, bulk_load
from repro.core import best_value
from repro.core.best_value import (
    BestValue,
    ProbeMemo,
    brute_force_best_value,
    find_best_value,
)
from repro.core.evaluator import QueryEvaluator
from repro.core.penalties import PenaltyTable
from repro.data import SpatialDataset
from repro.query import ProblemInstance
from repro.geometry import CONTAINS, INSIDE, INTERSECTS, NORTHEAST, WithinDistance
from repro.geometry.kernels import make_count_scorer
from repro.index.bulk import pack_tree, tree_from_packed

from conftest import _inserted, _never_inflated, _remutated, _unpacked, rect_lists, rects


# module scope: the builders are stateless, and hypothesis rejects
# function-scoped fixtures under @given
@pytest.fixture(
    scope="module",
    params=[bulk_load, _inserted, _unpacked, _never_inflated, _remutated],
    ids=["bulk_load", "inserted", "unpacked", "never_inflated", "remutated"],
)
def make_tree(request):
    def make(rect_list, max_entries=4):
        return request.param(list(zip(rect_list, range(len(rect_list)))), max_entries)

    return make


def assert_same_outcome(found, expected, penalised=False):
    if expected is None:
        assert found is None
    else:
        assert found is not None
        assert found.score == pytest.approx(expected.score)
        # under a penalty two objects may tie on score with different counts
        if not penalised:
            assert found.satisfied == expected.satisfied


def reference_find_best_value(tree, constraints, floor_score, penalty=None):
    """The recursive per-``Node`` descent ``find_best_value`` used to be.

    Returns ``(best, node_reads, leaf_reads)``; walks ``tree.root``, so it
    inflates a packed tree — call it after the search under test.
    """
    leaf_scorer = make_count_scorer(constraints, "test")
    inner_scorer = make_count_scorer(constraints, "filter")
    best = None
    best_score = floor_score
    reads = [0, 0]

    def descend(node):
        nonlocal best, best_score
        reads[0] += 1
        if node.is_leaf:
            reads[1] += 1
        counts = (leaf_scorer if node.is_leaf else inner_scorer)(node.bounds_array())
        candidates = np.flatnonzero(counts > best_score)
        if candidates.size == 0:
            return
        order = candidates[np.argsort(-counts[candidates], kind="stable")]
        if node.is_leaf:
            for position in order:
                satisfied = int(counts[position])
                if satisfied <= best_score:
                    break
                item = node.children[position]
                score = float(satisfied)
                if penalty is not None:
                    score -= penalty(item)
                if score > best_score:
                    best_score = score
                    best = BestValue(item, node.bounds[position], satisfied, score)
        else:
            for position in order:
                if counts[position] > best_score:
                    descend(node.children[position])

    if tree.root.mbr is not None:
        descend(tree.root)
    return best, reads[0], reads[1]


def assert_same_search(tree, constraints, floor, penalty=None):
    """Same item, rect, scores and node/leaf reads as the node descent."""
    before = tree.stats.snapshot()
    found = find_best_value(tree, constraints, floor, penalty=penalty)
    work = tree.stats.diff(before)
    expected, node_reads, leaf_reads = reference_find_best_value(
        tree, constraints, floor, penalty
    )
    assert (work["node_reads"], work["leaf_reads"]) == (node_reads, leaf_reads)
    assert work["best_value_searches"] == 1
    if expected is None:
        assert found is None
    else:
        assert (found.item, found.rect, found.satisfied, found.score) == (
            expected.item, expected.rect, expected.satisfied, expected.score
        )


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
        assert_same_outcome(found, expected, penalised=True)
        if found is not None:
            assert found.score == pytest.approx(found.satisfied - penalty(found.item))

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


# the reference walks nodes, so it runs on the builders that may inflate
@pytest.fixture(
    scope="module",
    params=[bulk_load, _inserted, _unpacked, _remutated],
    ids=["bulk_load", "inserted", "unpacked", "remutated"],
)
def make_walkable_tree(request):
    def make(rect_list, max_entries=4):
        return request.param(list(zip(rect_list, range(len(rect_list)))), max_entries)

    return make


class TestAgainstNodeDescent:
    """Same winner — not only the same score — and the same reads."""

    @settings(max_examples=60, deadline=None)
    @given(
        rect_lists(min_length=1, max_length=120),
        st.lists(rects(), min_size=1, max_size=5),
        st.integers(min_value=-1, max_value=4),
    )
    def test_intersects(self, make_walkable_tree, rect_list, windows, floor):
        tree = make_walkable_tree(rect_list)
        assert_same_search(tree, [(INTERSECTS, w) for w in windows], float(floor))

    @settings(max_examples=40, deadline=None)
    @given(
        rect_lists(min_length=1, max_length=120),
        st.lists(rects(), min_size=1, max_size=3),
        st.dictionaries(st.integers(0, 119), st.floats(0.0, 2.0), max_size=20),
        st.floats(min_value=-1.0, max_value=2.0),
    )
    def test_penalised(self, make_walkable_tree, rect_list, windows, raw, floor):
        tree = make_walkable_tree(rect_list)
        constraints = [(INTERSECTS, w) for w in windows]
        assert_same_search(tree, constraints, floor, penalty=lambda item: raw.get(item, 0.0))

    @settings(max_examples=40, deadline=None)
    @given(
        rect_lists(min_length=1, max_length=120),
        rects(),
        rects(),
        st.floats(min_value=0.0, max_value=10.0),
        st.integers(min_value=-1, max_value=2),
    )
    def test_mixed_predicates(self, make_walkable_tree, rect_list, w1, w2, distance, floor):
        constraints = [(INSIDE, w1), (WithinDistance(distance), w2), (INTERSECTS, w2)]
        assert_same_search(make_walkable_tree(rect_list), constraints, float(floor))

    def test_deep_tree_with_a_multi_level_prefix(self, make_walkable_tree):
        # 2 000 objects at fan-out 4: six levels, the upper ones scored at once
        rng = random.Random(3)
        rect_list = [
            Rect.from_center(rng.random(), rng.random(), 0.04, 0.04) for _ in range(2_000)
        ]
        tree = make_walkable_tree(rect_list)
        assert tree.packed().prefix_nodes > 1
        for _ in range(40):
            windows = [
                Rect.from_center(0.3 + 0.4 * rng.random(), 0.3 + 0.4 * rng.random(), 0.1, 0.1)
                for _ in range(4)
            ]
            constraints = [(INTERSECTS, w) for w in windows]
            floor = float(rng.randrange(-1, 3))
            assert_same_search(tree, constraints, floor)
            assert_same_search(
                tree, constraints, floor, penalty=lambda item: (item % 7) / 4.0
            )


def test_never_inflated_tree_builds_no_node():
    rect_list = [Rect(i, i, i + 2, i + 2) for i in range(50)]
    tree = _never_inflated(list(zip(rect_list, range(50))), 4)
    found = find_best_value(tree, [(INTERSECTS, Rect(10, 10, 11, 11))], 0.0)
    assert found is not None and found.rect == rect_list[found.item]
    assert tree._root is None
    assert len(tree) == 50 and tree.height > 1 and tree.bounds() == Rect(0, 0, 51, 51)
    assert sorted(item for _rect, item in tree.items()) == list(range(50))
    assert tree._root is None


class TestPruningEfficiency:
    def test_branch_and_bound_reads_fewer_nodes_than_full_scan(self, make_tree):
        rng = random.Random(0)
        rect_list = [
            Rect.from_center(rng.random(), rng.random(), 0.01, 0.01)
            for _ in range(2_000)
        ]
        tree = make_tree(rect_list, max_entries=16)
        total_nodes = len(tree.packed().levels)
        constraints = [(INTERSECTS, Rect(0.5, 0.5, 0.52, 0.52))]
        tree.stats.reset()
        find_best_value(tree, constraints, 0.0)
        assert tree.stats.node_reads < total_nodes / 2
        assert tree.stats.best_value_searches == 1


# ----------------------------------------------------------------------
# the per-run probe memo
# ----------------------------------------------------------------------
#: coordinates on a half-unit grid: many equal counts, touching edges
_grid = st.sampled_from([0.0, 0.5, 1.0, 1.5, 2.0])
_side = st.sampled_from([0.0, 0.5, 1.0, 2.0])
grid_rects = st.builds(lambda x, y, w, h: Rect(x, y, x + w, y + h), _grid, _grid, _side, _side)

#: the centre of a three-leaf star joins its leaves by these (centre → leaf)
PREDICATE_MIXES = {
    "intersects": (INTERSECTS, INTERSECTS, INTERSECTS),
    "mixed": (INSIDE, NORTHEAST, CONTAINS),
    "within_distance": (WithinDistance(0.5), INTERSECTS, WithinDistance(1.0)),
}


BUILDERS = (bulk_load, _inserted, _unpacked, _never_inflated, _remutated)


def star_evaluator(builder, centre, leaves, predicates, max_entries=4):
    """Variable 0 joins leaf ``j`` by ``predicates[j − 1]``; every dataset is
    indexed by ``builder(entries, max_entries)``."""

    def dataset(rect_list):
        entries = list(zip(rect_list, range(len(rect_list))))
        return SpatialDataset(rect_list, tree=builder(entries, max_entries))

    query = QueryGraph(len(leaves) + 1)
    for leaf, predicate in enumerate(predicates, start=1):
        query.add_edge(0, leaf, predicate)
    datasets = [dataset(rect_list) for rect_list in [centre, *leaves]]
    return QueryEvaluator(ProblemInstance(query, datasets))


def assert_identical(found, expected):
    if expected is None:
        assert found is None
        return
    assert found is not None
    assert (found.item, found.rect, found.satisfied, found.score) == (
        expected.item, expected.rect, expected.satisfied, expected.score
    )


def replay_probes(evaluator, penalties, rng, steps=60):
    """A GILS-like probe sequence: the memo's every answer against a fresh
    ``find_best_value``.  Floors re-ask the current value's score (and, after
    a failure, again once its assignments were punished), jump to whole
    counts, to λ-steps below them and between them; states move by the
    answers found and are sometimes re-drawn.  Returns the memo."""
    memo = ProbeMemo(evaluator, penalties)
    lam = penalties.lam if penalties is not None else 0.0
    state = evaluator.random_state(rng)
    for _ in range(steps):
        roll = rng.random()
        if roll < 0.15:
            state = evaluator.random_state(rng)
        elif roll < 0.3 and penalties is not None:
            penalties.punish_minimum(evaluator.random_state(rng).values)
        variable = rng.randrange(evaluator.num_variables)
        own = float(state.sat[variable])
        if penalties is not None:
            own -= penalties.weighted(variable, state.values[variable])
        whole = float(rng.randrange(-1, evaluator.degrees[variable] + 1))
        floor = rng.choice(
            [own, own, whole, whole - lam * rng.randrange(1, 4), whole + 0.5]
        )
        penalty = None if penalties is None else partial(penalties.weighted, variable)
        expected = find_best_value(
            evaluator.trees[variable], state.constraint_windows(variable), floor, penalty
        )
        found = memo.probe(state, variable, floor)
        assert_identical(found, expected)
        if found is not None and rng.random() < 0.5:
            state.set_value(variable, found.item, found.rect)
        elif found is None and penalties is not None and rng.random() < 0.7:
            penalties.punish_minimum(state.values)  # a local maximum: punish, re-ask
    return memo


class TestProbeMemo:
    """The memo answers every probe exactly as a fresh descent would: same
    item, satisfied count and score — only without the descent."""

    # no pinned example count: CI reruns this under HYPOTHESIS_PROFILE=deep
    @pytest.mark.parametrize("lam", [None, 1e-9, 0.6], ids=["plain", "tiny", "large"])
    @settings(deadline=None)
    @given(
        st.sampled_from(BUILDERS),
        st.sampled_from(sorted(PREDICATE_MIXES)),
        st.lists(grid_rects, min_size=1, max_size=40),
        st.lists(st.lists(grid_rects, min_size=1, max_size=3), min_size=3, max_size=3),
        st.integers(min_value=0, max_value=2**32),
    )
    def test_answers_equal_a_fresh_descent(self, lam, builder, mix, centre, leaves, seed):
        evaluator = star_evaluator(builder, centre, leaves, PREDICATE_MIXES[mix])
        penalties = None if lam is None else PenaltyTable(lam)
        replay_probes(evaluator, penalties, random.Random(seed))

    @pytest.mark.parametrize("lam", [None, 1e-9, 0.6], ids=["plain", "tiny", "large"])
    def test_repeated_probes_skip_the_descent(self, lam):
        """Certificates, known maxima and plateau lists all fire on a
        tie-rich instance, and ``best_value_searches`` counts descents only."""
        rng = random.Random(5)
        centre = [Rect.from_center(rng.random(), rng.random(), 0.3, 0.3) for _ in range(300)]
        leaves = [[Rect.from_center(rng.random(), rng.random(), 0.3, 0.3)] for _ in range(3)]
        evaluator = star_evaluator(
            bulk_load, centre, leaves, PREDICATE_MIXES["intersects"], max_entries=8
        )
        penalties = None if lam is None else PenaltyTable(lam)
        memo = replay_probes(evaluator, penalties, random.Random(6), steps=300)
        stats = memo.stats()
        descents = sum(tree.stats.best_value_searches for tree in evaluator.trees)
        # every probe was asked of find_best_value too, once
        assert descents == 2 * stats["asked"] - stats["answered"]
        assert stats["answered"] > 0
        if penalties is not None:
            assert stats["plateau_lists"] > 0

    @pytest.mark.parametrize("lam", [None, 1e-9], ids=["plain", "tiny"])
    def test_memo_holds_nothing_the_collector_tracks(self, lam):
        """Keys, ceilings, positions and plateau arrays are plain numbers, so
        a run's memo never fills the collector's young generation: when the
        collector next runs after a search does not depend on the memo."""
        rng = random.Random(5)
        centre = [Rect.from_center(rng.random(), rng.random(), 0.3, 0.3) for _ in range(300)]
        leaves = [[Rect.from_center(rng.random(), rng.random(), 0.3, 0.3)] for _ in range(3)]
        evaluator = star_evaluator(
            bulk_load, centre, leaves, PREDICATE_MIXES["intersects"], max_entries=8
        )
        penalties = None if lam is None else PenaltyTable(lam)
        memo = replay_probes(evaluator, penalties, random.Random(6), steps=300)
        held = [
            value
            for table in (memo._ceilings, memo._maxima, memo._plateaus)
            for pair in table.items()
            for value in pair
        ]
        assert held
        assert not [value for value in held if gc.is_tracked(value)]

    def test_memo_stays_bounded(self, monkeypatch):
        monkeypatch.setattr(best_value, "MEMO_KEYS", 4)
        rng = random.Random(8)
        rect_list = [Rect.from_center(rng.random(), rng.random(), 0.2, 0.2) for _ in range(50)]
        evaluator = star_evaluator(
            bulk_load, rect_list, [rect_list] * 3, PREDICATE_MIXES["intersects"]
        )
        memo = replay_probes(evaluator, PenaltyTable(1e-9), rng, steps=200)
        assert len(memo._ceilings) <= 4
        assert set(memo._maxima) | set(memo._plateaus) <= set(memo._ceilings)
