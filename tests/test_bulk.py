"""STR bulk-loading tests.

``bulk_load`` sorts coordinate arrays and writes the packed arrays directly.
The node-at-a-time STR it replaced lives on here (``reference_*``) as the
oracle: both must produce byte-identical ``pack_tree`` output.
"""

import hashlib
import math
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import QueryGraph, Rect, RStarTree, bulk_load, hard_instance
from repro.index import Node, PackedTree
from repro.index.bulk import _stable_argsort, pack_nodes, pack_tree
from repro.index.queries import search_items
from repro.index.rstar import DEFAULT_MAX_ENTRIES

from conftest import rect_lists, rects

ARRAYS = ("entry_bounds", "entry_children", "node_offsets", "node_levels")


def random_entries(count, seed=0):
    rng = random.Random(seed)
    return [
        (Rect.from_center(rng.random(), rng.random(), 0.02, 0.02), index)
        for index in range(count)
    ]


class TestBulkLoad:
    def test_empty(self):
        tree = bulk_load([])
        assert len(tree) == 0
        tree.validate()

    def test_single_entry(self):
        tree = bulk_load([(Rect(0, 0, 1, 1), 0)])
        assert len(tree) == 1
        assert tree.height == 1
        tree.validate()

    def test_invariants_hold(self):
        tree = bulk_load(random_entries(5_000), max_entries=16)
        tree.validate()
        assert len(tree) == 5_000
        assert tree.height >= 3

    def test_fill_validation(self):
        with pytest.raises(ValueError):
            bulk_load(random_entries(10), fill=0.0)
        with pytest.raises(ValueError):
            bulk_load(random_entries(10), fill=1.5)

    @settings(max_examples=25, deadline=None)
    @given(rect_lists(min_length=1, max_length=120), rects())
    def test_same_results_as_dynamic_tree(self, rect_list, window):
        entries = list(zip(rect_list, range(len(rect_list))))
        packed = bulk_load(entries, max_entries=5)
        dynamic = RStarTree(max_entries=5)
        for rect, item in entries:
            dynamic.insert(rect, item)
        assert set(search_items(packed, window)) == set(search_items(dynamic, window))
        packed.validate()

    def test_supports_subsequent_inserts_and_deletes(self):
        entries = random_entries(500, seed=3)
        tree = bulk_load(entries, max_entries=8)
        tree.insert(Rect(5, 5, 6, 6), "new")
        assert "new" in set(search_items(tree, Rect(5.5, 5.5, 5.6, 5.6)))
        rect, item = entries[42]
        assert tree.delete(rect, item)
        assert len(tree) == 500
        tree.validate()

    def test_packed_tree_is_shallower_than_dynamic(self):
        entries = random_entries(2_000, seed=4)
        packed = bulk_load(entries, max_entries=10, fill=1.0)
        dynamic = RStarTree(max_entries=10)
        for rect, item in entries:
            dynamic.insert(rect, item)
        assert packed.height <= dynamic.height


class TestPackNodes:
    def sizes(self, count, capacity):
        bounds = np.array([rect for rect, _item in random_entries(count)])
        order, offsets = pack_nodes(bounds, capacity)
        assert sorted(order.tolist()) == list(range(count))
        return np.diff(offsets).tolist()

    def test_exact_capacity(self):
        assert self.sizes(32, capacity=8) == [8, 8, 8, 8]

    def test_tail_rebalanced(self):
        # 33 entries at capacity 8 leaves a 1-entry tail; rebalance donates
        sizes = self.sizes(33, capacity=8)
        assert sum(sizes) == 33
        assert all(size >= 4 for size in sizes)

    def test_capacity_validated(self):
        with pytest.raises(ValueError):
            pack_nodes(np.zeros((5, 4)), capacity=0)

    def test_levels_assigned(self):
        levels = pack_tree(bulk_load(random_entries(20), max_entries=4))["node_levels"]
        assert levels.tolist() == sorted(levels.tolist(), reverse=True)
        assert levels[0] == 2 and levels[-1] == 0

    def test_integer_items_only(self):
        with pytest.raises(TypeError):
            bulk_load([(Rect(0, 0, 1, 1), "a"), (Rect(1, 1, 2, 2), "b")])


# ----------------------------------------------------------------------
# the node-building STR bulk_load used to run, kept as the oracle
# ----------------------------------------------------------------------
def reference_pack_nodes(entries, capacity, level):
    node_count = math.ceil(len(entries) / capacity)
    slab_count = math.ceil(math.sqrt(node_count))
    per_slab = slab_count * capacity
    by_x = sorted(entries, key=lambda entry: entry[0].center()[0])
    nodes = []
    for slab_start in range(0, len(by_x), per_slab):
        slab = by_x[slab_start: slab_start + per_slab]
        slab.sort(key=lambda entry: entry[0].center()[1])
        for node_start in range(0, len(slab), capacity):
            node = Node(level=level)
            for rect, child in slab[node_start: node_start + capacity]:
                node.add(rect, child)
            nodes.append(node)
    # rebalance the tail: the last node must not be pathologically small
    if len(nodes) >= 2:
        tail, prev = nodes[-1], nodes[-2]
        minimum = max(1, capacity // 2)
        if len(tail) < minimum:
            needed = minimum - len(tail)
            moved_bounds, moved_children = prev.bounds[-needed:], prev.children[-needed:]
            prev.replace_entries(prev.bounds[:-needed], prev.children[:-needed])
            tail.replace_entries(moved_bounds + tail.bounds, moved_children + tail.children)
    return nodes


def reference_bulk_load(entries, max_entries, fill=0.9, min_fill=0.4):
    """Root of the node graph the old bulk loader built (``None`` when empty)."""
    if not entries:
        return None
    min_entries = max(1, int(min_fill * max_entries))
    capacity = max(min_entries, min(max_entries, int(round(fill * max_entries))))
    level = 0
    nodes = reference_pack_nodes(list(entries), capacity, level)
    while len(nodes) > 1:
        level += 1
        nodes = reference_pack_nodes([(node.mbr, node) for node in nodes], capacity, level)
    return nodes[0]


def assert_same_arrays(entries, max_entries, **options):
    tree = bulk_load(entries, max_entries=max_entries, **options)
    assert tree._root is None  # no node graph was built
    got = pack_tree(tree)
    expected = PackedTree.from_root(reference_bulk_load(entries, max_entries, **options))
    for name in ARRAYS:
        want = getattr(expected, name)
        assert got[name].dtype == want.dtype, name
        assert got[name].tobytes() == want.tobytes(), name
    tree.validate()  # inflates lazily: the graph is a well-formed R*-tree


class TestArraySTRMatchesNodeSTR:
    @settings(max_examples=60, deadline=None)
    @given(rect_lists(min_length=1, max_length=150), st.sampled_from([4, 40]))
    def test_hypothesis_drawn_inputs(self, rect_list, max_entries):
        assert_same_arrays(list(zip(rect_list, range(len(rect_list)))), max_entries)

    @settings(max_examples=30, deadline=None)
    @given(
        st.lists(st.sampled_from([0.0, 0.5, 1.0]), min_size=2, max_size=120),
        st.sampled_from([4, 40]),
    )
    def test_duplicate_centres(self, xs, max_entries):
        # many equal x- and y-centres: only stable sorts agree on the order
        entries = [
            (Rect.from_center(x, xs[-1 - index], 0.25 * (index % 3), 0.5), index)
            for index, x in enumerate(xs)
        ]
        assert_same_arrays(entries, max_entries)

    @pytest.mark.parametrize("max_entries", [4, 40])
    @pytest.mark.parametrize("nodes", [1, 2, 3, 7, 30])
    def test_one_past_a_full_node_rebalances_the_tail(self, max_entries, nodes):
        capacity = int(round(0.9 * max_entries))
        assert_same_arrays(random_entries(nodes * capacity + 1, seed=nodes), max_entries)

    @pytest.mark.parametrize("count", [1, 2, 3])
    def test_fewer_entries_than_capacity(self, count):
        assert_same_arrays(random_entries(count), max_entries=40)

    def test_full_fill_and_three_levels(self):
        assert_same_arrays(random_entries(3_000, seed=5), max_entries=8, fill=1.0)

    def test_empty(self):
        tree = bulk_load([])
        packed = pack_tree(tree)
        assert packed["entry_bounds"].shape == (0, 4)
        assert packed["node_offsets"].tolist() == [0, 0]
        assert packed["node_levels"].tolist() == [0]


def tie_heavy_entries(count, seed, grid, duplicate_share):
    """Centres snapped to a ``grid × grid`` lattice, a share of exact copies."""
    rng = random.Random(seed)
    rects = []
    for _ in range(count):
        if rects and rng.random() < duplicate_share:
            rects.append(rects[rng.randrange(len(rects))])
        else:
            side = rng.choice((0.0, 0.01, 0.03))
            rects.append(
                Rect.from_center(rng.randrange(grid) / grid, rng.randrange(grid) / grid, side, side)
            )
    return list(zip(rects, range(count)))


class TestSTRUnderTies:
    """Many slabs, equal centres: the order only a stable sort gives."""

    @settings(deadline=None)
    @given(
        count=st.integers(min_value=1_500, max_value=2_500),
        seed=st.integers(min_value=0, max_value=2**32),
        grid=st.integers(min_value=1, max_value=60),
        duplicate_share=st.sampled_from([0.0, 0.3, 0.9]),
    )
    def test_grid_snapped_and_duplicated(self, count, seed, grid, duplicate_share):
        entries = tie_heavy_entries(count, seed, grid, duplicate_share)
        assert_same_arrays(entries, DEFAULT_MAX_ENTRIES)

    @settings(deadline=None)
    @given(
        count=st.integers(min_value=1_500, max_value=2_500),
        seed=st.integers(min_value=0, max_value=2**32),
    )
    def test_ties_only_in_a_few_keys(self, count, seed):
        # distinct random centres but for a handful of copies: the quicksort
        # order is right everywhere except at the tied keys
        entries = random_entries(count, seed)
        rng = random.Random(seed)
        for _ in range(3):
            target, source = rng.randrange(count), rng.randrange(count)
            entries[target] = (entries[source][0], target)
        assert_same_arrays(entries, DEFAULT_MAX_ENTRIES)

    @given(
        st.lists(
            st.sampled_from([-1.5, -0.0, 0.0, 0.25, 1.0])
            | st.floats(allow_nan=False, allow_infinity=False),
            max_size=300,
        )
    )
    def test_sort_puts_equal_keys_in_index_order(self, keys):
        # the quicksort with its runs of equal keys repaired is numpy's stable
        # order; 0.0 and -0.0 are equal keys too
        keys = np.array(keys, dtype=np.float64)
        assert _stable_argsort(keys).tolist() == np.argsort(keys, kind="stable").tolist()


def test_paper_scale_trees_are_unchanged():
    """The three trees of an N = 100 000 hard clique-3, by sha256 of their
    packed arrays (recorded before generation and STR went array-at-a-time)."""
    digest = hashlib.sha256()
    for dataset in hard_instance(QueryGraph.clique(3), 100_000, seed=1).datasets:
        packed = pack_tree(dataset.tree)
        assert packed["meta"] == (DEFAULT_MAX_ENTRIES, 16, 12, 100_000)
        for name in ARRAYS:
            digest.update(packed[name].tobytes())
    assert digest.hexdigest() == (
        "ef0a1fbf19158b60e7868e87a7dbf2b4bee6a4ee10c4f19b520b597b86c19f01"
    )
