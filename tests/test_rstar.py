"""R*-tree structural and query-correctness tests (dynamic inserts).

The [BKSS90] decisions — choose-subtree, the split's axis and distribution,
growth propagation — score a whole node in a few NumPy calls.  The scalar
one-``Rect``-at-a-time procedures they replaced live on here as the oracle
(:class:`OracleTree`): the same insert/delete sequence must give
byte-identical packed arrays and the same split and reinsert counts.  Two
digests recorded from the scalar code pin the same identity independently
of the oracle copy.
"""

import hashlib
import random
from typing import Any, Callable

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import Rect, RStarTree
from repro.geometry import union_all
from repro.index.bulk import pack_tree
from repro.index.node import Node
from repro.index.queries import count, search, search_items

from conftest import rect_lists, rects


def brute_window(entries, window):
    return {item for rect, item in entries if rect.intersects(window)}


def make_tree(entries, max_entries=8):
    tree = RStarTree(max_entries=max_entries)
    for rect, item in entries:
        tree.insert(rect, item)
    return tree


class TestConstruction:
    def test_parameters_validated(self):
        with pytest.raises(ValueError):
            RStarTree(max_entries=1)
        with pytest.raises(ValueError):
            RStarTree(min_fill=0.7)
        with pytest.raises(ValueError):
            RStarTree(reinsert_fraction=1.0)

    def test_empty_tree(self):
        tree = RStarTree()
        assert len(tree) == 0
        assert tree.height == 1
        assert tree.bounds() is None
        assert list(tree.items()) == []
        tree.validate()

    def test_insert_rejects_malformed_rect(self):
        with pytest.raises(ValueError):
            RStarTree().insert(Rect(1, 0, 0, 1), 0)


class TestInsert:
    def test_single_insert(self):
        tree = RStarTree()
        tree.insert(Rect(0, 0, 1, 1), "a")
        assert len(tree) == 1
        assert tree.bounds() == Rect(0, 0, 1, 1)
        tree.validate()

    def test_grows_in_height_and_splits(self):
        rng = random.Random(5)
        tree = RStarTree(max_entries=4)
        for index in range(100):
            x, y = rng.random(), rng.random()
            tree.insert(Rect(x, y, x + 0.01, y + 0.01), index)
        assert tree.height >= 3
        assert tree.stats.splits > 0
        tree.validate()

    def test_forced_reinsert_happens(self):
        rng = random.Random(6)
        tree = RStarTree(max_entries=8)
        for index in range(200):
            x, y = rng.random(), rng.random()
            tree.insert(Rect(x, y, x + 0.02, y + 0.02), index)
        assert tree.stats.reinserts > 0
        tree.validate()

    def test_reinsert_disabled(self):
        tree = RStarTree(max_entries=4, reinsert_fraction=0.0)
        for index in range(50):
            tree.insert(Rect(index, 0, index + 1, 1), index)
        assert tree.stats.reinserts == 0
        assert len(tree) == 50
        tree.validate()

    def test_all_items_preserved(self):
        rng = random.Random(7)
        entries = [
            (Rect(rng.random(), rng.random(), rng.random() + 1, rng.random() + 1), i)
            for i in range(300)
        ]
        tree = make_tree(entries, max_entries=6)
        assert sorted(item for _r, item in tree.items()) == list(range(300))
        tree.validate()

    def test_duplicate_rects_allowed(self):
        tree = RStarTree(max_entries=4)
        for index in range(20):
            tree.insert(Rect(0, 0, 1, 1), index)
        assert len(tree) == 20
        assert sorted(search_items(tree, Rect(0.5, 0.5, 0.6, 0.6))) == list(range(20))


class TestDelete:
    def test_delete_existing(self):
        tree = make_tree([(Rect(i, 0, i + 1, 1), i) for i in range(40)], max_entries=4)
        assert tree.delete(Rect(5, 0, 6, 1), 5)
        assert len(tree) == 39
        assert 5 not in set(search_items(tree, Rect(0, 0, 50, 1)))
        tree.validate()

    def test_delete_missing_returns_false(self):
        tree = make_tree([(Rect(0, 0, 1, 1), 0)])
        assert not tree.delete(Rect(0, 0, 1, 1), "wrong-item")
        assert not tree.delete(Rect(9, 9, 10, 10), 0)
        assert len(tree) == 1

    def test_delete_everything(self):
        entries = [(Rect(i, 0, i + 1, 1), i) for i in range(60)]
        tree = make_tree(entries, max_entries=4)
        rng = random.Random(1)
        rng.shuffle(entries)
        for rect, item in entries:
            assert tree.delete(rect, item)
        assert len(tree) == 0
        assert list(tree.items()) == []
        tree.validate()

    def test_interleaved_insert_delete(self):
        rng = random.Random(2)
        tree = RStarTree(max_entries=5)
        live = {}
        for step in range(500):
            if live and rng.random() < 0.4:
                item = rng.choice(list(live))
                assert tree.delete(live.pop(item), item)
            else:
                rect = Rect.from_center(rng.random(), rng.random(), 0.05, 0.05)
                tree.insert(rect, step)
                live[step] = rect
            if step % 100 == 0:
                tree.validate()
        tree.validate()
        assert sorted(item for _r, item in tree.items()) == sorted(live)


class TestQueriesAgainstBruteForce:
    @settings(max_examples=40, deadline=None)
    @given(rect_lists(min_length=1, max_length=60), rects())
    def test_window_query_matches_linear_scan(self, rect_list, window):
        entries = list(zip(rect_list, range(len(rect_list))))
        tree = make_tree(entries, max_entries=4)
        expected = brute_window(entries, window)
        assert set(search_items(tree, window)) == expected
        assert count(tree, window) == len(expected)

    def test_search_yields_rects_too(self):
        entries = [(Rect(i, 0, i + 1, 1), i) for i in range(10)]
        tree = make_tree(entries)
        results = dict((item, rect) for rect, item in search(tree, Rect(2.5, 0, 4.5, 1)))
        assert results == {2: Rect(2, 0, 3, 1), 3: Rect(3, 0, 4, 1), 4: Rect(4, 0, 5, 1)}

    def test_stats_counters_increase(self):
        entries = [(Rect(i, 0, i + 1, 1), i) for i in range(100)]
        tree = make_tree(entries, max_entries=4)
        tree.stats.reset()
        list(search(tree, Rect(0, 0, 100, 1)))
        assert tree.stats.window_queries == 1
        assert tree.stats.node_reads > 0
        assert tree.stats.leaf_reads > 0
        snapshot = tree.stats.snapshot()
        assert snapshot["window_queries"] == 1


class TestValidateCatchesCorruption:
    def test_stale_mbr_detected(self):
        tree = make_tree([(Rect(i, 0, i + 1, 1), i) for i in range(50)], max_entries=4)
        # corrupt a cached MBR
        node = tree.root
        while not node.is_leaf:
            node = node.children[0]
        node.mbr = Rect(-99, -99, -98, -98)
        with pytest.raises(AssertionError):
            tree.validate()

    def test_size_mismatch_detected(self):
        tree = make_tree([(Rect(0, 0, 1, 1), 0)])
        tree._size = 7
        with pytest.raises(AssertionError):
            tree.validate()


class TestTwoForms:
    """The node graph is the write side, the packed arrays the read side:
    each is derived from the other on demand and every mutator drops the
    packed form."""

    def entries(self, count, seed=11):
        rng = random.Random(seed)
        return [
            (Rect.from_center(rng.random(), rng.random(), 0.05, 0.05), index)
            for index in range(count)
        ]

    def test_packed_is_cached_between_reads(self):
        tree = make_tree(self.entries(50))
        assert tree.packed() is tree.packed()
        list(search(tree, Rect(0, 0, 1, 1)))
        assert tree.packed() is tree.packed()

    def test_insert_invalidates_packed(self):
        entries = self.entries(60)
        tree = make_tree(entries[:40], max_entries=4)
        first = tree.packed()
        assert set(search_items(tree, Rect(0, 0, 1, 1))) == set(range(40))
        for rect, item in entries[40:]:  # splits and forced reinserts included
            tree.insert(rect, item)
            assert tree._packed is None
        second = tree.packed()
        assert second is not first
        assert set(search_items(tree, Rect(0, 0, 1, 1))) == set(range(60))
        assert tree.stats.splits > 0 and tree.stats.reinserts > 0

    def test_delete_invalidates_packed_only_when_it_removes(self):
        entries = self.entries(80)
        tree = make_tree(entries, max_entries=4)
        before = tree.packed()
        assert not tree.delete(Rect(5, 5, 6, 6), "absent")
        assert tree.packed() is before
        for rect, item in entries[::2]:  # condense-tree and root shrinks included
            assert tree.delete(rect, item)
            assert tree._packed is None
            assert item not in set(search_items(tree, rect))
        assert tree.packed() is not before
        assert sorted(item for _r, item in tree.items()) == list(range(1, 80, 2))
        tree.validate()

    def test_bulk_loaded_tree_inflates_lazily_and_stays_mutable(self):
        from repro import bulk_load

        entries = self.entries(300)
        tree = bulk_load(entries, max_entries=6)
        assert tree._root is None
        # whole-tree answers and queries come from the arrays alone
        assert len(tree) == 300 and tree.height >= 3
        assert tree.bounds() == Rect.from_points(
            [(r.xmin, r.ymin) for r, _ in entries] + [(r.xmax, r.ymax) for r, _ in entries]
        )
        assert sorted(tree.items()) == sorted(entries)
        window = Rect(0.2, 0.2, 0.6, 0.6)
        assert set(search_items(tree, window)) == brute_window(entries, window)
        assert tree._root is None
        tree.validate()  # walks nodes: inflates, keeps the arrays
        assert tree._root is not None and tree._packed is not None
        tree.insert(Rect(0.3, 0.3, 0.31, 0.31), 300)
        assert tree._packed is None
        assert tree.delete(*entries[7])
        tree.validate()
        live = entries[:7] + entries[8:] + [(Rect(0.3, 0.3, 0.31, 0.31), 300)]
        assert set(search_items(tree, window)) == brute_window(live, window)
        assert tree.height == tree.packed().height
        assert tree.bounds() == tree.packed().bounds()

    def test_non_integer_items_survive_packing(self):
        tree = RStarTree(max_entries=4)
        names = [f"obj-{index}" for index in range(30)]
        for (rect, _), name in zip(self.entries(30), names):
            tree.insert(rect, name)
        assert sorted(search_items(tree, Rect(0, 0, 1, 1))) == sorted(names)
        assert sorted(item for _r, item in tree.items()) == sorted(names)


# ----------------------------------------------------------------------
# the scalar oracle: the [BKSS90] decisions one Rect at a time
# ----------------------------------------------------------------------
def oracle_min_enlargement_child(node: Node, rect: Rect) -> int:
    best_index = 0
    best_key: tuple[float, float] | None = None
    for index, bound in enumerate(node.bounds):
        key = (bound.enlargement(rect), bound.area())
        if best_key is None or key < best_key:
            best_key = key
            best_index = index
    return best_index


def oracle_min_overlap_child(node: Node, rect: Rect) -> int:
    best_index = 0
    best_key: tuple[float, float, float] | None = None
    for index, bound in enumerate(node.bounds):
        enlarged = bound.union(rect)
        overlap_delta = 0.0
        for other_index, other in enumerate(node.bounds):
            if other_index == index:
                continue
            overlap_delta += enlarged.intersection_area(other)
            overlap_delta -= bound.intersection_area(other)
        key = (overlap_delta, bound.enlargement(rect), bound.area())
        if best_key is None or key < best_key:
            best_key = key
            best_index = index
    return best_index


Entries = list[tuple[Rect, Any]]


def oracle_split_groups(entries: Entries, min_entries: int) -> tuple[Entries, Entries]:
    axis_sorts = _oracle_split_axis(entries, min_entries)
    return _oracle_split_index(axis_sorts, min_entries)


def _sorted_by(entries: Entries, key: Callable[[Rect], tuple[float, float]]) -> Entries:
    return sorted(entries, key=lambda entry: key(entry[0]))


def _oracle_split_axis(entries: Entries, min_entries: int) -> list[Entries]:
    x_sorts = [
        _sorted_by(entries, lambda r: (r.xmin, r.xmax)),
        _sorted_by(entries, lambda r: (r.xmax, r.xmin)),
    ]
    y_sorts = [
        _sorted_by(entries, lambda r: (r.ymin, r.ymax)),
        _sorted_by(entries, lambda r: (r.ymax, r.ymin)),
    ]
    x_margin = sum(_distribution_margins(s, min_entries) for s in x_sorts)
    y_margin = sum(_distribution_margins(s, min_entries) for s in y_sorts)
    return x_sorts if x_margin <= y_margin else y_sorts


def _distribution_margins(ordered: Entries, min_entries: int) -> float:
    total = 0.0
    for split_at in range(min_entries, len(ordered) - min_entries + 1):
        left = union_all(r for r, _ in ordered[:split_at])
        right = union_all(r for r, _ in ordered[split_at:])
        total += left.margin() + right.margin()
    return total


def _oracle_split_index(sorts: list[Entries], min_entries: int) -> tuple[Entries, Entries]:
    best: tuple[float, float] | None = None
    best_groups: tuple[Entries, Entries] | None = None
    for ordered in sorts:
        for split_at in range(min_entries, len(ordered) - min_entries + 1):
            left = ordered[:split_at]
            right = ordered[split_at:]
            left_mbr = union_all(r for r, _ in left)
            right_mbr = union_all(r for r, _ in right)
            key = (
                left_mbr.intersection_area(right_mbr),
                left_mbr.area() + right_mbr.area(),
            )
            if best is None or key < best:
                best = key
                best_groups = (left, right)
    assert best_groups is not None
    return best_groups


class OracleTree(RStarTree):
    """An R*-tree deciding through the scalar oracle, and refreshing every
    ancestor up to the root, changed or not."""

    _pick_min_enlargement_child = staticmethod(oracle_min_enlargement_child)
    _pick_min_overlap_child = staticmethod(oracle_min_overlap_child)
    _split_groups = staticmethod(oracle_split_groups)

    def _propagate_growth(self, node: Node) -> None:
        while node.parent is not None:
            parent = node.parent
            position = parent.children.index(node)
            grown = node.mbr
            assert grown is not None
            if parent.bounds[position] != grown:
                parent.set_bound(position, grown)
            node = parent


# ----------------------------------------------------------------------
# identity with the oracle
# ----------------------------------------------------------------------
#: integer coordinates (signed zero included) force exact key ties,
#: duplicates, touching edges and zero-area rectangles
lattice_coord = st.integers(-4, 8).map(float) | st.just(-0.0)


@st.composite
def lattice_rects(draw):
    x, y = draw(lattice_coord), draw(lattice_coord)
    width, height = draw(st.integers(0, 3)), draw(st.integers(0, 3))
    return Rect(x, y, x + width, y + height)


#: decimal fractions beside 1e8-scale offsets: overlap and margin sums that
#: round, so a sum taken in another order picks another entry
rounding_coord = st.sampled_from([0.0, 0.1, 0.2, 0.3, 0.7, 1.0, 3.0, 1e8, 3e8])


@st.composite
def rounding_rects(draw):
    x, y = draw(rounding_coord), draw(rounding_coord)
    return Rect(x, y, x + draw(rounding_coord), y + draw(rounding_coord))


any_rect = lattice_rects() | rounding_rects() | rects()


def packed_bytes(tree: RStarTree) -> list[bytes]:
    packed = pack_tree(tree)
    return [
        packed[name].tobytes()
        for name in ("entry_bounds", "entry_children", "node_offsets", "node_levels")
    ]


def leaf_node(bounds: list[Rect]) -> Node:
    node = Node(level=0)
    for index, rect in enumerate(bounds):
        node.add(rect, index)
    return node


class TestDecisionsMatchOracle:
    @settings(deadline=None)
    @given(st.lists(any_rect, min_size=1, max_size=41), any_rect)
    def test_choose_subtree(self, bounds, rect):
        node = leaf_node(bounds)
        assert RStarTree._pick_min_enlargement_child(node, rect) == (
            oracle_min_enlargement_child(node, rect)
        )
        assert RStarTree._pick_min_overlap_child(node, rect) == (
            oracle_min_overlap_child(node, rect)
        )

    def test_overlap_enlargement_is_summed_in_entry_order(self):
        # the same terms summed in np.sum's pairwise order round entry 2's
        # overlap enlargement below entry 0's, and pick entry 2
        node = leaf_node(
            [
                Rect(0.7, 0.3, 1.4, 300000000.3),
                Rect(0.6, 1.0, 0.8999999999999999, 1.2),
                Rect(0.7, 1.0, 3.7, 100000001.0),
                Rect(0.6, 0.0, 100000000.6, 0.1),
            ]
        )
        rect = Rect(0.2, 100000000.0, 1.2, 100000000.0)
        assert RStarTree._pick_min_overlap_child(node, rect) == 0
        assert oracle_min_overlap_child(node, rect) == 0

    @settings(deadline=None)
    @given(st.sampled_from([3, 4, 8, 40]), st.data())
    def test_split(self, max_entries, data):
        min_entries = RStarTree(max_entries=max_entries).min_entries
        bounds = data.draw(
            st.lists(any_rect, min_size=max_entries + 1, max_size=max_entries + 1)
        )
        entries = [(rect, index) for index, rect in enumerate(bounds)]
        assert RStarTree._split_groups(entries, min_entries) == (
            oracle_split_groups(entries, min_entries)
        )


class TestTreesMatchOracle:
    """Same insert/delete sequence, byte-identical trees."""

    @settings(deadline=None)
    @given(
        st.sampled_from([3, 4, 8, 40]),
        st.sampled_from([0.0, 0.3]),
        # a drawn length, not list()'s short average: M = 40 needs 41 inserts
        # before its first overflow
        st.integers(0, 160).flatmap(
            lambda length: st.lists(
                st.tuples(st.integers(0, 3), any_rect, st.integers(0, 10**6)),
                min_size=length,
                max_size=length,
            )
        ),
    )
    def test_insert_and_delete_sequences(self, max_entries, reinsert_fraction, steps):
        trees = [
            cls(max_entries=max_entries, reinsert_fraction=reinsert_fraction)
            for cls in (RStarTree, OracleTree)
        ]
        live: list[tuple[Rect, int]] = []
        for item, (kind, rect, pick) in enumerate(steps):
            if kind == 0 and live:  # a delete: condense-tree reinserts orphans
                entry = live.pop(pick % len(live))
                assert all(tree.delete(*entry) for tree in trees)
            else:
                live.append((rect, item))
                for tree in trees:
                    tree.insert(rect, item)
        real, oracle = trees
        real.validate()
        assert packed_bytes(real) == packed_bytes(oracle)
        assert real.stats.snapshot() == oracle.stats.snapshot()


# ----------------------------------------------------------------------
# digests recorded from the scalar implementation
# ----------------------------------------------------------------------
def golden_tree(count: int, extent: float, seed: int) -> RStarTree:
    """``count`` squares of side ``extent`` with ``random.Random`` centres."""
    rng = random.Random(seed)
    tree = RStarTree()
    for item in range(count):
        tree.insert(Rect.from_center(rng.random(), rng.random(), extent, extent), item)
    return tree


def tree_digest(tree: RStarTree) -> str:
    digest = hashlib.sha256()
    for blob in packed_bytes(tree):
        digest.update(blob)
    return digest.hexdigest()


@pytest.mark.parametrize(
    "count, extent, seed, expected",
    [
        # squares sized for a hard clique-4 at N = 400 (exact_two_step's
        # planted instances), as many as one insert-built instance inserts
        (
            1_600, 0.011603972084031949, 400,
            "b972178ebc86a2f1ee8465890f5971f258e8e7ea99ecd9636e7021d1ec35855d",
        ),
        # the index.insert_us probe: the first 2 000 objects of a clique-10
        # dataset at N = 100 000
        (
            2_000, 0.001291549665014884, 100_000,
            "ac5f863a235f22f1ba9dcc9358f0bc0ae219b84682633df0455db33ebd3e369a",
        ),
    ],
    ids=["planted_n400", "insert_probe_n100k"],
)
def test_insert_built_tree_digest(count, extent, seed, expected):
    tree = golden_tree(count, extent, seed)
    tree.validate()
    assert tree_digest(tree) == expected
