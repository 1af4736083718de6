"""R*-tree structural and query-correctness tests (dynamic inserts)."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import Rect, RStarTree
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
