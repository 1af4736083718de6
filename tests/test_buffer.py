"""BufferPool (paged-storage simulation) tests."""

import random

import pytest

from repro import (
    Budget,
    QueryGraph,
    Rect,
    hard_instance,
    indexed_branch_and_bound,
    indexed_local_search,
    planted_instance,
    uniform_dataset,
)
from repro.core.evaluator import QueryEvaluator
from repro.index import BufferPool
from repro.index.queries import search_items
from repro.joins import (
    pairwise_join_method,
    synchronous_traversal_join,
    window_reduction_join,
)


class TestLruSemantics:
    def test_capacity_validated(self):
        with pytest.raises(ValueError):
            BufferPool(0)

    def test_miss_then_hit(self):
        pool = BufferPool(4)
        assert not pool.access("p1")  # cold miss
        assert pool.access("p1")      # now resident
        assert pool.hits == 1
        assert pool.misses == 1
        assert pool.accesses == 2
        assert pool.hit_ratio() == pytest.approx(0.5)

    def test_eviction_is_lru(self):
        pool = BufferPool(2)
        pool.access("a")
        pool.access("b")
        pool.access("a")        # refresh a: b is now the LRU page
        pool.access("c")        # evicts b
        assert "a" in pool
        assert "b" not in pool
        assert "c" in pool
        assert pool.evictions == 1

    def test_len_bounded_by_capacity(self):
        pool = BufferPool(3)
        for page in range(10):
            pool.access(page)
        assert len(pool) == 3

    def test_reset_counters_keeps_contents(self):
        pool = BufferPool(2)
        pool.access("a")
        pool.reset_counters()
        assert pool.accesses == 0
        assert "a" in pool
        assert pool.access("a")  # still a hit

    def test_clear_empties_buffer(self):
        pool = BufferPool(2)
        pool.access("a")
        pool.clear()
        assert len(pool) == 0
        assert not pool.access("a")

    def test_hit_ratio_idle(self):
        assert BufferPool(1).hit_ratio() == 0.0


class TestTreeIntegration:
    def test_window_queries_report_pages(self):
        dataset = uniform_dataset(2_000, 0.1, random.Random(0))
        pool = BufferPool(capacity=1_000)
        dataset.tree.pager = pool
        list(search_items(dataset.tree, Rect(0.4, 0.4, 0.6, 0.6)))
        assert pool.accesses == dataset.tree.stats.node_reads

    def test_large_buffer_beats_small_buffer(self):
        dataset = uniform_dataset(3_000, 0.1, random.Random(1))
        misses = {}
        for capacity in (4, 512):
            pool = BufferPool(capacity)
            dataset.tree.pager = pool
            rng = random.Random(2)
            for _ in range(200):
                x, y = rng.random() * 0.9, rng.random() * 0.9
                list(search_items(dataset.tree, Rect(x, y, x + 0.05, y + 0.05)))
            misses[capacity] = pool.misses
        dataset.tree.pager = None
        assert misses[512] < misses[4]

    def test_search_workload_page_accounting(self):
        instance = hard_instance(QueryGraph.clique(4), 400, seed=3)
        pool = BufferPool(capacity=256)
        for dataset in instance.datasets:
            dataset.tree.pager = pool
        result = indexed_local_search(instance, Budget.iterations(100), seed=3)
        assert result.best_violations >= 0
        assert pool.accesses > 0
        # the shared pool saw exactly the node reads of all four trees
        total_reads = sum(d.tree.stats.node_reads for d in instance.datasets)
        assert pool.accesses == total_reads

    def test_shared_pool_across_trees(self):
        a = uniform_dataset(300, 0.1, random.Random(4))
        b = uniform_dataset(300, 0.1, random.Random(5))
        pool = BufferPool(capacity=64)
        a.tree.pager = pool
        b.tree.pager = pool
        list(search_items(a.tree, Rect(0, 0, 1, 1)))
        list(search_items(b.tree, Rect(0, 0, 1, 1)))
        # pages of distinct trees never collide: a page id names the tree's
        # packed form and the node's index in it
        assert pool.misses >= 2
        assert pool.hits == 0
        assert pool.misses == a.tree.stats.node_reads + b.tree.stats.node_reads

    def test_best_value_pages_never_alias_across_trees(self):
        """Two bulk-loaded trees on one pool: node k of one is not node k
        of the other, for ``find_best_value`` as for window queries."""
        from repro.core.best_value import find_best_value
        from repro.geometry import INTERSECTS

        a = uniform_dataset(300, 0.1, random.Random(4))
        b = uniform_dataset(300, 0.1, random.Random(5))
        pool = BufferPool(capacity=4_096)  # nothing is ever evicted
        a.tree.pager = pool
        b.tree.pager = pool
        rng = random.Random(6)
        for _ in range(40):
            x, y = rng.random() * 0.8, rng.random() * 0.8
            constraints = [
                (INTERSECTS, Rect(x, y, x + 0.1, y + 0.1)),
                (INTERSECTS, Rect(x + 0.05, y + 0.05, x + 0.2, y + 0.2)),
            ]
            for dataset in (a, b):
                find_best_value(dataset.tree, constraints, 0.0)
                list(search_items(dataset.tree, constraints[0][1]))
        reads = a.tree.stats.node_reads + b.tree.stats.node_reads
        assert pool.accesses == reads
        # with no eviction every distinct page misses exactly once, and the
        # resident set is the disjoint union of the pages each tree touched
        pages_a = {page for page in pool._resident if page[0] == id(a.tree.packed())}
        pages_b = {page for page in pool._resident if page[0] == id(b.tree.packed())}
        assert pages_a and pages_b
        assert pool.misses == len(pool) == len(pages_a) + len(pages_b)
        assert {node for _tree, node in pages_a} & {node for _tree, node in pages_b}
        assert a.tree._root is None and b.tree._root is None

    def test_traversal_ibb_and_window_queries_share_pages(self):
        """Every reader names a page ``(id(packed), node index)``: a pool
        shared by ST, IBB and window queries holds each node once."""
        instance = planted_instance(QueryGraph.clique(3), 300, seed=8)
        evaluator = QueryEvaluator(instance)
        trees = evaluator.trees
        pool = BufferPool(capacity=4_096)  # nothing is ever evicted
        for tree in trees:
            tree.pager = pool

        def pages():
            return {
                id(tree): {page for page in pool._resident if page[0] == id(tree.packed())}
                for tree in trees
            }

        def total_reads():
            return sum(tree.stats.node_reads for tree in trees)

        assert list(synchronous_traversal_join(instance, evaluator))
        assert pool.accesses == total_reads()
        after_traversal = pages()
        assert all(after_traversal.values())
        # the page set is the tree's nodes, whoever touched them: full-domain
        # window queries find every node ST read already resident
        misses = pool.misses
        for tree in trees:
            assert len(list(search_items(tree, Rect(0, 0, 1, 1)))) == 300
        everything = pages()
        for tree in trees:
            assert after_traversal[id(tree)] <= everything[id(tree)]
            assert len(everything[id(tree)]) == len(tree.packed().levels)
        assert pool.misses == misses + sum(
            len(everything[key] - after_traversal[key]) for key in everything
        )
        # … and IBB, WR and PJM after them miss nothing at all
        misses = pool.misses
        indexed_branch_and_bound(instance, Budget.iterations(500), evaluator=evaluator)
        assert list(window_reduction_join(instance, evaluator))
        assert list(pairwise_join_method(instance, evaluator))
        assert pool.misses == misses and pages() == everything
        assert pool.accesses == total_reads()
        assert len(pool) == pool.misses == sum(len(tree.packed().levels) for tree in trees)
        assert all(tree._root is None for tree in trees)


class TestObsCounters:
    """Buffer accesses emit ``index.buffer.hit`` / ``index.buffer.miss``.

    The buffer pool is the one index component whose counters increment
    inline at the traversal site (it keeps no deltas for the end-of-run
    absorb step), so the counters must match the pool's own accounting
    exactly — and must cost nothing when no observation is active.
    """

    def _observed_workload(self, dataset, pool):
        from repro.obs import MemorySink, Observation, observe

        dataset.tree.pager = pool
        with observe(Observation(sink=MemorySink())) as observation:
            rng = random.Random(9)
            for _ in range(30):
                x, y = rng.random() * 0.9, rng.random() * 0.9
                list(search_items(dataset.tree, Rect(x, y, x + 0.1, y + 0.1)))
            return observation.registry.snapshot()["counters"]

    def test_window_queries_emit_hit_and_miss_counters(self):
        dataset = uniform_dataset(1_500, 0.1, random.Random(6))
        pool = BufferPool(capacity=64)
        counters = self._observed_workload(dataset, pool)
        assert counters["index.buffer.hit"] == pool.hits
        assert counters["index.buffer.miss"] == pool.misses
        assert counters["index.buffer.hit"] + counters["index.buffer.miss"] == (
            pool.accesses
        )
        assert pool.hits > 0 and pool.misses > 0

    def test_knn_queries_emit_counters(self):
        from repro.index.queries import nearest_neighbors
        from repro.obs import MemorySink, Observation, observe

        dataset = uniform_dataset(800, 0.1, random.Random(7))
        pool = BufferPool(capacity=32)
        dataset.tree.pager = pool
        with observe(Observation(sink=MemorySink())) as observation:
            nearest_neighbors(dataset.tree, 0.5, 0.5, k=5)
            counters = observation.registry.snapshot()["counters"]
        assert counters["index.buffer.hit"] + counters["index.buffer.miss"] == (
            pool.accesses
        )

    def test_traversal_and_candidate_enumeration_emit_counters(self):
        from repro.obs import MemorySink, Observation, observe

        instance = planted_instance(QueryGraph.clique(3), 200, seed=9)
        evaluator = QueryEvaluator(instance)
        pool = BufferPool(capacity=6)
        for tree in evaluator.trees:
            tree.pager = pool
        with observe(Observation(sink=MemorySink())) as observation:
            list(synchronous_traversal_join(instance, evaluator))
            after_traversal = pool.accesses
            indexed_branch_and_bound(instance, Budget.iterations(300), evaluator=evaluator)
            counters = observation.registry.snapshot()["counters"]
        assert 0 < after_traversal < pool.accesses
        assert counters["index.buffer.hit"] == pool.hits > 0
        assert counters["index.buffer.miss"] == pool.misses > 0

    def test_no_counters_without_pager(self):
        from repro.obs import MemorySink, Observation, observe

        dataset = uniform_dataset(400, 0.1, random.Random(8))
        assert dataset.tree.pager is None
        with observe(Observation(sink=MemorySink())) as observation:
            list(search_items(dataset.tree, Rect(0, 0, 1, 1)))
            counters = observation.registry.snapshot()["counters"]
        assert "index.buffer.hit" not in counters
        assert "index.buffer.miss" not in counters
