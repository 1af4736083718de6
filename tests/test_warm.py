"""Warm-plane tests: segment lifecycle, attach parity, warm starts, serving.

Four layers, matching the warm plane's architecture:

* **segments** — refcounted shared-memory lifecycle: publish/attach
  round trips, double-publish and attach-after-unlink as structured
  errors, leak detection at shutdown;
* **plane + attach** — published datasets come back byte-identical and
  zero-copy (read-only views over the shared pages), attached instances
  solve identically to the originals (that a server's pool rebuild
  re-attaches instead of re-publishing is pinned in ``test_faults.py``);
* **warm starts** — every heuristic accepts a starting incumbent and can
  never report a worse answer than it was given; the cache's near-miss
  tier picks the best isomorphic entry and translates assignments across
  variable renumberings;
* **server** — a live process-pool server classifies cold / warm-start /
  exact-hit requests in its ``service.warm.*`` counters and shuts down
  with zero leaked segments.
"""

from __future__ import annotations

import asyncio
import random
import threading
import tracemalloc

import numpy as np
import pytest

from repro import Budget, QueryGraph, Rect, hard_instance
from repro.core.evaluator import QueryEvaluator
from repro.core.gils import guided_indexed_local_search
from repro.core.ils import indexed_local_search
from repro.core.parallel import parallel_restarts
from repro.core.two_step import HEURISTICS
from repro.data import SpatialDataset, uniform_dataset
from repro.query.hardness import ProblemInstance
from repro.service import DatasetRegistry, JoinClient, JoinServer
from repro.service.cache import CacheEntry, SolutionCache, canonical_query_key
from repro.warm import (
    DuplicateSegmentError,
    SegmentError,
    SegmentGoneError,
    SegmentManager,
    SegmentSpec,
    WarmPlane,
    attach_dataset,
    attach_instance,
)


# ----------------------------------------------------------------------
# segment lifecycle
# ----------------------------------------------------------------------
class TestSegments:
    def test_publish_attach_round_trip(self):
        manager = SegmentManager()
        attacher = SegmentManager()
        try:
            payload = np.arange(12, dtype=np.float64).reshape(3, 4)
            spec = manager.publish(payload)
            view = attacher.attach(spec)
            assert np.array_equal(view, payload)
            # attachers see the shared pages read-only
            assert view.flags.writeable is False
            with pytest.raises(ValueError):
                view[0, 0] = -1.0
            attacher.release(spec.name)
            assert not attacher.is_open(spec.name)
            manager.unlink(spec.name)
        finally:
            assert attacher.shutdown()["leaked"] == []
            assert manager.shutdown()["leaked"] == []

    def test_double_publish_is_structured_error(self):
        manager = SegmentManager()
        try:
            spec = manager.publish(np.zeros(4), name="warm-test-dup")
            with pytest.raises(DuplicateSegmentError, match="already open"):
                manager.publish(np.zeros(4), name="warm-test-dup")
            # a second manager racing the same OS name loses too
            other = SegmentManager()
            with pytest.raises(DuplicateSegmentError, match="already exists"):
                other.publish(np.zeros(4), name="warm-test-dup")
            assert other.shutdown()["leaked"] == []
            manager.unlink(spec.name)
        finally:
            assert manager.shutdown()["leaked"] == []

    def test_attach_after_unlink_is_structured_error(self):
        manager = SegmentManager()
        spec = manager.publish(np.ones(8))
        manager.unlink(spec.name)
        with pytest.raises(SegmentGoneError, match="unlinked or never published"):
            SegmentManager().attach(spec)
        assert manager.shutdown()["leaked"] == []

    def test_attach_size_mismatch_is_structured_error(self):
        manager = SegmentManager()
        try:
            spec = manager.publish(np.zeros(2))
            # claim far more payload than the (page-rounded) segment holds
            oversold = SegmentSpec(name=spec.name, dtype=spec.dtype, shape=(100_000,))
            attacher = SegmentManager()
            with pytest.raises(SegmentError, match="holds"):
                attacher.attach(oversold)
            assert attacher.shutdown()["leaked"] == []
            manager.unlink(spec.name)
        finally:
            assert manager.shutdown()["leaked"] == []

    def test_release_refcounts(self):
        manager = SegmentManager()
        attacher = SegmentManager()
        spec = manager.publish(np.zeros(4))
        attacher.attach(spec)
        attacher.attach(spec)
        attacher.release(spec.name)
        assert attacher.is_open(spec.name), "one reference still held"
        attacher.release(spec.name)
        assert not attacher.is_open(spec.name)
        with pytest.raises(SegmentError, match="not open"):
            attacher.release(spec.name)
        # attachers never get to destroy the segment
        attacher.attach(spec)
        with pytest.raises(SegmentError, match="attached, not owned"):
            attacher.unlink(spec.name)
        attacher.release(spec.name)
        manager.unlink(spec.name)
        assert manager.shutdown()["leaked"] == []

    def test_shutdown_reports_leaks(self):
        manager = SegmentManager()
        attacher = SegmentManager()
        spec = manager.publish(np.zeros(4))
        attacher.attach(spec)
        # neither side cleaned up: both shutdowns report the leak, and the
        # owner's defensive unlink still frees the OS name
        report = attacher.shutdown()
        assert report["leaked"] == [spec.name]
        assert report["closed"] == 1 and report["unlinked"] == 0
        report = manager.shutdown()
        assert report["leaked"] == [spec.name]
        assert report["unlinked"] == 1
        with pytest.raises(SegmentGoneError):
            SegmentManager().attach(spec)


# ----------------------------------------------------------------------
# plane + attach parity
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def instance() -> ProblemInstance:
    return hard_instance(QueryGraph.chain(3), cardinality=120, seed=5)


class TestWarmPlane:
    def test_double_publish_and_idempotent_ensure(self, instance):
        plane = WarmPlane()
        try:
            spec = plane.publish("d0", instance.datasets[0])
            with pytest.raises(DuplicateSegmentError, match="already published"):
                plane.publish("d0", instance.datasets[0])
            assert plane.ensure_published("d0", instance.datasets[0]) is spec
            assert plane.publishes == 1
        finally:
            report = plane.shutdown()
        assert report["leaked"] == []
        assert report["datasets"] == 1
        assert report["unlinked"] == 5  # columns + four packed-tree arrays

    def test_shutdown_flags_foreign_leaks(self, instance):
        manager = SegmentManager()
        stray = manager.publish(np.zeros(4))
        plane = WarmPlane(manager)
        plane.publish("d0", instance.datasets[0])
        report = plane.shutdown()
        # the plane's own five segments were unlinked cleanly; the stray
        # one the manager also held is reported as leaked
        assert report["leaked"] == [stray.name]
        assert report["datasets"] == 1

    def test_columns_parity_and_zero_copy(self, instance):
        dataset = instance.datasets[0]
        plane = WarmPlane()
        manager = SegmentManager()
        try:
            spec = plane.publish("d0", dataset)
            attached = attach_dataset(spec, manager=manager)
            assert len(attached) == len(dataset)
            assert list(attached) == list(dataset)
            assert attached.workspace == dataset.workspace
            for axis in ("xmin", "ymin", "xmax", "ymax"):
                shared = getattr(attached.columns, axis)
                assert np.array_equal(shared, getattr(dataset.columns, axis))
                # zero-copy: the attached columns are read-only views over
                # the shared pages, not private rebuilt arrays
                assert shared.flags.writeable is False
                assert shared.base is not None
        finally:
            manager.shutdown()
            report = plane.shutdown()
        assert report["leaked"] == []

    def test_attach_mints_nothing_per_row(self):
        """The attached dataset *is* the shared columns: no object per row,
        so attaching 20 000 objects retains less than one row's worth of
        Python objects per hundred rows."""
        dataset = uniform_dataset(20_000, 0.3, random.Random(2))
        plane = WarmPlane()
        manager = SegmentManager()
        try:
            spec = plane.publish("big", dataset)
            tracemalloc.start()
            try:
                before, _peak = tracemalloc.get_traced_memory()
                attached = attach_dataset(spec, manager=manager)
                after, _peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            assert after - before < 64 * 1024
            segment = manager.attach(spec.columns)
            assert np.shares_memory(attached.columns.xmin, segment)
            assert np.shares_memory(attached.rects.ymax, segment)
            manager.release(spec.columns.name)
            assert attached[19_999] == dataset[19_999]
        finally:
            manager.shutdown()
            report = plane.shutdown()
        assert report["leaked"] == []

    def test_tree_reconstruction_parity(self, instance):
        dataset = instance.datasets[1]
        plane = WarmPlane()
        manager = SegmentManager()
        try:
            spec = plane.publish("d1", dataset)
            attached = attach_dataset(spec, manager=manager)
            attached.tree.validate()
            assert len(attached.tree) == len(dataset.tree)
            assert attached.tree.height == dataset.tree.height
            assert attached.tree.bounds() == dataset.tree.bounds()
            assert sorted(attached.tree.items()) == sorted(dataset.tree.items())
            # leaf entries reuse the object table's Rect values exactly
            for rect, item in attached.tree.items():
                assert rect == dataset[item]
        finally:
            manager.shutdown()
            report = plane.shutdown()
        assert report["leaked"] == []

    def test_attached_instance_solves_identically(self, instance):
        plane = WarmPlane()
        try:
            warm = plane.instance_spec("inst", instance)
            assert [member.name for member in warm.datasets] == [
                "inst/0", "inst/1", "inst/2",
            ]
            rebuilt = attach_instance(warm)
            budget = Budget(max_iterations=60)
            cold = guided_indexed_local_search(instance, budget, seed=4)
            hot = guided_indexed_local_search(
                rebuilt, Budget(max_iterations=60), seed=4
            )
            assert hot.best_assignment == cold.best_assignment
            assert hot.best_violations == cold.best_violations
            assert hot.iterations == cold.iterations
        finally:
            plane.shutdown()

    def test_every_attached_array_is_read_only(self, instance):
        """All five per-dataset views — columns plus the four packed-tree
        arrays — come back frozen, and in-place writes raise instead of
        silently corrupting the pages every worker maps (rule RL011)."""
        dataset = instance.datasets[1]
        plane = WarmPlane()
        manager = SegmentManager()
        try:
            spec = plane.publish("d1", dataset)
            for member in (
                spec.columns,
                spec.tree_bounds,
                spec.tree_children,
                spec.tree_offsets,
                spec.tree_levels,
            ):
                view = manager.attach(member)
                assert view.flags.writeable is False, member.name
                with pytest.raises(ValueError, match="read-only"):
                    view[(0,) * view.ndim] = 0
                manager.release(member.name)
        finally:
            manager.shutdown()
            report = plane.shutdown()
        assert report["leaked"] == []

    def test_owner_side_attach_is_read_only(self):
        """The publishing process gets no writable backdoor: attaching a
        segment you own still hands back a frozen view (writes belong in
        publish(), before the spec is shared)."""
        manager = SegmentManager()
        try:
            spec = manager.publish(np.arange(6, dtype=np.float64))
            view = manager.attach(spec)
            assert view.flags.writeable is False
            with pytest.raises(ValueError, match="read-only"):
                view += 1.0
            with pytest.raises(ValueError, match="read-only"):
                view.fill(0.0)
            manager.release(spec.name)
        finally:
            manager.shutdown()


# ----------------------------------------------------------------------
# warm starts
# ----------------------------------------------------------------------
class TestWarmStarts:
    def test_every_heuristic_never_worse_than_incumbent(self, instance):
        incumbent = guided_indexed_local_search(
            instance, Budget(max_iterations=50), seed=11
        )
        evaluator = QueryEvaluator(instance)
        for name, run in sorted(HEURISTICS.items()):
            result = run(
                instance,
                Budget(max_iterations=25),
                7,
                evaluator,
                warm_start=incumbent.best_assignment,
            )
            assert result.best_violations <= incumbent.best_violations, (
                f"{name}: warm-started run ended worse than its incumbent"
            )

    def test_parallel_restarts_forwards_warm_start(self, instance):
        incumbent = guided_indexed_local_search(
            instance, Budget(max_iterations=50), seed=11
        )
        result = parallel_restarts(
            instance,
            Budget(max_iterations=25),
            seed=7,
            heuristic="gils",
            restarts=2,
            workers=1,
            warm_start=incumbent.best_assignment,
        )
        assert result.best_violations <= incumbent.best_violations

    def test_warm_start_quality_at_fixed_budget(self):
        # same seed, same iteration budget: on this instance a warm start
        # ends no worse than the cold run, nor than its incumbent
        instance = hard_instance(QueryGraph.chain(5), cardinality=400, seed=7)

        def solve(seed, warm_start=None):
            return parallel_restarts(
                instance, Budget(max_iterations=60), seed=seed,
                heuristic="gils", restarts=1, workers=1, warm_start=warm_start,
            )

        incumbent = solve(seed=11)
        cold = solve(seed=3)
        warm = solve(seed=3, warm_start=incumbent.best_assignment)
        assert warm.best_violations <= cold.best_violations
        assert warm.best_violations <= incumbent.best_violations

    def test_exact_warm_start_short_circuits(self):
        rects = [Rect(0.1, 0.1, 0.4, 0.4), Rect(0.6, 0.6, 0.9, 0.9)]
        instance = ProblemInstance(
            query=QueryGraph.chain(2),
            datasets=[
                SpatialDataset(rects, name="a"),
                SpatialDataset(rects, name="b"),
            ],
        )
        # (0, 0) picks the same rectangle twice: zero violations by
        # construction, so the warm-started search stops immediately
        result = indexed_local_search(
            instance, Budget(max_iterations=100), seed=3, warm_start=(0, 0)
        )
        assert result.is_exact
        assert tuple(result.best_assignment) == (0, 0)

    def test_warm_start_validation(self, instance):
        evaluator = QueryEvaluator(instance)
        assert evaluator.validated_warm_start(None) is None
        assert evaluator.validated_warm_start((0, 1, 2)) == [0, 1, 2]
        with pytest.raises(ValueError):
            evaluator.validated_warm_start((0, 1))  # wrong arity
        with pytest.raises(ValueError):
            evaluator.validated_warm_start((0, 1, 10**9))  # out of range


# ----------------------------------------------------------------------
# near-miss cache tier
# ----------------------------------------------------------------------
def entry(assignment=(1, 2, 3), violations=0, signature="sig"):
    return CacheEntry(
        assignment=tuple(assignment),
        violations=violations,
        similarity=0.5,
        iterations=10,
        elapsed=0.1,
        algorithm="gils",
        signature=signature,
    )


class TestNearMissTier:
    def test_near_hit_prefers_fewest_violations(self):
        cache = SolutionCache(capacity=8)
        cache.put("worse", entry(violations=3))
        cache.put("better", entry(assignment=(7, 8, 9), violations=1))
        near = cache.get_near("sig")
        assert near is not None and near.violations == 1
        assert cache.get_near("unknown") is None
        stats = cache.stats()
        assert stats["near_hits"] == 1 and stats["near_misses"] == 1

    def test_near_ties_break_to_most_recent(self):
        ticks = iter(range(100))
        cache = SolutionCache(capacity=8, clock=lambda: float(next(ticks)))
        cache.put("old", entry(assignment=(1, 1, 1), violations=2))
        cache.put("new", entry(assignment=(2, 2, 2), violations=2))
        near = cache.get_near("sig")
        assert near is not None and near.assignment == (2, 2, 2)

    def test_eviction_keeps_signature_index_consistent(self):
        cache = SolutionCache(capacity=1)
        cache.put("first", entry(assignment=(1, 1, 1)))
        cache.put("second", entry(assignment=(2, 2, 2)))
        assert cache.stats()["evictions"] == 1
        near = cache.get_near("sig")
        assert near is not None and near.assignment == (2, 2, 2)

    def test_assignment_translates_across_renumbering(self):
        # the same labelled chain seen by two requesters with the variable
        # order reversed: one canonical signature, two orders
        first_query = QueryGraph.chain(3)
        first_labels = ["roads", "rivers", "rails"]
        second_query = QueryGraph(3).add_edge(2, 1).add_edge(1, 0)
        second_labels = ["rails", "rivers", "roads"]
        first_sig, first_order = canonical_query_key(first_query, first_labels)
        second_sig, second_order = canonical_query_key(second_query, second_labels)
        assert first_sig == second_sig
        cached = CacheEntry.from_result(
            assignment=[10, 20, 30],
            order=first_order,
            violations=0,
            similarity=0.5,
            iterations=5,
            elapsed=0.1,
            algorithm="gils",
            signature=first_sig,
        )
        translated = cached.assignment_for(second_order)
        by_label = dict(zip(second_labels, translated))
        assert by_label == {"roads": 10, "rivers": 20, "rails": 30}


# ----------------------------------------------------------------------
# live server
# ----------------------------------------------------------------------
def run_server_in_thread(server: JoinServer) -> threading.Thread:
    started = threading.Event()
    failures: list[BaseException] = []

    def runner() -> None:
        async def main() -> None:
            await server.start()
            started.set()
            try:
                await server.wait_for_shutdown()
            finally:
                await server.stop()

        try:
            asyncio.run(main())
        except BaseException as error:  # noqa: BLE001 - surfaced to the test
            failures.append(error)
            started.set()

    thread = threading.Thread(target=runner, daemon=True)
    thread.start()
    assert started.wait(30), "server never started"
    if failures:
        raise failures[0]
    return thread


class TestServerWarmPlane:
    def test_thread_executor_defaults_warm_off(self):
        registry = DatasetRegistry()
        server = JoinServer(registry, port=0, executor="thread")
        assert server.warm is False

    def test_classifies_cold_warm_start_and_exact_hit(self, instance):
        registry = DatasetRegistry()
        registry.register_instance("acc", instance)
        server = JoinServer(registry, port=0, workers=2, executor="process")
        assert server.warm is True
        thread = run_server_in_thread(server)
        try:
            with JoinClient(*server.address) as client:
                fields = dict(instance="acc", deadline=30.0, max_iterations=150)
                cold = client.solve(seed=7, **fields)
                assert cold["cached"] is False
                assert cold["warm_started"] is False
                # same query, new seed: exact miss, near hit → warm start
                warm = client.solve(seed=8, **fields)
                assert warm["cached"] is False
                assert warm["warm_started"] is True
                # the warm-started search can never be worse than the
                # incumbent the cache handed it
                assert warm["violations"] <= cold["violations"]
                hit = client.solve(seed=7, **fields)
                assert hit["cached"] is True
                stats = client.stats()
                assert stats["warm"] == {
                    "enabled": True,
                    "exact_hits": 1,
                    "warm_starts": 1,
                    "cold": 1,
                    "published_datasets": 3,
                }
                assert stats["cache"]["near_hits"] == 1
        finally:
            with JoinClient(*server.address) as shutdown_client:
                shutdown_client.shutdown()
            thread.join(timeout=60)
        assert server.warm_report is not None
        assert server.warm_report["leaked"] == []
        assert server.warm_report["datasets"] == 3
