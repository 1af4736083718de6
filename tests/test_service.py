"""Query-service tests: protocol, cache, registry, admission, live servers.

The unit half exercises each service piece in isolation (schema
validation, canonical cache keys, lazy registry loading, load shedding
with fake clocks).  The integration half drives real servers over
loopback sockets — including the acceptance scenario from the service
design: a 4-worker server under 16 concurrent deadline-bounded queries
with zero dropped connections, cache hits in single-digit milliseconds,
a structured shed under overload, and fixed-seed answers that do not
depend on concurrency.
"""

from __future__ import annotations

import asyncio
import threading
import time

import pytest

from repro import Budget, QueryGraph, Rect, hard_instance
from repro.core.budget import Stopwatch
from repro.data import SpatialDataset
from repro.obs import MemorySink, Observation, observe
from repro.query.hardness import ProblemInstance
from repro.query.io import save_instance
from repro.service import (
    AdmissionController,
    CacheEntry,
    DatasetRegistry,
    JoinClient,
    JoinServer,
    ServiceError,
    SolutionCache,
    canonical_query_key,
    solve_cache_key,
    validate_request,
)
from repro.service.admission import MIN_SOLVE_SECONDS
from repro.service.protocol import PROTOCOL_VERSION, error_response, solve_request
from repro.service.worker import SolveJob, run_solve_job


# ----------------------------------------------------------------------
# protocol
# ----------------------------------------------------------------------
class TestProtocol:
    def test_solve_request_builder_validates(self):
        record = solve_request(
            "r1", instance="demo", deadline=2.0, seed=7, algorithm="gils"
        )
        assert record["v"] == PROTOCOL_VERSION
        assert validate_request(record) is record

    def test_rejects_non_object(self):
        with pytest.raises(ValueError, match="must be an object"):
            validate_request([1, 2, 3])

    def test_rejects_wrong_version(self):
        with pytest.raises(ValueError, match="protocol version"):
            validate_request({"v": 99, "op": "ping", "id": "x"})

    def test_rejects_bool_version(self):
        # the obs-v1 discipline: booleans never pass as integers
        with pytest.raises(ValueError, match="'v'"):
            validate_request({"v": True, "op": "ping", "id": "x"})

    def test_rejects_unknown_op(self):
        with pytest.raises(ValueError, match="unknown op"):
            validate_request({"v": 1, "op": "explode", "id": "x"})

    def test_rejects_missing_id(self):
        with pytest.raises(ValueError, match="missing field 'id'"):
            validate_request({"v": 1, "op": "ping"})

    def test_rejects_bool_seed(self):
        record = solve_request("r1", instance="demo")
        record["seed"] = True
        with pytest.raises(ValueError, match="'seed'"):
            validate_request(record)

    def test_rejects_both_instance_and_query(self):
        with pytest.raises(ValueError, match="both"):
            solve_request(
                "r1",
                instance="demo",
                query={"type": "chain", "variables": 3},
            )

    def test_rejects_query_without_datasets(self):
        with pytest.raises(ValueError, match="datasets"):
            validate_request(
                {
                    "v": 1,
                    "op": "solve",
                    "id": "r1",
                    "query": {"type": "chain", "variables": 3},
                }
            )

    def test_rejects_nonpositive_deadline(self):
        with pytest.raises(ValueError, match="deadline must be positive"):
            solve_request("r1", instance="demo", deadline=0.0)

    def test_rejects_unknown_algorithm(self):
        with pytest.raises(ValueError, match="unknown algorithm"):
            solve_request("r1", instance="demo", algorithm="quantum")

    def test_rejects_bad_query_type(self):
        with pytest.raises(ValueError, match="unknown query type"):
            solve_request(
                "r1", query={"type": "moebius", "variables": 3}, datasets=["a"] * 3
            )

    def test_tolerates_unknown_extra_fields(self):
        record = solve_request("r1", instance="demo")
        record["x-experiment"] = "shadow"
        assert validate_request(record)

    def test_error_response_retryable_contract(self):
        shed = error_response("r1", "solve", "overloaded", "busy")
        assert shed["error"]["retryable"] is True
        bad = error_response("r1", "solve", "bad_request", "nope")
        assert bad["error"]["retryable"] is False

    def test_error_response_rejects_unknown_code(self):
        with pytest.raises(ValueError, match="unknown error code"):
            error_response("r1", "solve", "teapot", "short and stout")


# ----------------------------------------------------------------------
# solution cache
# ----------------------------------------------------------------------
def entry(assignment=(1, 2, 3), violations=0):
    return CacheEntry(
        assignment=tuple(assignment),
        violations=violations,
        similarity=1.0,
        iterations=10,
        elapsed=0.01,
        algorithm="gils",
    )


class TestSolutionCache:
    def test_lru_eviction_order(self):
        cache = SolutionCache(capacity=2)
        cache.put("a", entry())
        cache.put("b", entry())
        assert cache.get("a") is not None  # refresh: b is now the LRU tail
        cache.put("c", entry())
        assert cache.get("b") is None
        assert cache.get("a") is not None
        assert cache.get("c") is not None
        assert cache.evictions == 1

    def test_capacity_and_ttl_validated(self):
        with pytest.raises(ValueError):
            SolutionCache(capacity=0)
        # entries live until evicted: a TTL is not a knob at all
        with pytest.raises(TypeError):
            SolutionCache(ttl=10.0)  # type: ignore[call-arg]

    def test_isomorphic_queries_share_a_signature(self):
        chain = QueryGraph.chain(3)
        sig_forward, order_forward = canonical_query_key(chain, ["a", "b", "c"])
        sig_reversed, order_reversed = canonical_query_key(chain, ["c", "b", "a"])
        assert sig_forward == sig_reversed
        # a result computed under the forward numbering translates to the
        # reversed one label-by-label, never raw
        stored = CacheEntry.from_result(
            [10, 20, 30],
            order_forward,
            violations=0,
            similarity=1.0,
            iterations=5,
            elapsed=0.01,
            algorithm="gils",
        )
        assert stored.assignment_for(order_forward) == [10, 20, 30]
        assert stored.assignment_for(order_reversed) == [30, 20, 10]

    def test_non_isomorphic_queries_differ(self):
        labels = ["a", "b", "c", "d"]
        sig_chain, _ = canonical_query_key(QueryGraph.chain(4), labels)
        sig_star, _ = canonical_query_key(QueryGraph.star(4), labels)
        assert sig_chain != sig_star

    def test_different_labels_differ(self):
        chain = QueryGraph.chain(3)
        sig_abc, _ = canonical_query_key(chain, ["a", "b", "c"])
        sig_abd, _ = canonical_query_key(chain, ["a", "b", "d"])
        assert sig_abc != sig_abd

    def test_fallback_beyond_ordering_bound_is_deterministic(self):
        # identical labels on a clique leave maximal ambiguity; with the
        # bound forced to 1 the key degrades to exact-resubmission matching
        clique = QueryGraph.clique(4)
        labels = ["same"] * 4
        first = canonical_query_key(clique, labels, max_orderings=1)
        second = canonical_query_key(clique, labels, max_orderings=1)
        assert first == second

    def test_label_count_mismatch_raises(self):
        with pytest.raises(ValueError, match="labels"):
            canonical_query_key(QueryGraph.chain(3), ["a", "b"])

    def test_solve_cache_key_separates_knobs(self):
        base = solve_cache_key("sig", "gils", 0, 1, 2.0, None)
        assert base != solve_cache_key("sig", "gils", 1, 1, 2.0, None)
        assert base != solve_cache_key("sig", "ils", 0, 1, 2.0, None)
        assert base != solve_cache_key("sig", "gils", 0, 1, 2.0, 500)
        assert base == solve_cache_key("sig", "gils", 0, 1, 2.0, None)


# ----------------------------------------------------------------------
# dataset registry
# ----------------------------------------------------------------------
class TestDatasetRegistry:
    def test_path_registration_is_lazy(self, tmp_path):
        from repro import save_npz, uniform_dataset
        import random

        dataset = uniform_dataset(50, 0.2, random.Random(0), name="lazy")
        path = tmp_path / "lazy.npz"
        save_npz(dataset, path)
        registry = DatasetRegistry()
        registry.register_path("lazy", path)
        assert not registry.is_loaded("lazy")
        loaded = registry.dataset("lazy")
        assert registry.is_loaded("lazy")
        assert registry.dataset("lazy") is loaded  # cached, not re-read

    def test_registration_checks_existence(self, tmp_path):
        registry = DatasetRegistry()
        with pytest.raises(FileNotFoundError):
            registry.register_path("ghost", tmp_path / "ghost.npz")
        with pytest.raises(ValueError, match="cannot infer format"):
            registry.register_path("odd", tmp_path / "odd.parquet")

    def test_unknown_names_raise_keyerror(self):
        registry = DatasetRegistry()
        with pytest.raises(KeyError, match="unknown dataset"):
            registry.dataset("nope")
        with pytest.raises(KeyError, match="unknown instance"):
            registry.instance("nope")

    def test_instance_dir_exposes_member_datasets(self, tmp_path):
        instance = hard_instance(QueryGraph.chain(3), cardinality=40, seed=1)
        save_instance(instance, tmp_path / "inst")
        registry = DatasetRegistry()
        registry.register_instance_dir("inst", tmp_path / "inst")
        loaded = registry.instance("inst")
        assert loaded.query.num_variables == 3
        assert registry.dataset_names() == ["inst/0", "inst/1", "inst/2"]
        assert registry.dataset("inst/1").rects == loaded.datasets[1].rects

    def test_spec_round_trip_rebuilds_lazily(self, tmp_path):
        instance = hard_instance(QueryGraph.chain(3), cardinality=40, seed=2)
        save_instance(instance, tmp_path / "inst")
        registry = DatasetRegistry()
        registry.register_instance_dir("inst", tmp_path / "inst")
        registry.register_instance("memory-only", instance)
        spec = registry.spec()
        assert "inst" in spec["instances"]
        assert "memory-only" not in spec["instances"]  # nothing to reload from
        assert registry.has_path("inst")
        assert not registry.has_path("memory-only")
        worker = DatasetRegistry.from_spec(spec)
        assert worker.instance("inst").datasets[0].rects == instance.datasets[0].rects

    def test_warm_counts_materialised_objects(self, tmp_path):
        instance = hard_instance(QueryGraph.chain(3), cardinality=40, seed=3)
        save_instance(instance, tmp_path / "inst")
        registry = DatasetRegistry()
        registry.register_instance_dir("inst", tmp_path / "inst")
        assert registry.warm() == 3  # one per instance dataset
        with pytest.raises(KeyError):
            registry.warm("ghost")


# ----------------------------------------------------------------------
# admission control
# ----------------------------------------------------------------------
class TestAdmission:
    def test_sheds_beyond_max_pending(self):
        admission = AdmissionController(max_pending=2)
        first = admission.try_admit(1.0)
        second = admission.try_admit(1.0)
        assert first is not None and second is not None
        assert admission.try_admit(1.0) is None
        assert admission.shed_total == 1
        admission.release(first)
        assert admission.try_admit(1.0) is not None
        assert admission.admitted_total == 3

    def test_deadline_clamping(self):
        admission = AdmissionController(default_deadline=5.0, max_deadline=30.0)
        assert admission.clamp_deadline(None) == 5.0
        assert admission.clamp_deadline(2.0) == 2.0
        assert admission.clamp_deadline(300.0) == 30.0

    def test_queue_wait_charged_against_deadline(self):
        now = [0.0]
        admission = AdmissionController(max_pending=1, clock=lambda: now[0])
        ticket = admission.try_admit(2.0)
        now[0] = 1.5
        assert ticket.remaining() == pytest.approx(0.5)
        budget = ticket.budget(max_iterations=100)
        assert isinstance(budget, Budget)
        assert budget.max_iterations == 100

    def test_remaining_floored_after_deadline_death(self):
        now = [0.0]
        admission = AdmissionController(max_pending=1, clock=lambda: now[0])
        ticket = admission.try_admit(1.0)
        now[0] = 60.0  # the whole deadline died queueing
        assert ticket.remaining() == MIN_SOLVE_SECONDS

    def test_release_without_admit_raises(self):
        admission = AdmissionController()
        with pytest.raises(RuntimeError, match="release"):
            admission.release(None)

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            AdmissionController(max_pending=0)
        with pytest.raises(ValueError):
            AdmissionController(default_deadline=10.0, max_deadline=5.0)


# ----------------------------------------------------------------------
# worker jobs (no server, no pool)
# ----------------------------------------------------------------------
def disjoint_instance() -> ProblemInstance:
    """A 2-variable intersect join with *no* exact solution.

    The datasets live in disjoint regions of the plane, so every
    assignment violates the join condition — the anytime search can never
    early-exit on an exact hit and always runs its full budget.
    """
    left = SpatialDataset(
        [Rect(x, 0.0, x + 0.5, 0.5) for x in range(12)], name="left"
    )
    right = SpatialDataset(
        [Rect(x, 100.0, x + 0.5, 100.5) for x in range(12)], name="right"
    )
    return ProblemInstance(query=QueryGraph.chain(2), datasets=[left, right])


class TestWorkerJobs:
    def test_inline_instance_solve(self):
        job = SolveJob(
            instance_name=None,
            query=None,
            dataset_names=None,
            inline_instance=disjoint_instance(),
            algorithm="gils",
            seed=0,
            restarts=1,
            time_limit=None,
            max_iterations=200,
        )
        payload = run_solve_job(job)
        assert payload["approximate"] is True
        assert payload["violations"] >= 1
        assert payload["exact"] is False
        assert len(payload["assignment"]) == 2

    def test_registry_job_without_initializer_fails(self):
        job = SolveJob(
            instance_name="demo",
            query=None,
            dataset_names=None,
            inline_instance=None,
            algorithm="gils",
            seed=0,
            restarts=1,
            time_limit=0.05,
            max_iterations=None,
        )
        with pytest.raises(RuntimeError, match="init_service_worker"):
            run_solve_job(job)

    def test_observed_job_ships_obs_state(self):
        job = SolveJob(
            instance_name=None,
            query=None,
            dataset_names=None,
            inline_instance=disjoint_instance(),
            algorithm="gils",
            seed=0,
            restarts=1,
            time_limit=None,
            max_iterations=100,
            observe=True,
        )
        payload = run_solve_job(job)
        state = payload["obs"]
        spans = [r for r in state["events"] if r["type"] == "span_open"]
        assert any(r["name"] == "service.solve" for r in spans)


# ----------------------------------------------------------------------
# live servers
# ----------------------------------------------------------------------
def run_server_in_thread(server: JoinServer) -> threading.Thread:
    """Run one server's full lifecycle on a private event-loop thread.

    Returns once the listener is bound; the thread exits after a client
    sends the ``shutdown`` op (which resolves ``wait_for_shutdown``).
    """
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


@pytest.fixture(scope="module")
def instance_dir(tmp_path_factory):
    """A persisted chain(3) instance shared by the server tests."""
    directory = tmp_path_factory.mktemp("service") / "acc"
    instance = hard_instance(QueryGraph.chain(3), cardinality=150, seed=5)
    save_instance(instance, directory)
    return directory


class TestServerBasics:
    """Thread-executor server: fast start, shared in-process registry."""

    @pytest.fixture()
    def server(self, instance_dir):
        registry = DatasetRegistry()
        registry.register_instance_dir("acc", instance_dir)
        server = JoinServer(registry, port=0, workers=2, executor="thread")
        thread = run_server_in_thread(server)
        yield server
        with JoinClient(*server.address) as client:
            client.shutdown()
        thread.join(timeout=30)
        assert not thread.is_alive()

    def test_ping_and_datasets(self, server):
        with JoinClient(*server.address) as client:
            assert client.ping()["version"] == PROTOCOL_VERSION
            listing = client.datasets()
            assert listing["instances"] == ["acc"]
            assert listing["datasets"] == ["acc/0", "acc/1", "acc/2"]

    def test_solve_then_cache_hit(self, server):
        with JoinClient(*server.address) as client:
            first = client.solve(
                instance="acc", deadline=5.0, max_iterations=500, seed=11
            )
            assert first["cached"] is False
            assert first["exact"] != first["approximate"]
            second = client.solve(
                instance="acc", deadline=5.0, max_iterations=500, seed=11
            )
            assert second["cached"] is True
            assert second["assignment"] == first["assignment"]
            assert server.cache.stats()["hits"] >= 1

    def test_isomorphic_request_hits_with_translated_assignment(self, server):
        # the same chain submitted under the reversed variable numbering is
        # the same query; the cached assignment comes back re-ordered
        common = dict(deadline=5.0, max_iterations=400, seed=23)
        with JoinClient(*server.address) as client:
            first = client.solve(
                query={"type": "chain", "variables": 3},
                datasets=["acc/0", "acc/1", "acc/2"],
                **common,
            )
            assert first["cached"] is False
            mirrored = client.solve(
                query={"type": "chain", "variables": 3},
                datasets=["acc/2", "acc/1", "acc/0"],
                **common,
            )
            assert mirrored["cached"] is True
            assert mirrored["assignment"] == first["assignment"][::-1]

    def test_unknown_dataset_is_structured_and_final(self, server):
        with JoinClient(*server.address) as client:
            with pytest.raises(ServiceError) as excinfo:
                client.solve(
                    query={"type": "chain", "variables": 2},
                    datasets=["ghost/0", "ghost/1"],
                    deadline=1.0,
                )
            assert excinfo.value.code == "unknown_dataset"
            assert excinfo.value.retryable is False

    def test_dataset_arity_mismatch_is_bad_request(self, server):
        with JoinClient(*server.address) as client:
            with pytest.raises(ServiceError) as excinfo:
                client.solve(
                    query={"type": "chain", "variables": 3},
                    datasets=["acc/0", "acc/1"],
                    deadline=1.0,
                )
            assert excinfo.value.code == "bad_request"

    def test_register_op_adds_instance(self, server, instance_dir):
        with JoinClient(*server.address) as client:
            added = client.register("acc2", str(instance_dir))
            assert added["kind"] == "instance"
            assert "acc2" in client.datasets()["instances"]

    def test_stats_op_reports_counters(self, server):
        with JoinClient(*server.address) as client:
            client.ping()
            stats = client.stats()
            assert stats["requests_total"] >= 1
            assert stats["executor"] == "thread"
            assert stats["admission"]["max_pending"] == 16


class TestOverloadShedding:
    def test_burst_beyond_capacity_sheds_retryable(self):
        registry = DatasetRegistry()
        registry.register_instance("disjoint", disjoint_instance())
        server = JoinServer(
            registry, port=0, workers=1, executor="thread", max_pending=1
        )
        thread = run_server_in_thread(server)
        try:
            blocker_response: dict = {}

            def blocker() -> None:
                with JoinClient(*server.address) as client:
                    blocker_response.update(
                        client.solve(instance="disjoint", deadline=1.5, cache=False)
                    )

            holding = threading.Thread(target=blocker)
            holding.start()
            # wait until the blocker actually occupies the single slot
            deadline = Stopwatch()
            while server.admission.pending < 1 and deadline.elapsed() < 5.0:
                time.sleep(0.01)
            assert server.admission.pending == 1
            with JoinClient(*server.address) as client:
                shed = client.solve(
                    instance="disjoint", deadline=1.5, cache=False, check=False
                )
            holding.join(timeout=30)
            assert shed["status"] == "error"
            assert shed["error"]["code"] == "overloaded"
            assert shed["error"]["retryable"] is True
            assert server.admission.shed_total >= 1
            # the blocker's deadline expired mid-search: graceful degradation
            # still returned its best-so-far, flagged approximate
            assert blocker_response["approximate"] is True
            assert blocker_response["violations"] >= 1
        finally:
            with JoinClient(*server.address) as client:
                client.shutdown()
            thread.join(timeout=30)


class TestServerObservability:
    def test_request_events_and_service_counters(self, instance_dir):
        registry = DatasetRegistry()
        registry.register_instance_dir("acc", instance_dir)
        with observe(Observation(sink=MemorySink())) as obs:
            server = JoinServer(registry, port=0, workers=1, executor="thread")
            thread = run_server_in_thread(server)
            try:
                with JoinClient(*server.address) as client:
                    client.ping()
                    for _ in range(2):
                        client.solve(
                            instance="acc", deadline=5.0, max_iterations=300, seed=2
                        )
            finally:
                with JoinClient(*server.address) as client:
                    client.shutdown()
                thread.join(timeout=30)
            snapshot = obs.registry.snapshot()
            counters = snapshot["counters"]
            assert counters["service.requests"] >= 4  # ping + solves + shutdown
            assert counters["service.cache.hit"] == 1
            assert counters["service.cache.miss"] == 1
            assert snapshot["gauges"]["service.queue.depth"] == 0
            requests = [
                record
                for record in obs.sink.records
                if record["type"] == "request"
            ]
            assert len(requests) >= 4
            assert all(
                set(record) >= {"op", "status", "elapsed"} for record in requests
            )
            assert {record["op"] for record in requests} >= {"ping", "solve"}


class TestAcceptance:
    """The service acceptance scenario, end to end on a process pool."""

    def test_sixteen_concurrent_deadline_bounded_queries(self, instance_dir):
        registry = DatasetRegistry()
        registry.register_instance_dir("acc", instance_dir)
        server = JoinServer(
            registry,
            port=0,
            workers=4,
            executor="process",
            max_pending=32,
            max_deadline=60.0,
        )
        thread = run_server_in_thread(server)
        try:
            solve_fields = dict(instance="acc", deadline=20.0, max_iterations=800)

            # fixed-seed baseline, solved with the server otherwise idle
            with JoinClient(*server.address) as client:
                solo = client.solve(seed=3, cache=False, **solve_fields)

            # 16 concurrent clients, one connection and one seed each
            responses: list[dict] = [None] * 16
            errors: list[BaseException] = []

            def issue(index: int) -> None:
                try:
                    with JoinClient(*server.address) as client:
                        responses[index] = client.solve(
                            seed=index, cache=False, **solve_fields
                        )
                except BaseException as error:  # noqa: BLE001
                    errors.append(error)

            clients = [
                threading.Thread(target=issue, args=(index,)) for index in range(16)
            ]
            for client_thread in clients:
                client_thread.start()
            for client_thread in clients:
                client_thread.join(timeout=120)

            # zero dropped connections, every response exact or approximate
            assert errors == []
            assert all(response is not None for response in responses)
            for response in responses:
                assert response["status"] == "ok"
                assert response["exact"] != response["approximate"]
                assert len(response["assignment"]) == 3

            # fixed-seed determinism: concurrency level must not change the
            # iteration-bounded answer
            assert responses[3]["assignment"] == solo["assignment"]
            assert responses[3]["iterations"] == solo["iterations"]

            # a repeated query is served from the cache in < 10 ms
            with JoinClient(*server.address) as client:
                warm = client.solve(seed=99, **solve_fields)
                assert warm["cached"] is False
                best = float("inf")
                for _ in range(5):
                    watch = Stopwatch()
                    hit = client.solve(seed=99, **solve_fields)
                    best = min(best, watch.elapsed())
                    assert hit["cached"] is True
                    assert hit["assignment"] == warm["assignment"]
                assert best < 0.010, f"cache hit took {best * 1e3:.2f} ms"

            # overload shed: flood far beyond max_pending from one writer;
            # admission never drops the connection, it answers 'overloaded'
            assert server.admission.shed_total == 0
        finally:
            with JoinClient(*server.address) as client:
                client.shutdown()
            thread.join(timeout=60)
            assert not thread.is_alive()
