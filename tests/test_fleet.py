"""Fleet subsystem: partitioning, routing, replication, healing, chaos."""

import asyncio
import json
import threading
import time

import pytest

from repro import QueryGraph, hard_instance
from repro.cli import main as cli_main
from repro.core.budget import Stopwatch
from repro.faults import (
    SITE_FLEET_DISPATCH,
    SITE_FLEET_RESPAWN,
    FaultPlan,
    FaultSpec,
)
from repro.fleet import (
    FleetHandle,
    FleetRouter,
    FleetSpec,
    SupervisorPolicy,
    load_fleet,
    partition_instance,
    save_partition,
)
from repro.fleet.router import EndpointBreaker
from repro.service import JoinClient
from repro.service.client import ServiceError, exchange
from repro.service.protocol import ERROR_CODES, PROTOCOL_VERSION


def chain_instance(cardinality=200, seed=1, variables=3):
    return hard_instance(
        QueryGraph.chain(variables), cardinality=cardinality, seed=seed
    )


# ----------------------------------------------------------------------
# partitioning
# ----------------------------------------------------------------------
class TestPartition:
    @pytest.mark.parametrize("method", ["str", "grid"])
    @pytest.mark.parametrize("shards", [2, 3, 4])
    def test_tiles_are_disjoint_and_cover_workspace(self, method, shards):
        instance = chain_instance()
        partition = partition_instance(
            instance, shards, method=method, name="p"
        )
        tiles = [shard.tile for shard in partition.spec.shards]
        workspace = instance.datasets[0].workspace
        assert sum(tile.area() for tile in tiles) == pytest.approx(
            workspace.area()
        )
        for i, a in enumerate(tiles):
            for b in tiles[i + 1:]:
                overlap_x = min(a.xmax, b.xmax) - max(a.xmin, b.xmin)
                overlap_y = min(a.ymax, b.ymax) - max(a.ymin, b.ymin)
                assert min(overlap_x, overlap_y) <= 1e-12

    @pytest.mark.parametrize("method", ["str", "grid"])
    def test_every_object_lands_on_exactly_one_shard(self, method):
        instance = chain_instance()
        partition = partition_instance(instance, 3, method=method, name="p")
        for variable, dataset in enumerate(instance.datasets):
            seen = sorted(
                global_id
                for shard in partition.spec.shards
                for global_id in shard.id_maps[variable]
            )
            assert seen == list(range(len(dataset)))

    def test_str_tiling_balances_skewed_data(self):
        # all mass in one corner: the grid would starve three tiles, the
        # STR quantile cuts must still spread objects evenly
        instance = chain_instance(cardinality=400, seed=9)
        partition = partition_instance(instance, 4, method="str", name="p")
        counts = [sum(shard.counts) for shard in partition.spec.shards]
        assert max(counts) <= 2 * min(counts)

    def test_shard_instances_preserve_rects(self):
        instance = chain_instance()
        partition = partition_instance(instance, 2, name="p")
        shard = partition.spec.shards[0]
        shard_instance = partition.instances[0]
        for variable in range(instance.query.num_variables):
            for local_id, global_id in enumerate(shard.id_maps[variable]):
                assert (
                    shard_instance.datasets[variable].rects[local_id]
                    == instance.datasets[variable].rects[global_id]
                )

    def test_cost_snapshot_positive_and_additive(self):
        partition = partition_instance(chain_instance(), 2, name="p")
        for shard in partition.spec.shards:
            assert all(cost >= 1.0 for cost in shard.cost_per_variable)
            assert shard.cost_total == pytest.approx(
                sum(shard.cost_per_variable)
            )

    def test_too_many_shards_raises(self):
        with pytest.raises(ValueError, match="no objects"):
            partition_instance(chain_instance(cardinality=12), 16, name="p")

    def test_single_shard_rejected(self):
        with pytest.raises(ValueError, match=">= 2 shards"):
            partition_instance(chain_instance(), 1)

    def test_unknown_method_rejected(self):
        with pytest.raises(ValueError, match="unknown partition method"):
            partition_instance(chain_instance(), 2, method="hilbert")

    def test_manifest_round_trip(self, tmp_path):
        partition = partition_instance(chain_instance(), 2, name="rt")
        manifest = save_partition(partition, tmp_path / "fleet")
        spec = load_fleet(manifest)
        assert spec.name == "rt"
        assert [s.name for s in spec.shards] == [
            s.name for s in partition.spec.shards
        ]
        assert [s.id_maps for s in spec.shards] == [
            s.id_maps for s in partition.spec.shards
        ]
        # persisted shard dirs resolve and reload
        from repro.fleet.partition import load_shard_instance

        reloaded = load_shard_instance(spec.shards[0])
        assert reloaded.query.num_variables == 3
        assert len(reloaded.datasets[0]) == spec.shards[0].counts[0]
        # the manifest itself is valid JSON with a format marker
        payload = json.loads(manifest.read_text())
        assert payload["format"] == "repro-fleet/2"
        FleetSpec.from_dict(payload)

    def test_v1_manifest_still_loads(self, tmp_path):
        # a pre-replication manifest (no "hosts"/"replicas" keys) loads:
        # every tile defaults to a single-host replica group of itself
        partition = partition_instance(chain_instance(), 2, name="v1")
        manifest = save_partition(partition, tmp_path / "fleet")
        payload = json.loads(manifest.read_text())
        payload["format"] = "repro-fleet/1"
        payload.pop("replicas", None)
        for shard in payload["shards"]:
            shard.pop("hosts", None)
        manifest.write_text(json.dumps(payload))
        spec = load_fleet(manifest)
        assert spec.replicas == 1
        for shard in spec.shards:
            assert shard.replica_group == (shard.name,)

    def test_wrong_format_rejected(self):
        with pytest.raises(ValueError, match="not a fleet manifest"):
            FleetSpec.from_dict({"format": "something-else"})


# ----------------------------------------------------------------------
# live fleets
# ----------------------------------------------------------------------
class FleetThread:
    """A FleetHandle running its lifecycle on a private event-loop thread."""

    def __init__(self, handle: FleetHandle) -> None:
        self.handle = handle
        self.loop: asyncio.AbstractEventLoop | None = None
        self._started = threading.Event()
        self._failures: list[BaseException] = []
        self._thread = threading.Thread(target=self._run, daemon=True)

    def _run(self) -> None:
        async def main() -> None:
            self.loop = asyncio.get_running_loop()
            await self.handle.start()
            self._started.set()
            try:
                await self.handle.wait_for_shutdown()
            finally:
                await self.handle.stop()

        try:
            asyncio.run(main())
        except BaseException as error:  # noqa: BLE001 - surfaced to the test
            self._failures.append(error)
            self._started.set()

    def start(self) -> "FleetThread":
        self._thread.start()
        assert self._started.wait(60), "fleet never started"
        if self._failures:
            raise self._failures[0]
        return self

    def stop_shard(self, name: str) -> None:
        assert self.loop is not None
        asyncio.run_coroutine_threadsafe(
            self.handle.stop_shard(name), self.loop
        ).result(30)

    def shutdown(self) -> None:
        with JoinClient(*self.handle.address) as client:
            client.shutdown()
        self._thread.join(30)
        if self._failures:
            raise self._failures[0]


@pytest.fixture(scope="module")
def fleet_parts():
    instance = chain_instance(cardinality=240, seed=2)
    return partition_instance(instance, 2, name="twoshard")


@pytest.fixture()
def fleet(fleet_parts):
    handle = FleetHandle(
        fleet_parts.spec,
        instances=fleet_parts.instances,
        executor="thread",
        workers=2,
    )
    runner = FleetThread(handle).start()
    yield handle
    runner.shutdown()


def solve_record(instance="twoshard", **fields):
    record = {
        "v": PROTOCOL_VERSION,
        "op": "solve",
        "id": fields.pop("id", "t-1"),
        "instance": instance,
    }
    record.update(fields)
    return record


class TestRouter:
    def test_ping_identifies_router(self, fleet):
        with JoinClient(*fleet.address) as client:
            response = client.ping()
        assert response["role"] == "fleet-router"
        assert response["shards"] == 2

    def test_datasets_lists_fleet_instance(self, fleet):
        with JoinClient(*fleet.address) as client:
            response = client.datasets()
        assert response["instances"] == ["twoshard"]
        assert set(response["shards"]) == {
            "twoshard-shard-0",
            "twoshard-shard-1",
        }

    def test_register_is_rejected(self, fleet):
        with JoinClient(*fleet.address) as client:
            with pytest.raises(ServiceError) as excinfo:
                client.register("x", "/tmp/nowhere")
        assert excinfo.value.code == "bad_request"

    def test_solve_scatters_to_all_shards_and_merges(self, fleet):
        with JoinClient(*fleet.address) as client:
            response = client.request(
                solve_record(deadline=5.0, max_iterations=600, seed=3)
            )
        assert response["status"] == "ok"
        info = response["fleet"]
        assert sorted(info["answered"]) == [
            "twoshard-shard-0",
            "twoshard-shard-1",
        ]
        assert info["degraded"] is False
        assert info["lost"] == []
        # the merged assignment uses *global* object ids: every id must
        # be a valid index into the full 240-object datasets
        assert all(0 <= v < 240 for v in response["assignment"])
        assert response["approximate"] or response["exact"]

    def test_unknown_instance_is_structured(self, fleet):
        with JoinClient(*fleet.address) as client:
            response = client.request(solve_record(instance="elsewhere"))
        assert response["status"] == "error"
        assert response["error"]["code"] == "unknown_dataset"

    def test_fanout_caps_contacted_shards(self, fleet):
        with JoinClient(*fleet.address) as client:
            response = client.request(
                solve_record(
                    deadline=5.0, max_iterations=400, seed=4, fanout=1,
                    cache=False,
                )
            )
        assert response["status"] == "ok"
        info = response["fleet"]
        assert len(info["planned"]) == 1
        # voluntary partial coverage: approximate but NOT degraded
        assert info["degraded"] is False
        assert response["exact"] is False

    def test_bad_fanout_is_rejected(self, fleet):
        with JoinClient(*fleet.address) as client:
            response = client.request(solve_record(fanout=0))
        assert response["status"] == "error"
        assert response["error"]["code"] == "bad_request"

    def test_cli_query_prints_routing_with_fanout(self, fleet, capsys):
        host, port = fleet.address
        assert cli_main([
            "query", "--host", host, "--port", str(port),
            "--instance", "twoshard", "--deadline", "5.0",
            "--max-iterations", "400", "--seed", "4", "--fanout", "1",
            "--no-cache",
        ]) == 0
        out = capsys.readouterr().out
        assert "cache: miss" in out
        assert "routing: 1/2 shard(s) answered" in out
        assert "degraded False" in out
        # one tile of two: partial coverage is approximate
        assert "result: approximate" in out

    def test_merged_answers_are_cached(self, fleet):
        with JoinClient(*fleet.address) as client:
            first = client.request(
                solve_record(deadline=5.0, max_iterations=500, seed=11)
            )
            second = client.request(
                solve_record(
                    deadline=5.0, max_iterations=500, seed=11, id="t-2"
                )
            )
        assert first["status"] == "ok" and first["cached"] is False
        assert second["status"] == "ok" and second["cached"] is True
        assert second["assignment"] == first["assignment"]

    def test_solve_deterministic_for_fixed_seed(self, fleet):
        responses = []
        for index in range(2):
            with JoinClient(*fleet.address) as client:
                responses.append(
                    client.request(
                        solve_record(
                            deadline=10.0, max_iterations=500, seed=21,
                            cache=False, id=f"d-{index}",
                        )
                    )
                )
        first, second = responses
        assert first["assignment"] == second["assignment"]
        assert first["violations"] == second["violations"]
        assert first["fleet"]["shard"] == second["fleet"]["shard"]

    def test_stats_exposes_per_shard_health(self, fleet):
        with JoinClient(*fleet.address) as client:
            client.request(solve_record(deadline=5.0, max_iterations=200))
            stats = client.stats()
        info = stats["fleet"]
        assert info["name"] == "twoshard"
        assert len(info["shards"]) == 2
        for shard in info["shards"]:
            assert shard["healthy"] is True
            assert shard["cost"] > 0

    def test_shard_unavailable_is_retryable(self):
        assert ERROR_CODES["shard_unavailable"] is True


class TestShardLoss:
    def test_killed_shard_degrades_never_drops(self, fleet_parts):
        handle = FleetHandle(
            fleet_parts.spec,
            instances=fleet_parts.instances,
            executor="thread",
            workers=2,
        )
        runner = FleetThread(handle).start()
        try:
            runner.stop_shard("twoshard-shard-1")
            for index in range(3):
                with JoinClient(*handle.address) as client:
                    response = client.request(
                        solve_record(
                            deadline=5.0, max_iterations=300,
                            seed=30 + index, cache=False, id=f"k-{index}",
                        )
                    )
                assert response["status"] == "ok"
                assert response["approximate"] is True
                assert response["exact"] is False
                assert response["fleet"]["degraded"] is True
                assert response["fleet"]["answered"] == ["twoshard-shard-0"]
        finally:
            runner.shutdown()

    def test_all_shards_lost_returns_structured_retryable_error(
        self, fleet_parts
    ):
        handle = FleetHandle(
            fleet_parts.spec,
            instances=fleet_parts.instances,
            executor="thread",
            workers=1,
        )
        runner = FleetThread(handle).start()
        try:
            runner.stop_shard("twoshard-shard-0")
            runner.stop_shard("twoshard-shard-1")
            with JoinClient(*handle.address) as client:
                response = client.request(
                    solve_record(deadline=3.0, max_iterations=100, cache=False)
                )
            assert response["status"] == "error"
            assert response["error"]["code"] == "shard_unavailable"
            assert response["error"]["retryable"] is True
        finally:
            runner.shutdown()

    def test_surviving_shard_deterministic_after_loss(self, fleet_parts):
        answers = []
        for attempt in range(2):
            handle = FleetHandle(
                fleet_parts.spec,
                instances=fleet_parts.instances,
                executor="thread",
                workers=2,
            )
            runner = FleetThread(handle).start()
            try:
                runner.stop_shard("twoshard-shard-1")
                with JoinClient(*handle.address) as client:
                    response = client.request(
                        solve_record(
                            deadline=10.0, max_iterations=400, seed=77,
                            cache=False, id=f"s-{attempt}",
                        )
                    )
                assert response["status"] == "ok"
                answers.append(
                    (response["assignment"], response["violations"])
                )
            finally:
                runner.shutdown()
        assert answers[0] == answers[1]


# ----------------------------------------------------------------------
# the acceptance test: 16 concurrent clients, 25% shard-kill chaos
# ----------------------------------------------------------------------
class TestFleetAcceptance:
    def test_concurrent_clients_under_shard_kill_chaos(self):
        instance = chain_instance(cardinality=240, seed=4)
        partition = partition_instance(instance, 3, name="acc")
        plan = FaultPlan(
            seed=0,
            specs=[
                FaultSpec(
                    site=SITE_FLEET_DISPATCH, kind="crash", probability=0.25
                )
            ],
        )
        handle = FleetHandle(
            partition.spec,
            instances=partition.instances,
            executor="thread",
            workers=2,
            max_pending=32,
            fault_plan=plan,
        )
        runner = FleetThread(handle).start()
        clients = 16
        kill_after = threading.Barrier(clients + 1, timeout=60)
        responses: list[list[dict]] = [[] for _ in range(clients)]
        dropped: list[BaseException] = []

        def storm(worker: int) -> None:
            try:
                with JoinClient(*handle.address) as client:
                    # phase 1: all shards up, chaos plan injecting
                    for q in range(2):
                        responses[worker].append(
                            client.request(
                                solve_record(
                                    instance="acc", deadline=8.0,
                                    max_iterations=150, cache=False,
                                    seed=worker * 10 + q,
                                    id=f"w{worker}-a{q}",
                                )
                            )
                        )
                    kill_after.wait()
                    kill_after.wait()  # shard killed between the barriers
                    # phase 2: one shard is permanently gone
                    for q in range(2):
                        responses[worker].append(
                            client.request(
                                solve_record(
                                    instance="acc", deadline=8.0,
                                    max_iterations=150, cache=False,
                                    seed=worker * 10 + 5 + q,
                                    id=f"w{worker}-b{q}",
                                )
                            )
                        )
            except BaseException as error:  # noqa: BLE001 - a drop
                dropped.append(error)

        threads = [
            threading.Thread(target=storm, args=(worker,), daemon=True)
            for worker in range(clients)
        ]
        try:
            for thread in threads:
                thread.start()
            kill_after.wait()  # every client finished phase 1
            runner.stop_shard("acc-shard-2")
            kill_after.wait()  # release phase 2
            for thread in threads:
                thread.join(120)
                assert not thread.is_alive(), "client wedged"
        finally:
            runner.shutdown()

        # zero dropped requests: every client got a structured response
        # for every query (transport never raised)
        assert dropped == []
        flat = [r for per_client in responses for r in per_client]
        assert len(flat) == clients * 4
        for response in flat:
            assert response.get("status") in ("ok", "error"), response
            if response["status"] == "error":
                # chaos may lose every shard of one scatter; that must
                # surface as the retryable structured code, never a drop
                assert response["error"]["code"] == "shard_unavailable"
                assert response["error"]["retryable"] is True
        # post-kill answers: shard-2 queries degrade to approximate (or
        # arrive flagged recovered), they never error with a new code
        post_kill = [
            r
            for per_client in responses
            for r in per_client[2:]
            if r["status"] == "ok"
        ]
        assert post_kill, "no post-kill answers at all"
        for response in post_kill:
            assert response["approximate"] or response.get("recovered"), (
                response
            )


# ----------------------------------------------------------------------
# replication: ring assignment, failover stays exact
# ----------------------------------------------------------------------
class TestReplication:
    def test_ring_replica_assignment(self):
        partition = partition_instance(
            chain_instance(), 3, name="r", replicas=2
        )
        spec = partition.spec
        assert spec.replicas == 2
        for index, shard in enumerate(spec.shards):
            assert shard.replica_group == (
                f"r-shard-{index}",
                f"r-shard-{(index + 1) % 3}",
            )
        # every server hosts exactly R tiles: its primary + predecessor
        for name in spec.server_names:
            hosted = [tile.name for tile in spec.hosted_tiles(name)]
            assert len(hosted) == 2
            assert name in hosted

    @pytest.mark.parametrize("replicas", [0, 4])
    def test_invalid_replicas_rejected(self, replicas):
        with pytest.raises(ValueError, match="replicas"):
            partition_instance(chain_instance(), 3, replicas=replicas)

    def test_manifest_round_trip_carries_replication(self, tmp_path):
        partition = partition_instance(
            chain_instance(), 2, name="rr", replicas=2
        )
        manifest = save_partition(partition, tmp_path / "fleet")
        spec = load_fleet(manifest)
        assert spec.replicas == 2
        assert [s.replica_group for s in spec.shards] == [
            s.replica_group for s in partition.spec.shards
        ]


@pytest.fixture(scope="module")
def replicated_parts():
    instance = chain_instance(cardinality=240, seed=2)
    return partition_instance(instance, 2, name="rep", replicas=2)


class TestFailover:
    def _query(self, handle, seed, ident):
        with JoinClient(*handle.address) as client:
            return client.request(
                solve_record(
                    instance="rep", deadline=8.0, max_iterations=300,
                    seed=seed, cache=False, id=ident,
                )
            )

    def test_failover_keeps_answers_exact_and_identical(
        self, replicated_parts
    ):
        # baseline: fault-free replicated fleet
        handle = FleetHandle(
            replicated_parts.spec,
            instances=replicated_parts.instances,
            executor="thread",
            workers=2,
        )
        runner = FleetThread(handle).start()
        try:
            baseline = self._query(handle, seed=77, ident="base")
        finally:
            runner.shutdown()
        assert baseline["status"] == "ok"

        # same fleet, one server killed: every tile still answers via
        # its replica, the answer does not degrade, and the assignment
        # is byte-identical (replicas host the *same* tile instances)
        handle = FleetHandle(
            replicated_parts.spec,
            instances=replicated_parts.instances,
            executor="thread",
            workers=2,
        )
        runner = FleetThread(handle).start()
        try:
            runner.stop_shard("rep-shard-1")
            for attempt in range(2):
                response = self._query(handle, seed=77, ident=f"f{attempt}")
                assert response["status"] == "ok"
                info = response["fleet"]
                assert sorted(info["answered"]) == [
                    "rep-shard-0", "rep-shard-1",
                ]
                assert info["degraded"] is False
                assert info["lost"] == [] and info["skipped"] == []
                # the dead primary's tile was served by a replica
                assert "rep-shard-1" in (
                    info["failover"] + info["hedged"]
                )
                assert response["exact"] == baseline["exact"]
                assert response["assignment"] == baseline["assignment"]
                assert response["violations"] == baseline["violations"]
            with JoinClient(*handle.address) as client:
                stats = client.stats()
            assert stats["fleet"]["failover_total"] >= 1
            assert stats["fleet"]["replicas"] == 2
        finally:
            runner.shutdown()

    def test_whole_replica_group_lost_degrades(self, replicated_parts):
        handle = FleetHandle(
            replicated_parts.spec,
            instances=replicated_parts.instances,
            executor="thread",
            workers=2,
        )
        runner = FleetThread(handle).start()
        try:
            runner.stop_shard("rep-shard-0")
            runner.stop_shard("rep-shard-1")
            with JoinClient(*handle.address) as client:
                response = client.request(
                    solve_record(
                        instance="rep", deadline=3.0, max_iterations=100,
                        cache=False,
                    )
                )
            # both servers gone = both tiles' whole groups gone: the
            # structured retryable error, never a drop
            assert response["status"] == "error"
            assert response["error"]["code"] == "shard_unavailable"
            assert response["error"]["retryable"] is True
        finally:
            runner.shutdown()


# ----------------------------------------------------------------------
# router probe lifecycle (satellite)
# ----------------------------------------------------------------------
def _dead_endpoints(spec):
    # a port from the ephemeral range nothing listens on in tests
    return {name: ("127.0.0.1", 1) for name in spec.server_names}


class TestProbeLifecycle:
    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_probes_deduplicated_and_cancelled_on_stop(self, fleet_parts):
        spec = fleet_parts.spec

        async def main():
            router = FleetRouter(spec, _dead_endpoints(spec))
            router.mark_down("twoshard-shard-0")
            router._schedule_probe("twoshard-shard-0")
            first = router._probes["twoshard-shard-0"]
            router._schedule_probe("twoshard-shard-0")
            assert router._probes["twoshard-shard-0"] is first
            assert len(router._probes) == 1
            await router.stop()
            assert router._probes == {}

        asyncio.run(main())

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_recovering_shard_rejoins_exactly_once(self, fleet_parts):
        from repro.service.registry import DatasetRegistry
        from repro.service.server import JoinServer

        spec = fleet_parts.spec

        async def main():
            server = JoinServer(
                DatasetRegistry(), executor="thread", workers=1
            )
            await server.start()
            try:
                endpoints = {
                    name: server.address for name in spec.server_names
                }
                router = FleetRouter(spec, endpoints)
                router.mark_down("twoshard-shard-0")
                router._schedule_probe("twoshard-shard-0")
                probe = router._probes["twoshard-shard-0"]
                router._schedule_probe("twoshard-shard-0")  # deduplicated
                await probe
                assert "twoshard-shard-0" not in router.down_servers
                assert router._recovered_pending == {"twoshard-shard-0"}
                # a later probe of the now-healthy shard is a no-op: the
                # pending recovered flag is not re-armed into a second
                # "rejoin"
                await router._probe("twoshard-shard-0")
                assert router._recovered_pending == {"twoshard-shard-0"}
                await router.stop()
            finally:
                await server.stop()

        asyncio.run(main())

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_update_endpoint_cancels_stale_probe(self, fleet_parts):
        spec = fleet_parts.spec

        async def main():
            router = FleetRouter(spec, _dead_endpoints(spec))
            router.mark_down("twoshard-shard-0")
            router._schedule_probe("twoshard-shard-0")
            probe = router._probes["twoshard-shard-0"]
            router.update_endpoint("twoshard-shard-0", ("127.0.0.1", 2))
            await asyncio.gather(probe, return_exceptions=True)
            # the stale probe is gone, the server rejoined with the new
            # endpoint and owes a recovered flag
            assert probe.cancelled() or probe.done()
            assert "twoshard-shard-0" not in router.down_servers
            assert router.endpoints["twoshard-shard-0"] == ("127.0.0.1", 2)
            assert "twoshard-shard-0" in router._recovered_pending
            await router.stop()

        asyncio.run(main())

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_draining_shard_fails_both_probes(self, fleet_parts):
        from repro.fleet import ShardSupervisor
        from repro.service.registry import DatasetRegistry
        from repro.service.server import JoinServer

        spec = fleet_parts.spec
        name = "twoshard-shard-0"

        async def main():
            server = JoinServer(DatasetRegistry(), executor="thread", workers=1)
            await server.start()
            try:
                endpoints = {n: server.address for n in spec.server_names}
                router = FleetRouter(spec, endpoints)
                supervisor = ShardSupervisor(spec, router)
                assert await supervisor._probe_server(name) is True
                # a draining server still answers ping, with shutting_down
                shutdown = {"v": PROTOCOL_VERSION, "op": "shutdown", "id": "s"}
                assert (await exchange(*server.address, shutdown))["status"] == "ok"
                router.mark_down(name)
                await router._probe(name)
                assert name in router.down_servers
                assert await supervisor._probe_server(name) is False
                await router.stop()
            finally:
                await server.stop()

        asyncio.run(main())

    def test_update_endpoint_rejects_unknown_server(self, fleet_parts):
        router = FleetRouter(
            fleet_parts.spec, _dead_endpoints(fleet_parts.spec)
        )
        with pytest.raises(KeyError, match="unknown shard server"):
            router.update_endpoint("nowhere", ("127.0.0.1", 3))
        with pytest.raises(KeyError, match="unknown shard server"):
            router.mark_down("nowhere")


class TestLoopFaults:
    """A fault on the router's event loop suspends one leg, not the loop."""

    def test_slow_dispatch_fault_leaves_the_router_answering(self, fleet_parts):
        spec = fleet_parts.spec
        # one slow leg: the first dispatch stalls for a second
        plan = FaultPlan(
            specs=(
                FaultSpec(
                    site=SITE_FLEET_DISPATCH, kind="slow", indices=(0,), delay=1.0
                ),
            )
        )
        router = FleetRouter(spec, _dead_endpoints(spec), fault_plan=plan)
        started = threading.Event()

        def serve() -> None:
            async def main() -> None:
                await router.start()
                started.set()
                try:
                    await router.wait_for_shutdown()
                finally:
                    await router.stop()

            asyncio.run(main())

        server = threading.Thread(target=serve, daemon=True)
        server.start()
        assert started.wait(30), "router never started"
        solved: list[dict] = []

        def solve() -> None:
            with JoinClient(*router.address) as client:
                solved.append(
                    client.solve(
                        check=False, instance="twoshard", deadline=5.0,
                        cache=False, seed=1,
                    )
                )

        solver = threading.Thread(target=solve, daemon=True)
        solver.start()
        time.sleep(0.2)  # the first leg is now stalled at fleet.dispatch
        with JoinClient(*router.address) as client:
            watch = Stopwatch()
            assert client.ping()["status"] == "ok"
            ping_seconds = watch.elapsed()
        solver.join(30)
        with JoinClient(*router.address) as client:
            client.shutdown()
        server.join(30)
        assert ping_seconds < 0.2
        # the stalled leg still ends structured: dead shards, no drop
        assert [response["error"]["code"] for response in solved] == [
            "shard_unavailable"
        ]


# ----------------------------------------------------------------------
# hedged scatter + circuit breaker
# ----------------------------------------------------------------------
class TestEndpointBreaker:
    def test_opens_after_threshold_and_half_opens(self):
        breaker = EndpointBreaker(threshold=3, cooldown=0.05)
        for _ in range(2):
            breaker.record_failure()
        assert breaker.open is False
        breaker.record_failure()
        assert breaker.open is True
        time.sleep(0.06)
        # half-open: eligible again, but one more failure re-opens
        assert breaker.open is False
        breaker.record_failure()
        assert breaker.open is True
        breaker.record_success()
        assert breaker.open is False and breaker.failures == 0

    def test_threshold_validated(self):
        with pytest.raises(ValueError, match="threshold"):
            EndpointBreaker(threshold=0)


def shard_answer(spec, *, exact=True, violations=0):
    """A structurally valid shard solve response (all-zero local ids)."""
    return {
        "status": "ok",
        "assignment": [0] * spec.query_graph().num_variables,
        "violations": violations,
        "similarity": 1.0 if violations == 0 else 0.5,
        "exact": exact,
        "iterations": 1,
        "elapsed": 0.01,
        "algorithm": "gils",
    }


async def route_solve(router, record):
    line = (json.dumps(record) + "\n").encode("utf-8")
    return await router._handle_line(line)


class TestHedging:
    @pytest.fixture()
    def hedge_spec(self):
        return partition_instance(
            chain_instance(cardinality=120, seed=3), 2, name="h", replicas=2
        ).spec

    def test_hedge_beats_straggling_primary(self, hedge_spec):
        async def main():
            router = FleetRouter(hedge_spec, _dead_endpoints(hedge_spec))

            async def fake_sub_solve(server, tile, fields, tag):
                if server == tile.replica_group[0]:
                    await asyncio.sleep(0.4)  # the straggler
                return shard_answer(hedge_spec)

            router._sub_solve = fake_sub_solve
            for name in hedge_spec.server_names:
                router._predicted[name] = 0.01
            response = await route_solve(
                router,
                solve_record(
                    instance="h", deadline=5.0, cache=False, seed=1,
                    id="h-1",
                ),
            )
            assert response["status"] == "ok"
            info = response["fleet"]
            assert sorted(info["answered"]) == sorted(info["hedged"])
            assert info["failover"] == []
            assert info["degraded"] is False
            assert router.hedges_launched >= 1
            assert router.hedges_won >= 1
            await router.stop()

        asyncio.run(main())

    def test_no_hedge_without_deadline_headroom(self, hedge_spec):
        async def main():
            router = FleetRouter(hedge_spec, _dead_endpoints(hedge_spec))

            async def fake_sub_solve(server, tile, fields, tag):
                return shard_answer(hedge_spec)

            router._sub_solve = fake_sub_solve
            for name in hedge_spec.server_names:
                # predicted latency far above any headroom the ticket has
                router._predicted[name] = 60.0
            response = await route_solve(
                router,
                solve_record(
                    instance="h", deadline=1.0, cache=False, seed=2,
                    id="h-2",
                ),
            )
            assert response["status"] == "ok"
            assert router.hedges_launched == 0
            assert response["fleet"]["hedged"] == []
            await router.stop()

        asyncio.run(main())

    def test_open_breaker_suppresses_hedge(self, hedge_spec):
        async def main():
            router = FleetRouter(hedge_spec, _dead_endpoints(hedge_spec))

            async def fake_sub_solve(server, tile, fields, tag):
                return shard_answer(hedge_spec)

            router._sub_solve = fake_sub_solve
            for name in hedge_spec.server_names:
                router._predicted[name] = 0.01
                breaker = router._breakers[name]
                for _ in range(breaker.threshold):
                    breaker.record_failure()
            response = await route_solve(
                router,
                solve_record(
                    instance="h", deadline=5.0, cache=False, seed=3,
                    id="h-3",
                ),
            )
            assert response["status"] == "ok"
            assert router.hedges_launched == 0
            assert router.hedges_suppressed >= 1
            await router.stop()

        asyncio.run(main())

    def test_hedge_disabled_never_launches(self, hedge_spec):
        async def main():
            router = FleetRouter(
                hedge_spec, _dead_endpoints(hedge_spec), hedge=False
            )

            async def fake_sub_solve(server, tile, fields, tag):
                if server == tile.replica_group[0]:
                    await asyncio.sleep(0.1)
                return shard_answer(hedge_spec)

            router._sub_solve = fake_sub_solve
            for name in hedge_spec.server_names:
                router._predicted[name] = 0.001
            response = await route_solve(
                router,
                solve_record(
                    instance="h", deadline=5.0, cache=False, seed=4,
                    id="h-4",
                ),
            )
            assert response["status"] == "ok"
            assert router.hedges_launched == 0
            assert router.hedges_suppressed == 0
            await router.stop()

        asyncio.run(main())


# ----------------------------------------------------------------------
# launcher regressions (satellite): stop_shard bookkeeping
# ----------------------------------------------------------------------
class TestStopShardRegression:
    def test_stop_shard_removes_dead_endpoint(self, fleet_parts):
        handle = FleetHandle(
            fleet_parts.spec,
            instances=fleet_parts.instances,
            executor="thread",
            workers=1,
        )
        runner = FleetThread(handle).start()
        try:
            assert set(handle.shard_addresses) == {
                "twoshard-shard-0", "twoshard-shard-1",
            }
            runner.stop_shard("twoshard-shard-1")
            # the dead endpoint is no longer advertised
            assert set(handle.shard_addresses) == {"twoshard-shard-0"}
            assert "twoshard-shard-1" not in handle.shard_servers
            with pytest.raises(Exception):  # noqa: B017 - surfaced KeyError
                runner.stop_shard("twoshard-shard-1")
        finally:
            runner.shutdown()  # must not double-stop the dead server

    def test_join_server_stop_is_idempotent(self):
        from repro.service.registry import DatasetRegistry
        from repro.service.server import JoinServer

        async def main():
            server = JoinServer(
                DatasetRegistry(), executor="thread", workers=1
            )
            await server.start()
            await server.stop()
            await server.stop()  # explicit no-op, not an error
            # restart works after a stop: the idempotency latch resets
            await server.start()
            await server.stop()

        asyncio.run(main())


# ----------------------------------------------------------------------
# shard supervisor: respawn, restart budget, give-up
# ----------------------------------------------------------------------
FAST_POLICY = SupervisorPolicy(
    probe_interval=0.1,
    probe_timeout=0.5,
    backoff_base=0.05,
    backoff_cap=0.2,
    max_restarts=3,
)


def poll_until(predicate, timeout=30.0, interval=0.2):
    watch = Stopwatch()
    while watch.elapsed() < timeout:
        if predicate():
            return True
        time.sleep(interval)
    return False


class TestSupervisor:
    def test_policy_budget_is_backoff_sum(self):
        policy = SupervisorPolicy(
            backoff_base=0.2, backoff_cap=2.0, max_restarts=3
        )
        assert policy.budget() == pytest.approx(0.2 + 0.4 + 0.8)
        capped = SupervisorPolicy(
            backoff_base=1.5, backoff_cap=2.0, max_restarts=3
        )
        assert capped.budget() == pytest.approx(1.5 + 2.0 + 2.0)

    def test_policy_validation(self):
        with pytest.raises(ValueError, match="probe_interval"):
            SupervisorPolicy(probe_interval=0.0)
        with pytest.raises(ValueError, match="max_restarts"):
            SupervisorPolicy(max_restarts=0)

    def test_respawn_restores_exact_answers(self, fleet_parts):
        lines: list[str] = []
        handle = FleetHandle(
            fleet_parts.spec,
            instances=fleet_parts.instances,
            executor="thread",
            workers=1,
            supervise=True,
            supervisor_policy=FAST_POLICY,
            supervisor_log=lines.append,
        )
        runner = FleetThread(handle).start()
        try:
            runner.stop_shard("twoshard-shard-1")

            def healed():
                with JoinClient(*handle.address) as client:
                    response = client.request(
                        solve_record(
                            deadline=3.0, max_iterations=100, cache=False,
                            seed=len(lines), id=f"p-{len(lines)}",
                        )
                    )
                return (
                    response["status"] == "ok"
                    and response["fleet"]["degraded"] is False
                    and sorted(response["fleet"]["answered"])
                    == ["twoshard-shard-0", "twoshard-shard-1"]
                )

            assert poll_until(healed), f"never healed; log: {lines}"
            with JoinClient(*handle.address) as client:
                stats = client.stats()
            supervisor = stats["fleet"]["supervisor"]
            state = supervisor["servers"]["twoshard-shard-1"]
            assert state["state"] == "up"
            assert state["restarts"] >= 1
            assert supervisor["respawns_total"] >= 1
            assert any("respawned twoshard-shard-1" in line for line in lines)
        finally:
            runner.shutdown()

    def test_restart_budget_exhaustion_gives_up(self, fleet_parts):
        plan = FaultPlan(
            seed=0,
            specs=[
                # times must cover every retry: specs default to times=1
                # (first retry runs clean), which would let attempt 1
                # respawn successfully instead of exhausting the budget
                FaultSpec(
                    site=SITE_FLEET_RESPAWN,
                    kind="crash",
                    times=FAST_POLICY.max_restarts,
                )
            ],
        )
        handle = FleetHandle(
            fleet_parts.spec,
            instances=fleet_parts.instances,
            executor="thread",
            workers=1,
            supervise=True,
            supervisor_policy=FAST_POLICY,
            fault_plan=plan,
        )
        runner = FleetThread(handle).start()
        try:
            runner.stop_shard("twoshard-shard-1")

            def gave_up():
                with JoinClient(*handle.address) as client:
                    stats = client.stats()
                servers = stats["fleet"]["supervisor"]["servers"]
                return servers["twoshard-shard-1"]["state"] == "gave_up"

            assert poll_until(gave_up), "supervisor never exhausted budget"
            with JoinClient(*handle.address) as client:
                stats = client.stats()
            state = stats["fleet"]["supervisor"]["servers"]["twoshard-shard-1"]
            assert state["restarts"] == 0
            assert state["failed_attempts"] == FAST_POLICY.max_restarts
            # degraded but structured: the fleet still answers
            with JoinClient(*handle.address) as client:
                response = client.request(
                    solve_record(
                        deadline=3.0, max_iterations=100, cache=False,
                        id="after-give-up",
                    )
                )
            assert response["status"] == "ok"
            assert response["fleet"]["degraded"] is True
        finally:
            runner.shutdown()


# ----------------------------------------------------------------------
# cross-shard trace merge (obs satellite)
# ----------------------------------------------------------------------
class TestTraceMerge:
    def test_merge_tags_sources_and_validates(self, tmp_path):
        from repro.obs import merge_trace_files
        from repro.obs.events import dump_records

        a = tmp_path / "router.jsonl"
        b = tmp_path / "shard.jsonl"
        dump_records(
            [
                {"v": 1, "type": "request", "ts": 2.0, "seq": 1,
                 "op": "solve", "status": "ok", "elapsed": 0.5},
            ],
            str(a),
        )
        dump_records(
            [
                {"v": 1, "type": "request", "ts": 1.0, "seq": 1,
                 "op": "solve", "status": "ok", "elapsed": 0.2},
            ],
            str(b),
        )
        merged = merge_trace_files([str(a), str(b)])
        assert [r["source"] for r in merged] == [
            "shard.jsonl", "router.jsonl",
        ]  # timestamp order
        assert all(r["v"] == 1 for r in merged)

    def test_duplicate_basenames_fall_back_to_full_paths(self, tmp_path):
        from repro.obs import merge_trace_files
        from repro.obs.events import dump_records

        record = {"v": 1, "type": "restart", "ts": 0.0, "seq": 1, "index": 0}
        (tmp_path / "x").mkdir()
        (tmp_path / "y").mkdir()
        a = tmp_path / "x" / "trace.jsonl"
        b = tmp_path / "y" / "trace.jsonl"
        dump_records([record], str(a))
        dump_records([record], str(b))
        merged = merge_trace_files([str(a), str(b)])
        assert sorted({r["source"] for r in merged}) == sorted(
            [str(a), str(b)]
        )


# ----------------------------------------------------------------------
# the self-healing acceptance: replicated + supervised fleet, kill one
# shard mid-burst under 16 concurrent deadline-bounded clients
# ----------------------------------------------------------------------
class TestSelfHealingAcceptance:
    def test_replicated_supervised_fleet_heals_after_kill(self):
        instance = chain_instance(cardinality=240, seed=4)
        partition = partition_instance(instance, 3, name="sh", replicas=2)

        def build(supervise):
            return FleetHandle(
                partition.spec,
                instances=partition.instances,
                executor="thread",
                workers=2,
                max_pending=32,
                supervise=supervise,
                supervisor_policy=FAST_POLICY if supervise else None,
            )

        # fault-free baseline for the byte-identical check
        baseline_handle = build(supervise=False)
        baseline_runner = FleetThread(baseline_handle).start()
        try:
            with JoinClient(*baseline_handle.address) as client:
                baseline = client.request(
                    solve_record(
                        instance="sh", deadline=8.0, max_iterations=150,
                        seed=777, cache=False, id="baseline",
                    )
                )
        finally:
            baseline_runner.shutdown()
        assert baseline["status"] == "ok"

        handle = build(supervise=True)
        runner = FleetThread(handle).start()
        clients = 16
        kill_after = threading.Barrier(clients + 1, timeout=60)
        responses: list[list[dict]] = [[] for _ in range(clients)]
        dropped: list[BaseException] = []

        def storm(worker: int) -> None:
            try:
                with JoinClient(*handle.address) as client:
                    for q in range(2):
                        responses[worker].append(
                            client.request(
                                solve_record(
                                    instance="sh", deadline=8.0,
                                    max_iterations=150, cache=False,
                                    seed=worker * 10 + q,
                                    id=f"w{worker}-a{q}",
                                )
                            )
                        )
                    kill_after.wait()
                    kill_after.wait()  # shard killed between the barriers
                    for q in range(2):
                        responses[worker].append(
                            client.request(
                                solve_record(
                                    instance="sh", deadline=8.0,
                                    max_iterations=150, cache=False,
                                    seed=worker * 10 + 5 + q,
                                    id=f"w{worker}-b{q}",
                                )
                            )
                        )
            except BaseException as error:  # noqa: BLE001 - a drop
                dropped.append(error)

        threads = [
            threading.Thread(target=storm, args=(worker,), daemon=True)
            for worker in range(clients)
        ]
        try:
            for thread in threads:
                thread.start()
            kill_after.wait()  # every client finished phase 1
            runner.stop_shard("sh-shard-2")
            kill_after.wait()  # release phase 2
            for thread in threads:
                thread.join(120)
                assert not thread.is_alive(), "client wedged"

            # zero drops: every request got a structured answer, and with
            # a live replica for every tile none may be shard_unavailable
            assert dropped == []
            flat = [r for per_client in responses for r in per_client]
            assert len(flat) == clients * 4
            for response in flat:
                assert response.get("status") == "ok", response

            # heal: the supervisor respawns sh-shard-2 within its budget
            def healed():
                with JoinClient(*handle.address) as client:
                    stats = client.stats()
                state = stats["fleet"]["supervisor"]["servers"]["sh-shard-2"]
                return state["state"] == "up" and state["restarts"] >= 1

            assert poll_until(healed), "supervisor never respawned the shard"

            # post-recovery: a fresh query over the killed tile matches
            # the fault-free baseline byte for byte (same data, same
            # seed, whether served by primaries, replicas, or respawns)
            with JoinClient(*handle.address) as client:
                recovered = client.request(
                    solve_record(
                        instance="sh", deadline=8.0, max_iterations=150,
                        seed=777, cache=False, id="post-recovery",
                    )
                )
            assert recovered["status"] == "ok"
            assert recovered["fleet"]["degraded"] is False
            assert sorted(recovered["fleet"]["answered"]) == sorted(
                shard.name for shard in partition.spec.shards
            )
            assert recovered["exact"] == baseline["exact"]
            assert recovered["assignment"] == baseline["assignment"]
            assert recovered["violations"] == baseline["violations"]
        finally:
            runner.shutdown()
