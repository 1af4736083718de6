"""The shared JSON-lines front end, run against both endpoints that use it.

:class:`~repro.service.frame.LineFrame` owns the read loop, the line
handler, request accounting and the solve pipeline's shared stages
(resolve errors, cache lookup, admission) for :class:`JoinServer` and
:class:`FleetRouter` alike, so every behaviour here is checked on both: a
thread-executor server and a router whose shard endpoints are dead (the
frame never needs a shard; solves that must run fake the shard legs).
"""

from __future__ import annotations

import asyncio
import json
import socket
import threading

import pytest

from repro import QueryGraph, hard_instance
from repro.fleet import FleetRouter, partition_instance
from repro.obs import MemorySink, Observation, observe
from repro.service import DatasetRegistry, JoinServer
from repro.service.frame import LINE_LIMIT
from repro.service.protocol import PROTOCOL_VERSION


def _chain_instance():
    return hard_instance(QueryGraph.chain(3), cardinality=150, seed=5)


def _dead_endpoints(spec):
    # a port nothing listens on in tests
    return {name: ("127.0.0.1", 1) for name in spec.server_names}


def _build(kind, **options):
    if kind == "server":
        registry = DatasetRegistry()
        registry.register_instance("acc", _chain_instance())
        return JoinServer(registry, workers=1, executor="thread", **options)
    spec = partition_instance(_chain_instance(), 2, name="acc").spec
    return FleetRouter(spec, _dead_endpoints(spec), **options)


class EndpointThread:
    """One endpoint on a private loop, stopped by the test, not by ``shutdown``."""

    def __init__(self, endpoint) -> None:
        self.endpoint = endpoint
        self.loop = asyncio.new_event_loop()
        self._thread = threading.Thread(target=self.loop.run_forever, daemon=True)

    def run(self, coroutine):
        return asyncio.run_coroutine_threadsafe(coroutine, self.loop).result(30)

    def __enter__(self) -> "EndpointThread":
        self._thread.start()
        self.run(self.endpoint.start())
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.run(self.endpoint.stop())
        self.loop.call_soon_threadsafe(self.loop.stop)
        self._thread.join(30)
        self.loop.close()


def exchange(address, payload: bytes) -> list[dict]:
    """Send raw bytes, half-close, and read every response line until EOF."""
    with socket.create_connection(address, timeout=10) as raw:
        raw.sendall(payload)
        raw.shutdown(socket.SHUT_WR)
        lines = raw.makefile("rb").read().splitlines()
    return [json.loads(line) for line in lines]


def line(op: str, request_id: str, **fields) -> bytes:
    record = {"v": PROTOCOL_VERSION, "op": op, "id": request_id, **fields}
    return (json.dumps(record) + "\n").encode("utf-8")


@pytest.fixture(params=["server", "router"])
def live(request):
    with EndpointThread(_build(request.param)) as running:
        yield running


class TestFrame:
    def test_malformed_json_is_bad_request(self, live):
        [response] = exchange(live.endpoint.address, b"this is not json\n")
        assert response["status"] == "error"
        assert response["error"]["code"] == "bad_request"
        assert response["error"]["retryable"] is False
        assert live.endpoint.errors_total == 1

    def test_non_object_line_is_bad_request(self, live):
        [response] = exchange(live.endpoint.address, b"[1, 2, 3]\n")
        assert response["status"] == "error"
        assert response["error"]["code"] == "bad_request"

    def test_blank_lines_are_skipped_without_a_response(self, live):
        responses = exchange(
            live.endpoint.address, b"\n   \n" + line("ping", "p-1") + b"\n"
        )
        assert [r["id"] for r in responses] == ["p-1"]
        assert responses[0]["status"] == "ok"
        assert live.endpoint.requests_total == 1

    def test_request_after_shutdown_is_shutting_down(self, live):
        responses = exchange(
            live.endpoint.address,
            line("shutdown", "s-1") + line("ping", "p-1"),
        )
        assert [r["id"] for r in responses] == ["s-1", "p-1"]
        assert responses[0]["status"] == "ok"
        assert responses[0]["stopping"] is True
        assert responses[1]["status"] == "error"
        assert responses[1]["error"]["code"] == "shutting_down"

    def test_oversized_line_gets_one_bad_request_then_closes(self, live):
        padding = "x" * 70_000
        assert len(padding) > LINE_LIMIT
        responses = exchange(
            live.endpoint.address, line("ping", "big", pad=padding)
        )
        assert len(responses) == 1
        assert responses[0]["error"]["code"] == "bad_request"
        assert str(LINE_LIMIT) in responses[0]["error"]["message"]
        # the endpoint itself is unharmed: a fresh connection is served
        [pong] = exchange(live.endpoint.address, line("ping", "p-2"))
        assert pong["status"] == "ok"
        assert live.endpoint.errors_total == 1


def _shard_answer(spec):
    """A structurally valid shard solve response (all-zero local ids)."""
    return {
        "status": "ok",
        "assignment": [0] * spec.query_graph().num_variables,
        "violations": 0,
        "similarity": 1.0,
        "exact": True,
        "iterations": 1,
        "elapsed": 0.01,
        "algorithm": "gils",
    }


class TestCacheHitReply:
    """A hit carries the same top-level keys as a miss from the same endpoint."""

    def _miss_then_hit(self, endpoint):
        async def main():
            record = {"instance": "acc", "deadline": 2.0, "max_iterations": 200}
            await endpoint.start()
            try:
                miss = await endpoint._handle_line(line("solve", "m", **record))
                hit = await endpoint._handle_line(line("solve", "h", **record))
            finally:
                await endpoint.stop()
            assert (miss["cached"], hit["cached"]) == (False, True)
            return miss, hit

        return asyncio.run(main())

    def test_server_hit_matches_miss(self):
        miss, hit = self._miss_then_hit(_build("server"))
        # only a search sets warm_started; a hit ran none
        assert set(hit) == set(miss) - {"warm_started"}
        assert hit["recovered"] is False

    def test_router_hit_matches_miss(self):
        router = _build("router")

        async def fake_sub_solve(server, tile, fields, tag):
            return _shard_answer(router.spec)

        router._sub_solve = fake_sub_solve
        miss, hit = self._miss_then_hit(router)
        assert set(hit) == set(miss)
        assert hit["fleet"] == {"shards": 2, "cached": True}

    def test_router_hit_replays_the_exactness_of_its_miss(self):
        router = _build("router")
        first, second = (shard.name for shard in router.spec.shards)

        async def fake_sub_solve(server, tile, fields, tag):
            answer = _shard_answer(router.spec)
            if tile.name == second:
                answer.update(violations=1, similarity=0.5, exact=False)
            return answer

        router._sub_solve = fake_sub_solve
        miss, hit = self._miss_then_hit(router)
        # the zero-violation tile wins the merge, but one tile's search
        # stayed approximate, so the merged answer is approximate
        assert miss["fleet"]["shard"] == first
        assert (miss["violations"], miss["exact"], miss["approximate"]) == (0, False, True)
        assert (hit["exact"], hit["approximate"]) == (miss["exact"], miss["approximate"])


def _solve_line(request_id, **fields):
    record = {"instance": "acc", "deadline": 5.0, "max_iterations": 50, **fields}
    return line("solve", request_id, **record)


def _hold_solves(endpoint, release):
    """Make every solve on ``endpoint`` wait for ``release`` before it runs."""
    if isinstance(endpoint, FleetRouter):

        async def held_sub_solve(server, tile, fields, tag):
            await release.wait()
            return _shard_answer(endpoint.spec)

        endpoint._sub_solve = held_sub_solve
        return
    run_job = endpoint._run_job

    async def held_run_job(job, timeout):
        await release.wait()
        return await run_job(job, timeout)

    endpoint._run_job = held_run_job


@pytest.mark.parametrize("kind", ["server", "router"])
class TestSolveStages:
    """The resolve, admit and lookup stages every solve crosses, on both endpoints."""

    def test_unknown_instance_is_unknown_dataset(self, kind):
        endpoint = _build(kind)
        response = asyncio.run(endpoint._handle_line(_solve_line("u", instance="nope")))
        assert response["status"] == "error"
        assert response["error"]["code"] == "unknown_dataset"
        assert endpoint.admission.admitted_total == 0
        assert endpoint.cache.stats()["misses"] == 0

    def test_second_solve_is_shed_while_one_is_in_flight(self, kind):
        endpoint = _build(kind, max_pending=1)

        async def main():
            release = asyncio.Event()
            _hold_solves(endpoint, release)
            await endpoint.start()
            try:
                held = asyncio.create_task(
                    endpoint._handle_line(_solve_line("held", cache=False))
                )
                for _ in range(500):
                    if endpoint.admission.pending:
                        break
                    await asyncio.sleep(0.01)
                assert endpoint.admission.pending == 1
                shed = await endpoint._handle_line(_solve_line("shed", cache=False))
                release.set()
                return await held, shed
            finally:
                await endpoint.stop()

        with observe(Observation(sink=MemorySink())) as obs:
            held, shed = asyncio.run(main())
        assert held["status"] == "ok"
        assert shed["status"] == "error"
        assert shed["error"]["code"] == "overloaded"
        assert shed["error"]["retryable"] is True
        assert endpoint.admission.shed_total == 1
        own, other = "service.shed", "fleet.shed"
        if kind == "router":
            own, other = other, own
        counters = obs.registry.snapshot()["counters"]
        assert counters[own] == 1
        assert other not in counters

    def test_cache_false_leaves_the_cache_untouched(self, kind):
        endpoint = _build(kind)
        release = asyncio.Event()
        release.set()
        _hold_solves(endpoint, release)

        async def main():
            await endpoint.start()
            try:
                return [
                    await endpoint._handle_line(_solve_line(f"c-{n}", cache=False))
                    for n in range(2)
                ]
            finally:
                await endpoint.stop()

        for response in asyncio.run(main()):
            assert response["status"] == "ok"
            assert response["cached"] is False
        stats = endpoint.cache.stats()
        assert (stats["hits"], stats["misses"], stats["size"]) == (0, 0, 0)
