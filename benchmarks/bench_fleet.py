"""Fleet bench — hedged tail latency and supervised recovery.

The two fleet behaviours no other measurement in the tree shows firing:

* **hedging** — with one replica host straggling on every 4th job, the
  router's duplicate sub-query to the fast replica caps the request p99
  (hedged vs unhedged on the same servers and request sequence);
* **supervised recovery** — wall-clock from killing an unreplicated
  shard to the first exact, non-degraded answer, against the
  supervisor's restart budget.

Each test asserts its own acceptance threshold; the measured values are
appended to the ledger as rows.  Plain routed latency (per-leg p50,
router overhead, request p99) is measured by ``perf/``'s
``fleet_scatter`` workload (``fleet.leg_p50_ms``,
``fleet.router_overhead_ms``, ``fleet.request_p99_ms``).
"""

from __future__ import annotations

import asyncio
import math
import threading
import time

import pytest
from conftest import record_table, scaled_int

from repro import QueryGraph, hard_instance
from repro.bench import format_table
from repro.bench.ledger import emit_sections
from repro.faults import SITE_SERVICE_JOB, FaultPlan, FaultSpec
from repro.fleet import (
    FleetHandle,
    SupervisorPolicy,
    partition_instance,
)
from repro.service import DatasetRegistry, JoinClient, JoinServer

_RESULTS: list[dict] = []


@pytest.fixture(scope="module", autouse=True)
def _flush_results():
    yield
    if not _RESULTS:
        return
    rows = [[r["section"], r["value"], r["unit"]] for r in _RESULTS]
    record_table(
        format_table(
            "Fleet bench — hedged p99 and supervised recovery",
            ["section", "value", "unit"],
            rows,
            precision=5,
        )
    )
    emit_sections("fleet", _RESULTS)


def _record(section: str, value: float, unit: str, better: str | None = None,
            meta: dict | None = None) -> None:
    _RESULTS.append({
        "section": section, "value": value, "unit": unit, "better": better,
        "meta": meta,
    })


SLOW_DELAY = 0.8
STRAGGLER_EVERY = 4
HEDGE_SAMPLES = 24

RECOVERY_POLICY = SupervisorPolicy(
    probe_interval=0.05,
    probe_timeout=0.5,
    backoff_base=0.05,
    backoff_cap=0.2,
    max_restarts=3,
)


def _percentile(samples: list[float], fraction: float) -> float:
    ordered = sorted(samples)
    index = max(0, math.ceil(fraction * len(ordered)) - 1)
    return ordered[min(index, len(ordered) - 1)]


def _run_loop(handle):
    """Run a server or fleet on its own loop thread; returns (thread, loop)."""
    started = threading.Event()
    box: dict = {}

    def runner() -> None:
        async def main() -> None:
            box["loop"] = asyncio.get_running_loop()
            await handle.start()
            started.set()
            try:
                await handle.wait_for_shutdown()
            finally:
                await handle.stop()

        asyncio.run(main())

    thread = threading.Thread(target=runner, daemon=True)
    thread.start()
    assert started.wait(120), "bench target never started"
    return thread, box["loop"]


def _timed_solves(address, instance, count, *, seed0, iterations) -> list[float]:
    """Sequential solves; per-request wall latency in seconds."""
    latencies: list[float] = []
    with JoinClient(*address) as client:
        for q in range(count):
            begun = time.perf_counter()
            response = client.request({
                "v": 1, "op": "solve", "id": f"lat-{seed0}-{q}",
                "instance": instance, "deadline": 30.0,
                "max_iterations": iterations, "cache": False,
                "seed": seed0 + q,
            })
            assert response["status"] == "ok", response
            latencies.append(time.perf_counter() - begun)
    return latencies


def test_hedging_caps_straggler_p99():
    """Hedged p99 vs unhedged p99 when one replica host is a straggler.

    Every 4th job on the second server stalls for ``SLOW_DELAY`` (a
    ``service.job`` slow fault confined to that server's process pool;
    evenly spaced so the router's latency EMA — and with it the hedge
    delay — stays near the fast-path latency instead of chasing
    straggler streaks).  Unhedged, every straggler lands in the
    request's critical path; hedged, the router's duplicate sub-query to
    the fast replica caps the tail at roughly the predicted-latency
    delay.  Same servers, same request sequence — only ``hedge``
    differs.
    """
    iterations = scaled_int(300, minimum=300)
    cardinality = scaled_int(300, minimum=300)
    instance = hard_instance(
        QueryGraph.chain(3), cardinality=cardinality, seed=6,
        target_solutions=0.05,
    )
    partition = partition_instance(instance, 2, name="hedge", replicas=2)
    straggler = FaultPlan(
        seed=11,
        specs=[FaultSpec(
            site=SITE_SERVICE_JOB, kind="slow",
            every=STRAGGLER_EVERY, delay=SLOW_DELAY,
        )],
    )
    servers: list[JoinServer] = []
    threads: list[threading.Thread] = []
    # replicas=2 over 2 servers: each hosts both tiles; the second one
    # straggles (the plan rides its process pool only, so the fast
    # server stays fast)
    for name, plan in (("hedge-shard-0", None), ("hedge-shard-1", straggler)):
        registry = DatasetRegistry()
        for tile, tile_instance in zip(partition.spec.shards, partition.instances):
            if name in tile.replica_group:
                registry.register_instance(tile.instance_name, tile_instance)
        server = JoinServer(
            registry, port=0, workers=2, executor="process", max_pending=64,
            max_deadline=120.0, fault_plan=plan,
        )
        servers.append(server)
        threads.append(_run_loop(server)[0])
    endpoints = {
        "hedge-shard-0": servers[0].address,
        "hedge-shard-1": servers[1].address,
    }
    percentiles: dict[bool, float] = {}
    try:
        for hedge in (False, True):
            fleet = FleetHandle(
                partition.spec, endpoints=endpoints, max_pending=64,
                max_deadline=120.0, hedge=hedge,
            )
            thread, _ = _run_loop(fleet)
            try:
                # train the router's latency EMA before measuring
                _timed_solves(fleet.address, "hedge", 6,
                              seed0=5000 if hedge else 1000,
                              iterations=iterations)
                samples = _timed_solves(
                    fleet.address, "hedge", HEDGE_SAMPLES,
                    seed0=6000 if hedge else 2000, iterations=iterations,
                )
            finally:
                with JoinClient(*fleet.address) as client:
                    client.shutdown()
                thread.join(timeout=120)
            percentiles[hedge] = _percentile(samples, 0.99)
    finally:
        for server, thread in zip(servers, threads):
            with JoinClient(*server.address) as client:
                client.shutdown()
            thread.join(timeout=120)
    unhedged_p99 = percentiles[False]
    hedged_p99 = percentiles[True]
    meta = {"samples": HEDGE_SAMPLES, "iterations": iterations,
            "cardinality": cardinality, "slow_delay": SLOW_DELAY,
            "straggler_every": STRAGGLER_EVERY}
    _record("fleet_unhedged_p99", unhedged_p99, "s", better="lower", meta=meta)
    _record("fleet_hedged_p99", hedged_p99, "s", better="lower", meta=meta)
    # informational (better=None): the ratio inherits the unhedged tail's
    # wall-clock variance — the 0.8x assertion below is the tripwire
    _record("fleet_hedge_p99_speedup", unhedged_p99 / hedged_p99, "x",
            meta=meta)
    assert unhedged_p99 >= SLOW_DELAY, (
        f"straggler plan never fired: unhedged p99 {unhedged_p99:.3f}s"
    )
    assert hedged_p99 <= 0.8 * unhedged_p99, (
        f"hedging must cap the straggler tail: hedged p99 "
        f"{hedged_p99:.3f}s vs unhedged {unhedged_p99:.3f}s"
    )


def test_supervised_fleet_restores_exact_within_budget():
    """Wall-clock from kill to the first exact, non-degraded answer.

    ``replicas=1`` so the killed tile is genuinely unanswerable until
    the supervisor respawns it — the measured time is detection (probe
    interval) + backoff + reload, the recovery SLO of
    ``docs/robustness.md``.
    """
    cardinality = scaled_int(240, minimum=240)
    instance = hard_instance(
        QueryGraph.chain(3), cardinality=cardinality, seed=2,
        target_solutions=8.0,
    )
    partition = partition_instance(instance, 2, name="heal")
    fleet = FleetHandle(
        partition.spec, instances=partition.instances, executor="thread",
        workers=1, max_deadline=120.0, supervise=True,
        supervisor_policy=RECOVERY_POLICY,
    )
    thread, loop = _run_loop(fleet)
    try:
        def solve(seed: int, ident: str) -> dict:
            with JoinClient(*fleet.address) as client:
                return client.request({
                    "v": 1, "op": "solve", "id": ident, "instance": "heal",
                    "deadline": 10.0, "max_iterations": 20_000,
                    "cache": False, "seed": seed,
                })

        baseline = solve(7, "heal-baseline")
        assert baseline["status"] == "ok" and baseline["exact"], baseline

        asyncio.run_coroutine_threadsafe(
            fleet.stop_shard("heal-shard-1"), loop
        ).result(timeout=30)
        begun = time.perf_counter()
        recovery = None
        attempt = 0
        while time.perf_counter() - begun < 30.0:
            response = solve(7, f"heal-probe-{attempt}")
            attempt += 1
            if (response["status"] == "ok" and response["exact"]
                    and not response["fleet"]["degraded"]):
                recovery = time.perf_counter() - begun
                assert response["violations"] == baseline["violations"]
                assert response["assignment"] == baseline["assignment"]
                break
            time.sleep(0.02)
        assert recovery is not None, "fleet never healed back to exact"
    finally:
        with JoinClient(*fleet.address) as client:
            client.shutdown()
        thread.join(timeout=120)
    meta = {"cardinality": cardinality, "replicas": 1,
            "policy": RECOVERY_POLICY.to_dict()}
    _record("fleet_recovery_time", recovery, "s", better="lower", meta=meta)
    # detection + full backoff budget + one generous solve round-trip
    assert recovery <= RECOVERY_POLICY.budget() + 5.0, (
        f"exact answers took {recovery:.2f}s to come back "
        f"(budget {RECOVERY_POLICY.budget():.2f}s)"
    )
