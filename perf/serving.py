"""The two server workloads: CLI subprocesses driven over loopback.

``service_mix`` launches ``repro.cli serve`` and keeps ``service.protocol``,
``service.cache``, ``service.admission`` and worker dispatch busy with tiny
solves; ``fleet_scatter`` launches ``repro.cli fleet serve`` and adds the
router's plan/scatter/merge and a second ``service`` pass per leg.  The
servers run in their own process group: the load generator shares no
interpreter lock with them, stops them through the protocol, and fails the
run if a process or a shared-memory segment outlives them.
"""

from __future__ import annotations

import itertools
import json
import os
import random
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path
from typing import Any

from repro import (
    ProblemInstance,
    QueryEvaluator,
    QueryGraph,
    density_for_solutions,
    hard_instance,
    save_npz,
    uniform_dataset,
)
from repro.query.io import save_instance
from repro.service import JoinClient

from check import Mirror, hit_matches_miss, response_ok
from library import Outcome, median, percentile

__all__ = [
    "ServiceMix",
    "FleetScatter",
    "ServerProcess",
    "descendants",
    "peak_rss_mb",
    "shm_segments",
    "stop_descendants",
]

SRC = Path(__file__).resolve().parent.parent / "src"
_READY_TIMEOUT_S = 60.0
_STOP_TIMEOUT_S = 20.0
#: far above any op here, so iteration budgets — never deadlines — end solves
_DEADLINE_S = 30.0
#: the warm-up request's seed: outside every op list, so no op hits its entry
_WARMUP_SEED = 999_999


# ----------------------------------------------------------------------
# process hygiene
# ----------------------------------------------------------------------
def _live_processes() -> dict[int, tuple[int, int]]:
    """``{pid: (parent pid, process group)}`` of every live process."""
    table: dict[int, tuple[int, int]] = {}
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            stat = Path("/proc", entry, "stat").read_text()
        except OSError:
            continue  # exited while we were listing
        # the command name may hold spaces and parentheses: split after it
        fields = stat[stat.rindex(")") + 2 :].split()
        if fields[0] != "Z":  # a zombie awaiting its reaper holds no resources
            table[int(entry)] = (int(fields[1]), int(fields[2]))
    return table


def descendants() -> list[int]:
    """Live pids whose ancestor chain reaches this process."""
    table = _live_processes()
    found, frontier = [], [os.getpid()]
    while frontier:
        parent = frontier.pop()
        children = [pid for pid, (ppid, _group) in table.items() if ppid == parent]
        found.extend(children)
        frontier.extend(children)
    return found


def stop_descendants(patience_s: float = 5.0) -> list[int]:
    """Leave no process behind: the last thing every path out of a run does.

    ``multiprocessing.shared_memory`` (the warm-plane probe publishes through
    it) starts a resource-tracker child of *this* process that only exits
    when our end of its pipe closes, i.e. a moment after we are gone — so it
    is stopped and waited for here.  Anything else still alive is given
    ``patience_s`` to end, then killed.  Returns the pids that had to be killed.
    """
    from multiprocessing import resource_tracker

    tracker = resource_tracker._resource_tracker
    if getattr(tracker, "_pid", None) is not None:
        try:
            tracker._stop()  # closes the pipe and waits for the tracker to exit
        except Exception:
            pass  # whatever is left of it is killed below
    give_up = time.monotonic() + patience_s
    while (alive := descendants()) and time.monotonic() < give_up:
        time.sleep(0.02)
    for pid in alive:
        try:
            os.kill(pid, signal.SIGKILL)
        except OSError:
            pass
    give_up = time.monotonic() + patience_s
    while descendants() and time.monotonic() < give_up:
        time.sleep(0.02)
    return alive


def peak_rss_mb() -> tuple[float, int]:
    """Sum of ``VmHWM`` over this process and every live descendant, and
    how many processes that was."""
    total_kb, counted = 0, 0
    for pid in [os.getpid(), *descendants()]:
        try:
            status = Path("/proc", str(pid), "status").read_text()
        except OSError:
            continue
        for line in status.splitlines():
            if line.startswith("VmHWM:"):
                total_kb += int(line.split()[1])
                counted += 1
                break
    return total_kb / 1024.0, counted


def shm_segments(pids: set[int]) -> set[str]:
    """Shared-memory segments published by any of ``pids``: the program
    names its segments ``repro-<pid>-<counter>-<tag>``."""
    try:
        names = os.listdir("/dev/shm")
    except OSError:
        return set()
    owned = set()
    for name in names:
        parts = name.split("-")
        if len(parts) >= 3 and parts[0] == "repro" and parts[1].isdigit() and int(parts[1]) in pids:
            owned.add(name)
    return owned


class ServerProcess:
    """One ``python -m repro.cli …`` server in its own process group."""

    def __init__(self, arguments: list[str]) -> None:
        self.lines: list[str] = []
        self.port = 0
        #: every pid seen in the server's process group: only segments one
        #: of these published are the server's to leak, or ours to unlink
        self._pids: set[int] = set()
        environment = dict(os.environ, PYTHONPATH=str(SRC), PYTHONUNBUFFERED="1")
        self.process = subprocess.Popen(
            [sys.executable, "-m", "repro.cli", *arguments],
            stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT,
            text=True,
            env=environment,
            start_new_session=True,
        )
        self._ready = threading.Event()
        self._reader = threading.Thread(target=self._drain, daemon=True)
        self._reader.start()
        try:
            if not self._ready.wait(_READY_TIMEOUT_S) or self.port == 0:
                raise RuntimeError(
                    "server did not print its ready line:\n" + "\n".join(self.lines)
                )
            self._group_members()
        except BaseException:
            self.kill()
            raise

    def _drain(self) -> None:
        assert self.process.stdout is not None
        for line in self.process.stdout:
            line = line.rstrip("\n")
            self.lines.append(line)
            if line.startswith("ready ") and "port=" in line:
                self.port = int(line.rsplit("port=", 1)[1])
                self._ready.set()
        self._ready.set()  # EOF before ready: wake the waiter, port stays 0

    def shard_ports(self) -> dict[str, int]:
        """``{shard name: port}`` from ``fleet serve``'s ``shard launched`` lines."""
        ports = {}
        for line in self.lines:
            if line.startswith("shard launched "):
                fields = dict(part.split("=", 1) for part in line.split()[2:])
                ports[fields["name"]] = int(fields["port"])
        return ports

    def stop(self) -> dict[str, int]:
        """Protocol shutdown, then the hygiene check; kills the group on failure.

        Returns ``{"leaked_processes": n, "leaked_segments": m}``.
        """
        self._group_members()
        try:
            with JoinClient(port=self.port, timeout=_STOP_TIMEOUT_S) as client:
                client.shutdown()
            self.process.wait(_STOP_TIMEOUT_S)
        except (OSError, subprocess.TimeoutExpired):
            self.kill()
            raise
        self._reader.join(_STOP_TIMEOUT_S)
        # helpers of the exited server (pool workers, multiprocessing's
        # resource tracker) notice its exit a moment later
        give_up = time.monotonic() + _STOP_TIMEOUT_S
        while (survivors := self._group_members()) and time.monotonic() < give_up:
            time.sleep(0.02)
        leaked_segments = shm_segments(self._pids)
        if survivors:
            self.kill()
        return {
            "leaked_processes": len(survivors),
            "leaked_segments": len(leaked_segments),
        }

    def _group_members(self) -> list[int]:
        """Live processes still in the server's process group — found by
        group, because an orphaned pool worker is re-parented away from us."""
        group = self.process.pid
        members = [pid for pid, (_ppid, pgrp) in _live_processes().items() if pgrp == group]
        self._pids.update(members)
        return members

    def kill(self) -> None:
        self._group_members()
        try:
            os.killpg(self.process.pid, signal.SIGKILL)
        except OSError:
            pass
        try:
            self.process.wait(_STOP_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            pass
        # a killed server cannot unlink what it published: do it for it, so
        # the benchmark is never the cause of a leaked segment
        for name in shm_segments(self._pids):
            try:
                os.unlink(os.path.join("/dev/shm", name))
            except OSError:
                pass


# ----------------------------------------------------------------------
# shared pieces of the two workloads
# ----------------------------------------------------------------------
#: small enough that dispatch, not the solve, is most of a miss
SERVING_N = 1_000
#: 15 join conditions, so one answer's similarity moves in steps of 1/15
SERVING_VARIABLES = 6
#: expected exact solutions per query at generation: over-constrained, so a
#: solve (almost) never meets an exact answer and spends its whole budget
SERVING_TARGET_SOLUTIONS = 0.05
_WARMUP_ORDER = list(range(SERVING_VARIABLES))


def _overconstrained_instance(rng: random.Random) -> tuple[Any, Mirror]:
    """A clique instance without any exact solution (checked by the oracle)."""
    while True:
        instance = hard_instance(
            QueryGraph.clique(SERVING_VARIABLES),
            SERVING_N,
            seed=rng.randrange(2**31),
            target_solutions=SERVING_TARGET_SOLUTIONS,
        )
        mirror = Mirror.of(instance)
        if not mirror.exact_solutions():
            return instance, mirror


class _Served:
    """Lifecycle shared by the two server workloads."""

    #: a served set-up takes about a second, most of it process start-up,
    #: which the host's scheduling moves by ±20 %: take the median of more
    setup_repeats = 7

    def __init__(self, seed: int, workdir: Path) -> None:
        self.seed = seed
        self.rng_seed = f"{self.name}:{seed}"  # type: ignore[attr-defined]
        self.workdir = workdir
        self.server: ServerProcess | None = None
        #: the (first) instance the benchmark generated, for the layer probes
        self.instance: Any = None
        #: the server's ``stats`` payload, read just before shutdown
        self.stats: dict = {}
        #: leaked processes / segments found after shutdown
        self.hygiene: dict = {}

    def close(self) -> None:
        """Stats, protocol shutdown and the hygiene check."""
        if self.server is None:
            return
        server, self.server = self.server, None
        try:
            with JoinClient(port=server.port, timeout=_STOP_TIMEOUT_S) as client:
                self.stats = client.stats()
        except OSError:
            server.kill()
            raise
        self.hygiene = server.stop()

    def abort(self) -> None:
        if self.server is not None:
            self.server.kill()
            self.server = None

    def probe_instance(self) -> tuple[Any, QueryEvaluator]:
        return self.instance, QueryEvaluator(self.instance)


def _run_connections(
    port: int, op_lists: list[list[dict]], rec: Any
) -> tuple[list[Outcome], float]:
    """One closed-loop connection per op list, all released together.

    Returns the outcomes, one connection after the other, and the wall time
    in seconds from the release to the last connection's last answer.
    """
    outcomes: list[list[Outcome]] = [[] for _ in op_lists]
    clients = [JoinClient(port=port, timeout=_DEADLINE_S * 2) for _ in op_lists]
    barrier = threading.Barrier(len(op_lists) + 1)
    clock = time.perf_counter
    failures: list[BaseException] = []

    def drive(connection: int) -> None:
        client, sink = clients[connection], outcomes[connection]
        barrier.wait()
        try:
            for index, op in enumerate(op_lists[connection]):
                op_id = connection * 1_000_000 + index
                with rec.span("op", op_id):
                    begin = clock()
                    try:
                        with rec.span("client.solve", op_id):
                            answer = client.solve(check=False, **op["fields"])
                    except (OSError, ValueError) as error:
                        answer = {"status": "error", "error": {"message": str(error)}}
                        client.reconnect()
                    elapsed = clock() - begin
                sink.append(Outcome(op["kind"], elapsed * 1e3, answer))
        except BaseException as error:  # noqa: BLE001 - reported by the caller
            failures.append(error)

    threads = [
        threading.Thread(target=drive, args=(connection,))
        for connection in range(len(op_lists))
    ]
    for thread in threads:
        thread.start()
    barrier.wait()
    started = clock()
    for thread in threads:
        thread.join()
    wall = clock() - started
    for client in clients:
        client.close()
    if failures:
        raise failures[0]
    return [o for lane in outcomes for o in lane], wall


# ----------------------------------------------------------------------
# service_mix
# ----------------------------------------------------------------------
SERVICE_CONNECTIONS = 2
SERVICE_WORKERS = 2
#: each connection owns a pool of datasets and asks clique joins over
#: 6-subsets of it — 84 distinct queries, so one query's cached answer does
#: not warm-start the others and the mean similarity is an average over
#: queries instead of one query's best-ever answer
SERVICE_POOL = 9
SERVICE_HOT_KEYS = 64
SERVICE_MISS_ITERATIONS = 20
#: a round is 100 ops in seeded order: 70 on the hot set, 30 unique misses
SERVICE_ROUND_HOT = 70
SERVICE_ROUND_MISS = 30
#: rounds per connection: about ``run_seconds`` on the seed host
SERVICE_ROUNDS = 20


class ServiceMix(_Served):
    """Cache hits (half of them isomorphic relabellings) and tiny misses."""

    name = "service_mix"

    def __init__(self, seed: int, workdir: Path) -> None:
        super().__init__(seed, workdir)
        self.mirrors: list[Mirror] = []
        self.cold_first_request_ms = 0.0
        self._warmup: list = []

    # -- set-up ---------------------------------------------------------
    def setup(self, rec: Any, trace_path: Path | None = None) -> None:
        rng = random.Random(self.rng_seed + ":instances")
        query = QueryGraph.clique(SERVING_VARIABLES)
        density = density_for_solutions(query, SERVING_N, SERVING_TARGET_SOLUTIONS)
        arguments = ["serve", "--workers", str(SERVICE_WORKERS), "--port", "0"]
        self.mirrors = []
        for connection in range(SERVICE_CONNECTIONS):
            pool = []
            for member in range(SERVICE_POOL):
                name = _dataset_name(connection, member)
                with rec.span("data.uniform_dataset"):
                    dataset = uniform_dataset(SERVING_N, density, rng, name=name)
                path = self.workdir / f"{name}.npz"
                with rec.span("data.save_npz"):
                    save_npz(dataset, path)
                arguments += ["--dataset", f"{name}={path}"]
                pool.append(dataset)
            if connection == 0:
                self.instance = ProblemInstance(
                    query=query, datasets=pool[:SERVING_VARIABLES], density=density
                )
            edges = [(i, j) for i, j, _predicate in query.edges()]
            self.mirrors.append(Mirror([dataset.rects for dataset in pool], edges))
        if trace_path is not None:
            arguments += ["--trace", str(trace_path)]
        with rec.span("service.start"):
            self.server = ServerProcess(arguments)
        with rec.span("service.warmup_op"):
            self._warmup = []
            with JoinClient(port=self.server.port, timeout=_DEADLINE_S * 2) as client:
                begin = time.perf_counter()
                for connection in range(SERVICE_CONNECTIONS):
                    fields = self._fields(connection, _WARMUP_SEED, _WARMUP_ORDER)
                    self._warmup.append(client.solve(check=False, **fields))
                    if connection == 0:
                        self.cold_first_request_ms = (time.perf_counter() - begin) * 1e3

    def finish_setup(self) -> None:
        for mirror, response in zip(self.mirrors, self._warmup):
            if not response_ok(mirror.relabelled(_WARMUP_ORDER), response):
                raise RuntimeError(f"service_mix: warm-up answer failed: {response}")

    # -- ops ------------------------------------------------------------
    def _fields(self, connection: int, seed: int, order: list[int]) -> dict:
        return {
            "query": {"type": "clique", "variables": SERVING_VARIABLES},
            "datasets": [_dataset_name(connection, member) for member in order],
            "seed": seed,
            "max_iterations": SERVICE_MISS_ITERATIONS,
            "deadline": _DEADLINE_S,
        }

    def ops(self) -> list[list[dict]]:
        """One op list per connection.

        ``hot`` ops draw from 64 hot keys — one query (a 6-subset of the
        pool) and seed each — and are cache hits after the first touch; half
        of them name the datasets in a permuted order, so they hit only
        through the canonical query key.  ``miss`` ops carry a seed used
        once on a random query: a full lookup → admit → dispatch → solve →
        store pass that churns the server's 256-entry LRU and may be
        warm-started from an earlier answer to the same query.
        """
        queries = list(itertools.combinations(range(SERVICE_POOL), SERVING_VARIABLES))
        op_lists = []
        for connection in range(SERVICE_CONNECTIONS):
            rng = random.Random(f"{self.rng_seed}:ops:{connection}")
            hot_keys = rng.sample(queries, SERVICE_HOT_KEYS)
            kinds = []
            for _ in range(SERVICE_ROUNDS):
                this_round = ["hot"] * SERVICE_ROUND_HOT + ["miss"] * SERVICE_ROUND_MISS
                rng.shuffle(this_round)
                kinds.extend(this_round)
            ops = []
            for index, kind in enumerate(kinds):
                if kind == "hot":
                    seed = rng.randrange(SERVICE_HOT_KEYS)
                    order = list(hot_keys[seed])
                    if rng.random() < 0.5:
                        rng.shuffle(order)
                else:
                    seed, order = 1_000 + index, list(rng.choice(queries))
                ops.append(
                    {
                        "kind": kind,
                        "connection": connection,
                        "seed": seed,
                        "order": order,
                        "fields": self._fields(connection, seed, order),
                    }
                )
            op_lists.append(ops)
        return op_lists

    def run(self, op_lists: list, rec: Any) -> tuple[list[Outcome], float]:
        assert self.server is not None
        return _run_connections(self.server.port, op_lists, rec)

    # -- checks ---------------------------------------------------------
    def verify(self, outcomes: list[Outcome], op_lists: list) -> None:
        ops = [op for ops in op_lists for op in ops]
        verify_responses(outcomes, ops, self.mirrors, exact_iff_zero=True)

    def layer_metrics(self, outcomes: list[Outcome]) -> dict[str, tuple[float, int]]:
        """Client-side timing per op type, plus the ``stats`` op read before
        shutdown (call after :meth:`close`)."""
        hits = [o.ms for o in outcomes if o.ok and o.kind == "hit"]
        misses = [o for o in outcomes if o.ok and o.kind == "miss"]
        cache, admission = self.stats["cache"], self.stats["admission"]
        lookups = cache["hits"] + cache["misses"]
        return {
            "service.hit_p50_ms": (median(hits), len(hits)),
            "service.miss_p50_ms": (median(o.ms for o in misses), len(misses)),
            "service.miss_p99_ms": (percentile([o.ms for o in misses], 0.99), len(misses)),
            "service.dispatch_overhead_ms": (
                median(o.ms - o.detail["solve_ms"] for o in misses), len(misses)
            ),
            "service.cold_first_request_ms": (self.cold_first_request_ms, 1),
            "service.cache_hit_ratio": (cache["hits"] / lookups if lookups else 0.0, lookups),
            "service.cache_evictions": (float(cache["evictions"]), 1),
            "service.near_hits": (float(cache["near_hits"]), 1),
            "service.shed_total": (float(admission["shed_total"]), 1),
            "service.pool_rebuilds": (float(self.stats["pool_rebuilds"]), 1),
            "warm.segments_leaked": (float(self.hygiene["leaked_segments"]), 1),
        }


def _dataset_name(connection: int, member: int) -> str:
    return f"c{connection}d{member}"


def verify_responses(
    outcomes: list[Outcome], ops: list[dict], mirrors: list[Mirror], exact_iff_zero: bool
) -> None:
    """Check every response on the requester's view of the benchmark's copy;
    a ``cached`` answer must also equal the miss that stored it."""
    stored: dict[tuple, tuple[dict, list[int]]] = {}
    for outcome, op in zip(outcomes, ops):
        response = outcome.answer
        mirror = mirrors[op["connection"]].relabelled(op["order"])
        outcome.ok = response_ok(mirror, response, exact_iff_zero)
        if not outcome.ok:
            continue
        outcome.similarity = response["similarity"]
        key = (op["connection"], tuple(sorted(op["order"])), op["seed"])
        if response["cached"]:
            outcome.kind = "hit"
            miss = stored.get(key)
            outcome.ok = miss is not None and hit_matches_miss(
                response, op["order"], miss[0], miss[1]
            )
        else:
            outcome.kind = "miss"
            stored[key] = (response, op["order"])
            outcome.detail = {"solve_ms": response["elapsed"] * 1e3}


# ----------------------------------------------------------------------
# fleet_scatter
# ----------------------------------------------------------------------
FLEET_SHARDS = 2
FLEET_WORKERS = 1
FLEET_ITERATIONS = 40
#: scatters, all alike: about ``run_seconds`` on the seed host
FLEET_OPS = 1_000
FLEET_NAME = "fleet"


class FleetScatter(_Served):
    """Unique-seed scatters over two shards."""

    name = "fleet_scatter"

    def __init__(self, seed: int, workdir: Path) -> None:
        super().__init__(seed, workdir)
        self.mirror: Mirror | None = None
        self.partition_s = 0.0
        #: client-side latencies taken by :meth:`probe_routing` (traced run)
        self.leg_ms: list[float] = []
        self.router_hit_ms: list[float] = []
        self._warmup: Any = None

    # -- set-up ---------------------------------------------------------
    def setup(self, rec: Any, trace_path: Path | None = None) -> None:
        rng = random.Random(self.rng_seed + ":instances")
        with rec.span("query.hard_instance"):
            instance, self.mirror = _overconstrained_instance(rng)
        self.instance = instance
        instance_dir = self.workdir / "instance"
        fleet_dir = self.workdir / "fleet"
        with rec.span("query.save_instance"):
            save_instance(instance, instance_dir)
        with rec.span("fleet.partition"):
            begin = time.perf_counter()
            subprocess.run(
                [
                    sys.executable, "-m", "repro.cli", "fleet", "partition",
                    str(instance_dir), "--out", str(fleet_dir),
                    "--shards", str(FLEET_SHARDS), "--name", FLEET_NAME,
                ],
                check=True,
                stdout=subprocess.DEVNULL,
                env=dict(os.environ, PYTHONPATH=str(SRC)),
            )
            self.partition_s = time.perf_counter() - begin
        arguments = [
            "fleet", "serve", "--fleet", str(fleet_dir),
            "--workers", str(FLEET_WORKERS), "--port", "0",
        ]
        if trace_path is not None:
            arguments += ["--trace", str(trace_path)]
        with rec.span("fleet.start"):
            self.server = ServerProcess(arguments)
        with rec.span("fleet.warmup_op"):
            with JoinClient(port=self.server.port, timeout=_DEADLINE_S * 2) as client:
                self._warmup = client.solve(check=False, **self._fields(_WARMUP_SEED))

    def finish_setup(self) -> None:
        if not response_ok(self.mirror, self._warmup, exact_iff_zero=False):
            raise RuntimeError(f"fleet_scatter: warm-up answer failed: {self._warmup}")

    def shard_instances(self) -> dict[str, str]:
        """``{shard name: instance name}`` from the manifest ``fleet partition`` wrote."""
        manifest = json.loads((self.workdir / "fleet" / "fleet.json").read_text())
        return {shard["name"]: shard["instance_name"] for shard in manifest["shards"]}

    # -- ops ------------------------------------------------------------
    def _fields(self, seed: int, cache: bool = False) -> dict:
        return {
            "instance": FLEET_NAME,
            "seed": seed,
            "max_iterations": FLEET_ITERATIONS,
            "deadline": _DEADLINE_S,
            "cache": cache,
        }

    def ops(self) -> list[list[dict]]:
        """One connection of scatters, each with a seed used once and
        ``cache: false``.

        The fleet serves one query, and with caching on the shards
        warm-start every solve of it from the best answer they hold: the
        mean similarity would then be one instance's record, a single draw
        per run, not a mean over ops.  Uncached, every leg is a cold solve.
        The router cache's hit path is timed by :meth:`probe_routing`.
        """
        rng = random.Random(self.rng_seed + ":ops")
        return [
            [
                {
                    "kind": "scatter",
                    "connection": 0,
                    "seed": seed,
                    "order": list(range(SERVING_VARIABLES)),
                    "fields": self._fields(seed),
                }
                for seed in rng.sample(range(1_000, 1_000_000), FLEET_OPS)
            ]
        ]

    def run(self, op_lists: list, rec: Any) -> tuple[list[Outcome], float]:
        assert self.server is not None
        return _run_connections(self.server.port, op_lists, rec)

    def probe_routing(self, count: int = 200) -> None:
        """Two client-side timings taken while the fleet is up: the
        sub-request a scatter sends, sent straight to each shard port (what
        one leg costs without the router), and a repeated cached request to
        the router (what its cache hit costs)."""
        assert self.server is not None
        ports, instances = self.server.shard_ports(), self.shard_instances()
        self.leg_ms = []
        for shard, port in sorted(ports.items()):
            with JoinClient(port=port, timeout=_DEADLINE_S * 2) as client:
                for index in range(count):
                    begin = time.perf_counter()
                    client.solve(
                        instance=instances[shard],
                        seed=500_000 + index,
                        max_iterations=-(-FLEET_ITERATIONS // FLEET_SHARDS),
                        deadline=_DEADLINE_S,
                        cache=False,
                    )
                    self.leg_ms.append((time.perf_counter() - begin) * 1e3)
        self.router_hit_ms = []
        with JoinClient(port=self.server.port, timeout=_DEADLINE_S * 2) as client:
            fields = self._fields(_WARMUP_SEED, cache=True)
            client.solve(**fields)  # the miss that stores the entry
            for _ in range(count):
                begin = time.perf_counter()
                response = client.solve(**fields)
                if response["cached"]:
                    self.router_hit_ms.append((time.perf_counter() - begin) * 1e3)

    # -- checks ---------------------------------------------------------
    def verify(self, outcomes: list[Outcome], op_lists: list) -> None:
        """Fleet answers arrive in global object ids: checked on the whole
        instance, not on a shard's slice of it."""
        verify_responses(outcomes, op_lists[0], [self.mirror], exact_iff_zero=False)
        for outcome in outcomes:
            if outcome.ok and outcome.kind == "miss":
                fleet = outcome.answer.get("fleet", {})
                outcome.detail["degraded"] = bool(fleet.get("degraded"))
                outcome.detail["hedged"] = bool(fleet.get("hedged"))

    def layer_metrics(self, outcomes: list[Outcome]) -> dict[str, tuple[float, int]]:
        scatters = [o for o in outcomes if o.ok and o.kind == "miss"]
        answered = [o.ms for o in outcomes if o.ok]
        leg_p50 = median(self.leg_ms)
        return {
            "fleet.partition_s": (self.partition_s, 1),
            "fleet.leg_p50_ms": (leg_p50, len(self.leg_ms)),
            "fleet.router_overhead_ms": (
                median(o.ms for o in scatters) - leg_p50 if self.leg_ms else 0.0,
                len(scatters),
            ),
            "fleet.request_p99_ms": (percentile(answered, 0.99), len(answered)),
            "fleet.router_hit_p50_ms": (median(self.router_hit_ms), len(self.router_hit_ms)),
            "fleet.degraded_share": (
                sum(o.detail["degraded"] for o in scatters) / max(1, len(scatters)),
                len(scatters),
            ),
            "fleet.hedged_share": (
                sum(o.detail["hedged"] for o in scatters) / max(1, len(scatters)),
                len(scatters),
            ),
            "warm.segments_leaked": (float(self.hygiene["leaked_segments"]), 1),
        }
