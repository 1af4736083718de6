"""The shard supervisor: watchdog + respawn for self-healing fleets.

A fleet that merely *degrades* when a shard dies loses the tile's data
forever — every answer touching that region stays ``approximate`` for
the rest of the fleet's life.  :class:`ShardSupervisor` closes the loop:

1. **Watch** — a background task probes every shard server each
   :attr:`~SupervisorPolicy.probe_interval` seconds: a protocol ``ping``
   through :func:`~repro.service.client.exchange` on a fresh connection
   to the server's current endpoint (so a respawn's new port is probed
   from the next round on) plus, for externally launched shards with a
   known pid, an ``os.kill(pid, 0)`` liveness check.  A failed
   probe marks the server down in the router
   (:meth:`~repro.fleet.router.FleetRouter.mark_down`), so planning
   routes around it immediately; a successful probe of a down server
   rejoins it via
   :meth:`~repro.fleet.router.FleetRouter.update_endpoint`.
2. **Respawn** — a server that stays down gets a respawn task: rebuild
   its :class:`~repro.service.registry.DatasetRegistry` from the
   persisted partition manifest (``load_shard_instance``, off the event
   loop) or from in-memory instances, start a fresh
   :class:`~repro.service.server.JoinServer` on an ephemeral port (the
   warm plane re-publishes its shared-memory segments inside
   ``start()``), and swap the new endpoint into the router.  Respawns
   back off exponentially and stop after
   :attr:`~SupervisorPolicy.max_restarts` failed attempts — a bounded
   restart budget, not a crash loop.  Every attempt crosses the
   :data:`~repro.faults.SITE_FLEET_RESPAWN` fault site so chaos plans
   can make the *respawn itself* fail.

The recovery SLO follows directly: after a shard loss, exact answers
are restored within one probe interval plus the backoff schedule —
:meth:`SupervisorPolicy.budget` is that worst-case window.

The supervisor is deliberately *router-process local*: it owns the
servers it respawns (a killed external shard is revived in-process from
the same manifest — same tiles, same data, byte-identical answers) and
reports per-server state through :meth:`status`, which the router
exposes under ``stats()["fleet"]["supervisor"]``.
"""

from __future__ import annotations

import asyncio
import os
from dataclasses import dataclass
from typing import Any, Callable

from ..faults import SITE_FLEET_RESPAWN, fault_delay
from ..obs import current
from ..query.hardness import ProblemInstance
from ..service.client import exchange
from ..service.protocol import PROTOCOL_VERSION
from ..service.registry import DatasetRegistry
from ..service.server import JoinServer
from .partition import FleetSpec, load_shard_instance
from .router import FleetRouter

__all__ = ["ShardSupervisor", "SupervisorPolicy"]

#: server states reported by :meth:`ShardSupervisor.status`
_UP = "up"
_RESPAWNING = "respawning"
_GAVE_UP = "gave_up"


@dataclass(frozen=True)
class SupervisorPolicy:
    """Watchdog cadence and the bounded restart budget.

    ``backoff_base · 2^attempt`` (capped at ``backoff_cap``) seconds
    pass before respawn attempt ``attempt``; after ``max_restarts``
    failed attempts in one down episode the server is abandoned
    (``gave_up``) rather than crash-looped.  A successful respawn resets
    the episode, so a later loss gets a fresh budget.
    """

    probe_interval: float = 0.25
    probe_timeout: float = 0.75
    backoff_base: float = 0.2
    backoff_cap: float = 2.0
    max_restarts: int = 3

    def __post_init__(self) -> None:
        if self.probe_interval <= 0:
            raise ValueError(f"probe_interval must be > 0, got {self.probe_interval}")
        if self.max_restarts < 1:
            raise ValueError(f"max_restarts must be >= 1, got {self.max_restarts}")

    def backoff(self, attempt: int) -> float:
        """Seconds to wait before respawn attempt ``attempt`` (0-based)."""
        return min(self.backoff_cap, self.backoff_base * (2.0**attempt))

    def budget(self) -> float:
        """Worst-case seconds of backoff before the supervisor gives up.

        This is the recovery SLO window documented in
        ``docs/robustness.md``: exact answers return within one probe
        interval plus this budget (plus the respawned server's startup).
        """
        return sum(self.backoff(attempt) for attempt in range(self.max_restarts))

    def to_dict(self) -> dict[str, Any]:
        return {
            "probe_interval": self.probe_interval,
            "probe_timeout": self.probe_timeout,
            "backoff_base": self.backoff_base,
            "backoff_cap": self.backoff_cap,
            "max_restarts": self.max_restarts,
            "budget": self.budget(),
        }


class ShardSupervisor:
    """Per-fleet watchdog that respawns dead shard servers.

    Parameters
    ----------
    spec:
        The fleet manifest; respawns rebuild a server's hosted tiles
        from it (:meth:`~repro.fleet.partition.FleetSpec.hosted_tiles`).
    router:
        The fleet's router — health signal in (``down_servers``), fresh
        endpoints out (``update_endpoint``).
    policy:
        Cadence + restart budget (defaults are test-friendly).
    server_kwargs:
        Keyword arguments for respawned :class:`JoinServer` instances
        (``workers``, ``executor``, ``warm`` …) — a launched fleet passes
        its own shard knobs so a respawn is a like-for-like replacement.
    instances:
        Optional in-memory instances parallel to ``spec.shards``; tiles
        missing here load from their persisted ``instance_dir``.  A
        purely in-memory fleet (no ``save_partition``) *must* pass this
        or respawns fail with the tiles' missing-directory error.
    pids:
        ``{server_name: pid}`` of externally launched shard processes;
        liveness is checked with ``os.kill(pid, 0)`` so a ``kill -9``'d
        shard is detected even before its next failed ping.  Once the
        supervisor revives a server in-process the stale pid is dropped.
    log:
        Line sink for supervisor events (default: silently dropped);
        the CLI passes a flushing printer so operators see respawns.
    """

    def __init__(
        self,
        spec: FleetSpec,
        router: FleetRouter,
        *,
        policy: SupervisorPolicy | None = None,
        server_kwargs: dict[str, Any] | None = None,
        instances: list[ProblemInstance] | None = None,
        pids: dict[str, int] | None = None,
        log: Callable[[str], None] | None = None,
    ) -> None:
        if instances is not None and len(instances) != len(spec.shards):
            raise ValueError(
                f"{len(spec.shards)} shards but {len(instances)} instances"
            )
        self.spec = spec
        self.router = router
        self.policy = policy or SupervisorPolicy()
        self._server_kwargs = dict(server_kwargs or {})
        self._instances = (
            {
                shard.name: instance
                for shard, instance in zip(spec.shards, instances)
            }
            if instances is not None
            else {}
        )
        self.pids = dict(pids or {})
        self._log = log or (lambda line: None)
        self._state: dict[str, str] = {name: _UP for name in spec.server_names}
        self._restarts: dict[str, int] = {name: 0 for name in spec.server_names}
        self._failed: dict[str, int] = {name: 0 for name in spec.server_names}
        #: monotonic respawn counter — the ``fleet.respawn`` fault index
        self._respawns = 0
        #: servers this supervisor started and therefore owns
        self._owned: dict[str, JoinServer] = {}
        self._respawn_tasks: dict[str, asyncio.Task[None]] = {}
        self._watch_task: asyncio.Task[None] | None = None

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    async def start(self) -> None:
        """Start the watch loop (idempotent)."""
        if self._watch_task is None:
            self._watch_task = asyncio.create_task(self._watch())
            self._log("supervisor: watching "
                      f"{len(self._state)} servers "
                      f"(budget {self.policy.budget():.2f}s)")

    async def stop(self) -> None:
        """Cancel watch/respawn tasks and stop every owned server."""
        tasks = [self._watch_task, *self._respawn_tasks.values()]
        self._watch_task = None
        self._respawn_tasks = {}
        for task in tasks:
            if task is not None:
                task.cancel()
        live = [task for task in tasks if task is not None]
        if live:
            await asyncio.gather(*live, return_exceptions=True)
        owned = list(self._owned.values())
        self._owned = {}
        for server in owned:
            await server.stop()

    def status(self) -> dict[str, Any]:
        """Per-server supervision state (surfaced by router ``stats``)."""
        return {
            "policy": self.policy.to_dict(),
            "respawns_total": self._respawns,
            "servers": {
                name: {
                    "state": self._state[name],
                    "restarts": self._restarts[name],
                    "failed_attempts": self._failed[name],
                    "respawning": name in self._respawn_tasks,
                }
                for name in sorted(self._state)
            },
        }

    # ------------------------------------------------------------------
    # watch loop
    # ------------------------------------------------------------------
    async def _watch(self) -> None:
        while True:
            await asyncio.sleep(self.policy.probe_interval)
            names = list(self._state)
            alive = await asyncio.gather(
                *(self._probe_server(name) for name in names)
            )
            # respawn only on hard evidence (dead pid / failed ping); a
            # server the *router* marked down after a transient dispatch
            # loss but that still answers pings is rejoined by
            # :meth:`_probe_server`, not rebuilt
            down = {name for name, ok in zip(names, alive) if not ok}
            for name in down:
                if self._state[name] == _GAVE_UP:
                    continue
                if name in self._respawn_tasks:
                    continue
                self.router.mark_down(name)
                self._state[name] = _RESPAWNING
                task = asyncio.create_task(self._respawn(name))
                self._respawn_tasks[name] = task

                def _clear(done: asyncio.Task[None], server: str = name) -> None:
                    if self._respawn_tasks.get(server) is done:
                        self._respawn_tasks.pop(server, None)

                task.add_done_callback(_clear)

    async def _probe_server(self, name: str) -> bool:
        """One liveness check: pid (if known) plus a protocol ping."""
        pid = self.pids.get(name)
        if pid is not None and not _pid_alive(pid):
            self._log(f"supervisor: {name} pid {pid} is gone")
            return False
        host, port = self.router.endpoints[name]
        self.router.note_probe(name)
        ping = {"v": PROTOCOL_VERSION, "op": "ping", "id": f"supervise@{name}"}
        try:
            reply = await asyncio.wait_for(
                exchange(host, port, ping), timeout=self.policy.probe_timeout
            )
        except (ConnectionError, OSError, asyncio.TimeoutError):
            return False
        if reply.get("status") != "ok":
            return False
        if self._state[name] == _UP and name in self.router.down_servers:
            # the server answered but the router still thinks it is down
            # (e.g. a transient dispatch loss): rejoin it
            self.router.update_endpoint(name, (host, port))
        return True

    # ------------------------------------------------------------------
    # respawn
    # ------------------------------------------------------------------
    async def _respawn(self, name: str) -> None:
        obs = current()
        for attempt in range(self.policy.max_restarts):
            await asyncio.sleep(self.policy.backoff(attempt))
            index = self._respawns
            self._respawns += 1
            obs.counter("fleet.respawn.attempt").inc()
            try:
                stall = fault_delay(SITE_FLEET_RESPAWN, index=index, attempt=attempt)
                if stall > 0:
                    # a slow/hang fault suspends this respawn, not the loop
                    await asyncio.sleep(stall)
                server = await self._spawn(name)
            except asyncio.CancelledError:
                raise
            except Exception as error:  # noqa: BLE001 - respawn must retry
                self._failed[name] += 1
                obs.counter("fleet.respawn.failed").inc()
                self._log(
                    f"supervisor: respawn {name} attempt "
                    f"{attempt + 1}/{self.policy.max_restarts} failed: {error}"
                )
                continue
            stale = self._owned.pop(name, None)
            if stale is not None:
                await stale.stop()
            self._owned[name] = server
            # the old process (if external) is dead; stop pid-checking it
            self.pids.pop(name, None)
            self.router.update_endpoint(name, server.address)
            self._restarts[name] += 1
            self._state[name] = _UP
            obs.counter("fleet.respawn.ok").inc()
            host, port = server.address
            self._log(
                f"supervisor: respawned {name} at {host}:{port} "
                f"(attempt {attempt + 1})"
            )
            return
        self._state[name] = _GAVE_UP
        obs.counter("fleet.respawn.gave_up").inc()
        self._log(
            f"supervisor: gave up on {name} after "
            f"{self.policy.max_restarts} attempts"
        )

    async def _spawn(self, name: str) -> JoinServer:
        """Build and start a replacement server for ``name``'s tiles."""
        registry = DatasetRegistry()
        for tile in self.spec.hosted_tiles(name):
            instance = self._instances.get(tile.name)
            if instance is None:
                # persisted tiles load from disk: off the event loop
                instance = await asyncio.to_thread(load_shard_instance, tile)
            registry.register_instance(tile.instance_name, instance)
        host = self.router.address[0]
        server = JoinServer(registry, host=host, port=0, **self._server_kwargs)
        await server.start()
        return server


def _pid_alive(pid: int) -> bool:
    """Whether ``pid`` still exists (signal 0 probes without touching it)."""
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    except PermissionError:
        # the process exists but belongs to someone else
        return True
    return True
