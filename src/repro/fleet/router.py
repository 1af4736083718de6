"""The fleet router: cost-planned scatter/merge over per-shard servers.

:class:`FleetRouter` shares :class:`~repro.service.server.JoinServer`'s
JSON-lines front end (:class:`~repro.service.frame.LineFrame`: listener,
read loop, request accounting, ``shutdown``, and the solve pipeline with
its merged-solution cache and admission control), so every existing
client — ``JoinClient``, the CLI ``query``/``chaos`` commands — talks to
a fleet without changes.  The router supplies the pipeline's two hooks:
``_resolve`` checks the instance name and ``fanout``; ``_run`` takes one
admitted solve through:

1. **Plan** — for every tile pick a *host* out of its replica group
   (:attr:`~repro.fleet.partition.ShardSpec.hosts`, primary first): the
   primary when it is healthy, else the first healthy replica (counted
   as ``fleet.failover`` — the answer stays **exact** because a replica
   hosts the same tile sub-instance).  Tiles are ranked by their [TSS98]
   cost snapshot biased by current in-flight load, and an optional
   ``fanout`` request field caps how many tiles are contacted.
2. **Scatter** — one concurrent sub-query per planned tile, each one
   :func:`~repro.service.client.exchange` over a fresh connection
   (connections are sequential request/response, so they are never
   shared).  Each sub-query gets a slice of the admission ticket's
   remaining deadline and an even share of the iteration budget; each
   dispatch crosses the :data:`~repro.faults.SITE_FLEET_DISPATCH` fault
   site, so chaos plans can kill shards deterministically.  A leg that is *lost* mid-request
   (connection drop, timeout, injected crash) fails over to the tile's
   next replica within the remaining deadline.  When the deadline has
   :data:`HEDGE_HEADROOM` × the predicted shard latency of headroom, a
   *hedged* duplicate of the sub-query is armed against a replica: it
   dispatches only if the primary leg is still pending past its
   predicted latency (the classic tail-latency hedge), the first
   structured answer wins and the loser is cancelled.  A per-endpoint
   circuit breaker keeps a flapping shard from absorbing hedges.
3. **Merge** — best partial solution by (violations, -similarity), shard
   answers translated from shard-local to global object ids through the
   partition id maps.  Exactness follows the strictest reading: the
   merged answer is ``exact`` only when every tile was answered and
   every answer was ``exact`` — no matter whether primaries or replicas
   answered.  Only when a tile's *entire* replica group is lost does the
   answer degrade to ``approximate`` — a structured response, never a
   drop.  Only when **every** contacted tile is lost does the router
   return the retryable ``shard_unavailable`` error.

Shard-server health is tracked per fleet: a transport failure (or
injected dispatch fault) marks the server down, planning routes around
down servers, and a background ping probe brings them back — the first
merged answer a returning server contributes is flagged ``recovered``.
A :class:`~repro.fleet.supervisor.ShardSupervisor` can additionally
respawn dead servers; it swaps the fresh (possibly ephemeral) endpoint
in via :meth:`FleetRouter.update_endpoint` — every sub-query and probe
dials its own connection, so the new endpoint takes effect on the very
next scatter.
"""

from __future__ import annotations

import asyncio
import math
from dataclasses import dataclass, field
from typing import Any

from ..core.budget import Stopwatch
from ..faults import (
    SITE_FLEET_DISPATCH,
    FaultPlan,
    InjectedCrash,
    InjectedError,
    activate_plan,
    fault_delay,
)
from ..obs import current
from ..query.graph import QueryGraph
from ..service.admission import MIN_SOLVE_SECONDS, Ticket
from ..service.client import exchange
from ..service.frame import LineFrame, SolveCall
from ..service.protocol import PROTOCOL_VERSION, error_response, ok_response
from .partition import FleetSpec, ShardSpec

__all__ = [
    "FleetRouter",
    "EndpointBreaker",
    "SCATTER_FRACTION",
    "FLEET_GRACE_SECONDS",
    "PROBE_TIMEOUT",
    "HEDGE_HEADROOM",
]

#: share of the admission ticket's remaining deadline granted to shard
#: sub-queries; the held-back remainder covers transport + merge so the
#: router answers *within* the global deadline instead of at it
SCATTER_FRACTION = 0.85

#: seconds past a sub-query's deadline before the router abandons the
#: shard (anytime solvers return at the deadline; a shard further out
#: than this is wedged or gone)
FLEET_GRACE_SECONDS = 5.0

#: seconds a health probe waits before declaring the shard still down
PROBE_TIMEOUT = 1.0

#: a hedge is armed only when the ticket still holds this many multiples
#: of the primary's predicted latency — hedging without headroom would
#: just split an already-tight deadline across two legs
HEDGE_HEADROOM = 2.0

#: predicted-latency fallback before any answer has been observed, as a
#: fraction of the sub-query deadline (conservative: hedges fire only
#: for genuine stragglers until the EMA has data)
HEDGE_DEFAULT_FRACTION = 0.5

#: EMA weight of the newest observed sub-query latency
LATENCY_EMA_ALPHA = 0.3


class EndpointBreaker:
    """Consecutive-failure circuit breaker for one shard endpoint.

    ``threshold`` consecutive leg failures open the breaker; while open
    the endpoint is not eligible as a *hedge* target (primary routing is
    already governed by the down set).  After ``cooldown`` seconds the
    breaker half-closes: the endpoint may be tried again, but a single
    further failure re-opens it immediately.
    """

    def __init__(self, threshold: int = 3, cooldown: float = 5.0) -> None:
        if threshold < 1:
            raise ValueError(f"threshold must be >= 1, got {threshold}")
        self.threshold = threshold
        self.cooldown = cooldown
        self.failures = 0
        self._since_open: Stopwatch | None = None

    def record_failure(self) -> None:
        self.failures += 1
        if self.failures >= self.threshold:
            self._since_open = Stopwatch()

    def record_success(self) -> None:
        self.failures = 0
        self._since_open = None

    @property
    def open(self) -> bool:
        if self._since_open is None:
            return False
        # half-open after the cooldown: callers may try once more
        return self._since_open.elapsed() < self.cooldown

    def state(self) -> dict[str, Any]:
        return {"open": self.open, "failures": self.failures}


@dataclass
class _TilePlan:
    """One planned tile: its chosen host and the remaining failover order."""

    tile: ShardSpec
    server: str
    backups: list[str] = field(default_factory=list)
    #: the chosen host is a replica because the primary is down
    failover: bool = False


class FleetRouter(LineFrame):
    """JSON-lines router scattering solves across per-shard JoinServers.

    The JSON-lines front end (listener, read loop, request accounting,
    ``shutdown``, cache, admission and the solve pipeline) is
    :class:`~repro.service.frame.LineFrame`'s.

    Parameters
    ----------
    spec:
        The fleet manifest: shard tiles, cost snapshots, id maps and
        replica groups.
    endpoints:
        ``{server_name: (host, port)}`` for every shard server in
        ``spec``.
    host / port:
        Router listening address; port ``0`` picks a free one.
    max_pending / default_deadline / max_deadline / cache_capacity:
        Admission policy and merged-solution cache size, passed through
        to :class:`~repro.service.frame.LineFrame` as for the single
        server; only full-coverage, non-degraded answers
        are cached (a degraded answer must not shadow a complete one).
    hedge:
        Arm hedged duplicate sub-queries against replicas (default on;
        a no-op for unreplicated fleets, which have no backups).
    fault_plan:
        Optional chaos plan activated in the router process — the
        :data:`SITE_FLEET_DISPATCH` site lives here.
    """

    NAMESPACE = "fleet"
    ROLE = "router"

    def __init__(
        self,
        spec: FleetSpec,
        endpoints: dict[str, tuple[str, int]],
        *,
        host: str = "127.0.0.1",
        port: int = 0,
        hedge: bool = True,
        fault_plan: FaultPlan | None = None,
        **front_end: Any,
    ) -> None:
        missing = [s.name for s in spec.shards if s.name not in endpoints]
        if missing:
            raise ValueError(f"no endpoint for shards {missing}")
        super().__init__(host, port, **front_end)
        self.spec = spec
        self.endpoints = {name: tuple(addr) for name, addr in endpoints.items()}
        self.hedge = bool(hedge)
        self.fault_plan = fault_plan if (fault_plan is not None and fault_plan) else None
        self._query = spec.query_graph()
        self._labels = [
            f"{spec.name}/{index}" for index in range(self._query.num_variables)
        ]
        self._shards = {shard.name: shard for shard in spec.shards}
        #: shard *servers* (one per tile, same names) — health, load and
        #: latency bookkeeping is per server, planning is per tile
        self._servers = list(self._shards)
        self.degraded_total = 0
        self.failover_total = 0
        self.hedges_launched = 0
        self.hedges_won = 0
        self.hedges_suppressed = 0
        #: monotonic dispatch counter — the ``fleet.dispatch`` fault index
        self._dispatches = 0
        #: servers currently considered unreachable
        self._down: set[str] = set()
        #: servers that came back up and owe a ``recovered`` flag
        self._recovered_pending: set[str] = set()
        #: in-flight sub-queries per server (the load bias in planning)
        self._inflight: dict[str, int] = {name: 0 for name in self._servers}
        self._per_shard: dict[str, dict[str, int]] = {
            name: {"dispatched": 0, "answered": 0, "lost": 0}
            for name in self._servers
        }
        #: router-lifetime monotonic clock; probe/state timestamps below
        #: are its readings (ages in ``stats()`` are derived, so no raw
        #: clock leaves this module)
        self._clock = Stopwatch()
        self._last_probe: dict[str, float | None] = {
            name: None for name in self._servers
        }
        self._state_changed: dict[str, float] = {
            name: 0.0 for name in self._servers
        }
        #: EMA of observed ok-leg latency per server (None = no data yet)
        self._predicted: dict[str, float | None] = {
            name: None for name in self._servers
        }
        self._breakers: dict[str, EndpointBreaker] = {
            name: EndpointBreaker() for name in self._servers
        }
        self._probes: dict[str, asyncio.Task[None]] = {}
        #: attached by FleetHandle when supervision is on (status only)
        self.supervisor: Any | None = None
        self._previous_plan: FaultPlan | None = None

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    async def start(self) -> None:
        if self.fault_plan is not None:
            # plan-less routers leave the global slot alone (an ambient
            # plan installed around the fleet must survive our start)
            self._previous_plan = activate_plan(self.fault_plan)
        await self._listen()
        current().gauge("fleet.shards.healthy").set(len(self._servers))

    async def stop(self) -> None:
        await self._close()
        for probe in list(self._probes.values()):
            probe.cancel()
        if self._probes:
            await asyncio.gather(*self._probes.values(), return_exceptions=True)
        self._probes.clear()
        if self.fault_plan is not None:
            activate_plan(self._previous_plan)
            self._previous_plan = None

    # ------------------------------------------------------------------
    # health bookkeeping (shared by legs, probes and the supervisor)
    # ------------------------------------------------------------------
    @property
    def down_servers(self) -> frozenset[str]:
        """Servers currently considered unreachable (supervisor signal)."""
        return frozenset(self._down)

    def _set_health(self, server: str, healthy: bool) -> None:
        was_down = server in self._down
        if healthy and was_down:
            self._down.discard(server)
        elif not healthy and not was_down:
            self._down.add(server)
        else:
            return
        self._state_changed[server] = self._clock.elapsed()
        current().gauge("fleet.shards.healthy").set(
            len(self._servers) - len(self._down)
        )

    def mark_down(self, server: str) -> None:
        """Externally mark ``server`` unreachable (supervisor liveness)."""
        if server not in self._per_shard:
            raise KeyError(f"unknown shard server {server!r}")
        self._set_health(server, False)

    def note_probe(self, server: str) -> None:
        """Record that ``server`` was probed just now (for ``stats``)."""
        self._last_probe[server] = self._clock.elapsed()

    def update_endpoint(self, server: str, endpoint: tuple[str, int]) -> None:
        """Swap ``server``'s endpoint for a respawned instance.

        The fresh endpoint (possibly a new ephemeral port) replaces the
        old one, any in-flight probe against the stale address is
        cancelled, breaker and latency state reset, and the server
        rejoins the healthy set owing a ``recovered`` flag.  Every
        sub-query dials its own connection, so the new endpoint is used
        on the next scatter — nothing holds a connection to the old
        address.
        """
        if server not in self._per_shard:
            raise KeyError(f"unknown shard server {server!r}")
        self.endpoints[server] = (str(endpoint[0]), int(endpoint[1]))
        probe = self._probes.get(server)
        if probe is not None:
            probe.cancel()
        self._breakers[server].record_success()
        self._predicted[server] = None
        if server in self._down:
            self._recovered_pending.add(server)
            current().counter("fleet.shard.recovered").inc()
        self._set_health(server, True)

    # ------------------------------------------------------------------
    # dispatch
    # ------------------------------------------------------------------
    async def _dispatch(
        self, record: dict[str, Any], request_id: str, op: str
    ) -> dict[str, Any]:
        if op == "ping":
            return ok_response(
                request_id,
                op,
                version=PROTOCOL_VERSION,
                role="fleet-router",
                fleet=self.spec.name,
                shards=len(self._shards),
            )
        if op == "datasets":
            return ok_response(
                request_id,
                op,
                datasets=[],
                instances=[self.spec.name],
                shards={
                    shard.name: shard.instance_name for shard in self.spec.shards
                },
            )
        if op == "stats":
            return ok_response(request_id, op, **self.stats())
        assert op == "register"
        return error_response(
            request_id,
            op,
            "bad_request",
            "a fleet's topology is fixed at partition time; "
            "register datasets on the shards and re-partition",
        )

    def stats(self) -> dict[str, Any]:
        """Live router counters for the ``stats`` op (and tests)."""
        now = self._clock.elapsed()
        shards = []
        for shard in self.spec.shards:
            name = shard.name
            inflight = self._inflight[name]
            last_probe = self._last_probe[name]
            shards.append(
                {
                    "name": name,
                    "endpoint": list(self.endpoints[name]),
                    "healthy": name not in self._down,
                    "cost": shard.cost_total,
                    "objects": sum(shard.counts),
                    "inflight": inflight,
                    # the live planning signal: cheapest biased score wins
                    "bias": shard.cost_total * (1.0 + inflight),
                    "last_probe_age": (
                        None if last_probe is None else now - last_probe
                    ),
                    "since_state_change": now - self._state_changed[name],
                    "breaker": self._breakers[name].state(),
                    "predicted_latency": self._predicted[name],
                    "hosts": list(shard.replica_group),
                    **self._per_shard[name],
                }
            )
        payload: dict[str, Any] = {
            **super().stats(),
            "fleet": {
                "name": self.spec.name,
                "method": self.spec.method,
                "replicas": self.spec.replicas,
                "degraded_total": self.degraded_total,
                "failover_total": self.failover_total,
                "hedge": {
                    "enabled": self.hedge,
                    "launched": self.hedges_launched,
                    "won": self.hedges_won,
                    "suppressed": self.hedges_suppressed,
                },
                "shards": shards,
            },
        }
        if self.supervisor is not None:
            payload["fleet"]["supervisor"] = self.supervisor.status()
        return payload

    # ------------------------------------------------------------------
    # solve: plan → scatter (failover + hedge) → merge
    # ------------------------------------------------------------------
    def _plan(self, fanout: int | None) -> tuple[list[_TilePlan], list[str]]:
        """Tile plans (cheapest biased cost first) plus skipped tiles.

        Each tile routes to the first healthy host of its replica group
        (primary first — a replica host means failover, and the answer
        stays exact).  A tile whose whole group is down is *skipped*
        (involuntary coverage loss ⇒ degraded) — unless the entire fleet
        looks down, in which case the router optimistically dispatches
        primaries anyway: liveness must not wait for a probe cycle.  The
        cost bias ``cost·(1 + inflight)`` spreads concurrent load over
        equal-cost tiles, which is what makes small-fanout routing scale.
        """
        all_down = all(name in self._down for name in self._servers)
        plans: list[_TilePlan] = []
        skipped: list[str] = []
        for tile in self.spec.shards:
            group = tile.replica_group
            live = [name for name in group if name not in self._down]
            if not live:
                if all_down:
                    live = list(group)
                else:
                    skipped.append(tile.name)
                    continue
            plans.append(
                _TilePlan(
                    tile=tile,
                    server=live[0],
                    backups=live[1:],
                    failover=live[0] != group[0],
                )
            )
        for name in self._down:
            self._schedule_probe(name)
        plans.sort(
            key=lambda plan: (
                plan.tile.cost_total * (1.0 + self._inflight[plan.server]),
                plan.tile.name,
            )
        )
        if fanout is not None:
            plans = plans[:fanout]
        return plans, skipped

    def _schedule_probe(self, server: str) -> None:
        if server in self._probes:
            return
        task = asyncio.create_task(self._probe(server))
        self._probes[server] = task

        def _clear(done: asyncio.Task[None], name: str = server) -> None:
            # identity-guarded: never pop a *newer* probe scheduled for
            # the same server after this one was cancelled/replaced
            if self._probes.get(name) is done:
                self._probes.pop(name, None)

        task.add_done_callback(_clear)

    async def _probe(self, server: str) -> None:
        """Ping a down server; on success it rejoins the healthy set."""
        host, port = self.endpoints[server]
        self.note_probe(server)
        ping = {"v": PROTOCOL_VERSION, "op": "ping", "id": f"probe@{server}"}
        try:
            reply = await asyncio.wait_for(
                exchange(host, port, ping), timeout=PROBE_TIMEOUT
            )
        except (ConnectionError, OSError, asyncio.TimeoutError):
            return
        if reply.get("status") != "ok":
            return  # answering but draining: still not routable
        if self.endpoints[server] != (host, port):
            # the endpoint moved (supervisor respawn) while this probe
            # was in flight: its verdict is about the stale address
            return
        if server in self._down:
            self._recovered_pending.add(server)
            obs = current()
            obs.counter("fleet.shard.recovered").inc()
            self._set_health(server, True)

    async def _sub_solve(
        self, server: str, tile: ShardSpec, fields: dict[str, Any], tag: int
    ) -> dict[str, Any]:
        """One sub-query over a fresh connection (sequential protocol)."""
        host, port = self.endpoints[server]
        record = {
            "v": PROTOCOL_VERSION,
            "op": "solve",
            "id": f"{tile.name}@{server}-{tag}",
            **fields,
        }
        return await exchange(host, port, record)

    def _leg_lost(self, server: str, *, mark_down: bool = True) -> None:
        self._per_shard[server]["lost"] += 1
        current().counter("fleet.shard.lost").inc()
        self._breakers[server].record_failure()
        if mark_down:
            self._set_health(server, False)

    def _leg_ok(self, server: str, elapsed: float) -> None:
        self._per_shard[server]["answered"] += 1
        self._breakers[server].record_success()
        previous = self._predicted[server]
        self._predicted[server] = (
            elapsed
            if previous is None
            else (1.0 - LATENCY_EMA_ALPHA) * previous + LATENCY_EMA_ALPHA * elapsed
        )
        self._set_health(server, True)

    async def _dispatch_leg(
        self,
        server: str,
        tile: ShardSpec,
        fields: dict[str, Any],
        timeout: float,
        *,
        hedged: bool = False,
    ) -> dict[str, Any]:
        """One scatter leg: ``{"tile", "server", "status", ...}``, never raises."""
        index = self._dispatches
        self._dispatches += 1
        self._per_shard[server]["dispatched"] += 1
        base = {"tile": tile.name, "server": server, "hedged": hedged}
        try:
            stall = fault_delay(SITE_FLEET_DISPATCH, index=index)
        except (InjectedCrash, InjectedError) as error:
            self._leg_lost(server)
            return {**base, "status": "lost", "reason": str(error)}
        if stall > 0:
            # a slow/hang fault suspends this leg only, never the loop
            await asyncio.sleep(stall)
        self._inflight[server] += 1
        watch = Stopwatch()
        try:
            response = await asyncio.wait_for(
                self._sub_solve(server, tile, fields, index),
                timeout=timeout + FLEET_GRACE_SECONDS,
            )
        except (ConnectionError, OSError, asyncio.TimeoutError) as error:
            self._leg_lost(server)
            return {
                **base,
                "status": "lost",
                "reason": f"{type(error).__name__}: {error}",
            }
        finally:
            self._inflight[server] -= 1
        if response.get("status") != "ok":
            error = response.get("error", {})
            # a structured shard error (shed, bad request) is not a
            # transport loss: the server is up, so it stays routable,
            # but the breaker still counts it against hedging
            self._breakers[server].record_failure()
            return {
                **base,
                "status": "failed",
                "reason": f"{error.get('code')}: {error.get('message')}",
            }
        self._leg_ok(server, watch.elapsed())
        return {**base, "status": "ok", "response": response}

    async def _hedge_leg(
        self,
        server: str,
        tile: ShardSpec,
        fields: dict[str, Any],
        sub_deadline: float,
        delay: float,
        ticket: Any,
    ) -> dict[str, Any]:
        """Delay-gated hedge: dispatches only if the primary straggles."""
        await asyncio.sleep(delay)
        self.hedges_launched += 1
        current().counter("fleet.hedge.launched").inc()
        timeout = min(
            sub_deadline,
            max(MIN_SOLVE_SECONDS, ticket.remaining() * SCATTER_FRACTION),
        )
        return await self._dispatch_leg(
            server, tile, {**fields, "deadline": timeout}, timeout, hedged=True
        )

    async def _dispatch_tile(
        self,
        plan: _TilePlan,
        fields: dict[str, Any],
        sub_deadline: float,
        ticket: Any,
    ) -> dict[str, Any]:
        """Solve one tile: primary leg, optional hedge, failover chain."""
        obs = current()
        tile = plan.tile
        if plan.failover:
            self.failover_total += 1
            obs.counter("fleet.failover").inc()
        tile_fields = {**fields, "instance": tile.instance_name}
        legs = {
            asyncio.create_task(
                self._dispatch_leg(plan.server, tile, tile_fields, sub_deadline)
            )
        }
        if self.hedge and plan.backups:
            target = next(
                (b for b in plan.backups if not self._breakers[b].open), None
            )
            if target is None:
                self.hedges_suppressed += 1
                obs.counter("fleet.hedge.suppressed").inc()
            else:
                predicted = self._predicted[plan.server]
                if predicted is None:
                    predicted = sub_deadline * HEDGE_DEFAULT_FRACTION
                if ticket.remaining() >= HEDGE_HEADROOM * predicted:
                    legs.add(
                        asyncio.create_task(
                            self._hedge_leg(
                                target, tile, tile_fields,
                                sub_deadline, predicted, ticket,
                            )
                        )
                    )
        winner: dict[str, Any] | None = None
        losses: list[dict[str, Any]] = []
        pending = legs
        while pending and winner is None:
            done, pending = await asyncio.wait(
                pending, return_when=asyncio.FIRST_COMPLETED
            )
            for task in done:
                outcome = await task
                if outcome["status"] == "ok" and winner is None:
                    winner = outcome
                else:
                    losses.append(outcome)
        # first structured answer wins; cancel the losing leg (a hedge
        # still sleeping never dispatches — that is the delay gate)
        for task in pending:
            task.cancel()
        if pending:
            await asyncio.gather(*pending, return_exceptions=True)
        if winner is not None:
            if winner["hedged"]:
                self.hedges_won += 1
                obs.counter("fleet.hedge.won").inc()
            return winner
        # every raced leg lost: fail over along the remaining replicas
        # while the ticket still has budget
        tried = {loss["server"] for loss in losses} | {plan.server}
        for backup in plan.backups:
            if backup in tried or backup in self._down:
                continue
            if ticket.expired():
                break
            self.failover_total += 1
            obs.counter("fleet.failover").inc()
            timeout = min(
                sub_deadline,
                max(MIN_SOLVE_SECONDS, ticket.remaining() * SCATTER_FRACTION),
            )
            outcome = await self._dispatch_leg(
                backup, tile, {**tile_fields, "deadline": timeout}, timeout
            )
            if outcome["status"] == "ok":
                return outcome
            losses.append(outcome)
            tried.add(backup)
        status = (
            "failed"
            if losses and all(loss["status"] == "failed" for loss in losses)
            else "lost"
        )
        reason = "; ".join(
            f"{loss['server']}: {loss.get('reason', '?')}" for loss in losses
        ) or "no replica reachable"
        return {
            "tile": tile.name,
            "server": plan.server,
            "status": status,
            "reason": reason,
            "hedged": False,
        }

    # ------------------------------------------------------------------
    # solve hooks (the pipeline is LineFrame._handle_solve)
    # ------------------------------------------------------------------
    async def _resolve(self, record: dict[str, Any]) -> tuple[QueryGraph, list[str]]:
        if record.get("instance") != self.spec.name:
            raise KeyError(
                f"this router serves instance {self.spec.name!r}; "
                "per-dataset queries go to the shards directly"
            )
        fanout = record.get("fanout")
        # booleans are ints to Python but never to the protocol
        if fanout is not None and (
            isinstance(fanout, bool) or not isinstance(fanout, int) or fanout < 1
        ):
            raise ValueError(f"fanout must be an integer >= 1, got {fanout!r}")
        return self._query, self._labels

    def _hit_fields(self) -> dict[str, Any]:
        return {"fleet": {"shards": len(self._shards), "cached": True}}

    async def _run(
        self, call: SolveCall, ticket: Ticket
    ) -> tuple[dict[str, Any], bool]:
        # degradation tracks *involuntary* coverage loss: tiles skipped
        # because their whole replica group is down.  A client-chosen
        # fanout cap merely limits coverage (answer approximate, not
        # degraded).
        plans, skipped = self._plan(call.record.get("fanout"))
        sub_deadline = max(0.02, ticket.remaining() * SCATTER_FRACTION)
        # the iteration budget is split evenly: N tiles each search their
        # extent with budget/N, so total work matches a single server
        # while the wall-clock shrinks with the fan-out
        fields: dict[str, Any] = {
            "deadline": sub_deadline,
            "algorithm": call.algorithm,
            "seed": call.seed,
            "restarts": call.restarts,
            "cache": bool(call.record.get("cache", True)),
        }
        if call.max_iterations is not None and plans:
            fields["max_iterations"] = math.ceil(call.max_iterations / len(plans))
        outcomes = await asyncio.gather(
            *(self._dispatch_tile(plan, fields, sub_deadline, ticket) for plan in plans)
        )
        with current().span("fleet.merge"):
            return self._merge(call.request_id, list(outcomes), skipped)

    def _merge(
        self, request_id: str, outcomes: list[dict[str, Any]], skipped: list[str]
    ) -> tuple[dict[str, Any], bool]:
        """Fold tile partials into one global answer (pure, no awaits).

        Only a full-coverage, non-degraded answer may be cached: a
        degraded answer must not shadow a complete one.
        """
        obs = current()
        answered = [o for o in outcomes if o["status"] == "ok"]
        lost = [o for o in outcomes if o["status"] == "lost"]
        failed = [o for o in outcomes if o["status"] == "failed"]
        if not answered:
            reasons = "; ".join(
                f"{o['tile']}: {o.get('reason', '?')}" for o in lost + failed
            ) or "no shards contacted"
            return error_response(
                request_id,
                "solve",
                "shard_unavailable",
                f"every contacted shard was lost ({reasons})",
            ), False
        best = min(
            answered,
            key=lambda o: (
                o["response"]["violations"],
                -o["response"]["similarity"],
                o["tile"],
            ),
        )
        winner = self._shards[best["tile"]]
        sub = best["response"]
        # shard-local object ids → global ids through the partition maps
        assignment = [
            winner.id_maps[variable][local]
            for variable, local in enumerate(sub["assignment"])
        ]
        # a tile lost mid-request (every replica) or skipped-as-down
        # degrades the answer; a fanout the *client* chose merely caps
        # coverage.  An answer served by a replica is NOT degraded —
        # failover preserves exactness.
        degraded = bool(lost) or bool(failed) or bool(skipped)
        covered_all = len(answered) == len(self._shards)
        exact = covered_all and all(o["response"]["exact"] for o in answered)
        if degraded:
            self.degraded_total += 1
            obs.counter("fleet.degraded").inc()
        recovered_servers = [
            o["server"] for o in answered if o["server"] in self._recovered_pending
        ]
        for name in recovered_servers:
            self._recovered_pending.discard(name)
        return dict(
            assignment=assignment,
            violations=sub["violations"],
            similarity=sub["similarity"],
            exact=exact,
            approximate=not exact,
            iterations=sum(o["response"]["iterations"] for o in answered),
            elapsed=max(o["response"]["elapsed"] for o in answered),
            algorithm=sub["algorithm"],
            recovered=bool(recovered_servers) or bool(sub.get("recovered")),
            fleet={
                "shards": len(self._shards),
                "shard": best["tile"],
                "served_by": best["server"],
                "planned": [o["tile"] for o in outcomes],
                "answered": [o["tile"] for o in answered],
                "lost": [o["tile"] for o in lost],
                "failed": [o["tile"] for o in failed],
                "skipped": skipped,
                "degraded": degraded,
                # disjoint by construction: "failover" is routed-away-
                # from-a-down-primary, "hedged" is a duplicate leg that
                # beat a live primary
                "failover": [
                    o["tile"]
                    for o in answered
                    if not o["hedged"]
                    and o["server"] != self._shards[o["tile"]].replica_group[0]
                ],
                "hedged": [o["tile"] for o in answered if o["hedged"]],
            },
        ), covered_all and not degraded
