"""Registered span and metric names (the observability vocabulary).

Every span and metric name in the engine is declared here and validated at
creation time.  Central registration keeps the vocabulary *closed*: names
are dotted lowercase (``subsystem.thing``), grep-able, and cannot drift per
call site — repro-lint rule RL006 statically enforces that spans/metrics
are only created with string literals registered in this module.
"""

from __future__ import annotations

import re

__all__ = [
    "NAME_PATTERN",
    "SPAN_NAMES",
    "METRIC_NAMES",
    "check_span_name",
    "check_metric_name",
]

#: dotted lowercase: at least two ``[a-z][a-z0-9_]*`` segments
NAME_PATTERN = re.compile(r"^[a-z][a-z0-9_]*(\.[a-z][a-z0-9_]*)+$")

#: every span the engine may open, grouped by subsystem
SPAN_NAMES = frozenset(
    {
        # CLI / drivers
        "solve.run",
        # heuristics: one ``*.run`` root per algorithm, phases nested inside
        "ils.run",
        "ils.seed",
        "ils.climb",
        "gils.run",
        "gils.seed",
        "gils.climb",
        "sea.run",
        "sea.init",
        "sea.generation",
        "isa.run",
        "ibb.run",
        "two_step.heuristic",
        "two_step.systematic",
        # multi-run drivers
        "parallel.run",
        "portfolio.run",
        # query service: one span per solve, opened inside the worker
        "service.solve",
        # warm plane: shared-memory publish / attach
        "warm.publish",
        "warm.attach",
        # fleet router: the synchronous merge of shard partial solutions
        # (the scatter itself is traced via ``fleet.*`` counters — async
        # interleaving would garble span nesting)
        "fleet.merge",
    }
)

#: every counter/gauge/histogram the engine may register
METRIC_NAMES = frozenset(
    {
        # R*-tree work, absorbed from TreeStats deltas (index.<field>)
        "index.node_reads",
        "index.leaf_reads",
        "index.window_queries",
        "index.knn_queries",
        "index.best_value_searches",
        "index.splits",
        "index.reinserts",
        "index.inserts",
        "index.deletes",
        # per-algorithm counters
        "ils.restarts",
        "ils.local_maxima",
        "gils.local_maxima",
        "gils.penalties_issued",
        "sea.generations",
        "sea.mutations",
        "sea.crossovers",
        "sea.immigrants",
        "isa.proposals",
        "isa.accepted_moves",
        "ibb.nodes_expanded",
        # evaluator / kernel branches
        "eval.violation_checks",
        "eval.batch_rows",
        "kernels.scalar_fallback_rows",
        "kernels.scalar_pair_matrices",
        # cross-process aggregation
        "parallel.members",
        # R*-tree buffer pool (emitted when a BufferPool is attached)
        "index.buffer.hit",
        "index.buffer.miss",
        # query service
        "service.requests",
        "service.cache.hit",
        "service.cache.miss",
        "service.queue.depth",
        "service.shed",
        "service.approximate",
        "service.latency",
        # per-dispatch warm classification (seeded / cold)
        "service.warm.start",
        "service.warm.cold",
        # warm plane segment lifecycle
        "warm.publishes",
        "warm.attaches",
        # fault injection & recovery (parallel supervision + service)
        "faults.crashes",
        "faults.hangs",
        "faults.corruptions",
        "faults.retries",
        "faults.rebuilds",
        "faults.recovered_members",
        "faults.lost_members",
        # fleet router: scatter/merge across per-shard JoinServers
        "fleet.requests",
        "fleet.shed",
        "fleet.degraded",
        "fleet.cache.hit",
        "fleet.cache.miss",
        "fleet.shard.lost",
        "fleet.shard.recovered",
        "fleet.shards.healthy",
        "fleet.latency",
        # self-healing fleet: replica failover, hedged scatter, respawn
        "fleet.failover",
        "fleet.hedge.launched",
        "fleet.hedge.won",
        "fleet.hedge.suppressed",
        "fleet.respawn.attempt",
        "fleet.respawn.ok",
        "fleet.respawn.failed",
        "fleet.respawn.gave_up",
    }
)


def _check(name: str, registry: frozenset[str], kind: str) -> None:
    if not NAME_PATTERN.match(name):
        raise ValueError(
            f"{kind} name {name!r} is not dotted lowercase (expected e.g. 'ils.climb')"
        )
    if name not in registry:
        raise ValueError(
            f"unregistered {kind} name {name!r}; register it in repro/obs/names.py"
        )


def check_span_name(name: str) -> None:
    """Raise ``ValueError`` unless ``name`` is a registered span name."""
    _check(name, SPAN_NAMES, "span")


def check_metric_name(name: str) -> None:
    """Raise ``ValueError`` unless ``name`` is a registered metric name."""
    _check(name, METRIC_NAMES, "metric")
