"""Injectable fault and checkpoint hooks (off by default, near-zero cost).

Instrumented code calls two module-level hooks:

:func:`fault_point`
    Declares a *named fault site*.  With no plan active the call is one
    global read and a comparison — the same zero-cost-when-disabled
    discipline as the no-op observation in :mod:`repro.obs`.  With a plan
    active, a matching spec fires: ``crash`` raises
    :class:`InjectedCrash`, ``error`` raises :class:`InjectedError`,
    ``hang``/``slow`` sleep the spec's delay, and ``corrupt`` is reported
    to the caller (only the call site knows how to corrupt its payload).
    :func:`fault_delay` is the same site for code on an event loop: it
    returns the delay instead of sleeping it, and the caller awaits it.

:func:`checkpoint_incumbent`
    Publishes an incumbent improvement (assignment + score) to whatever
    recovery channel the surrounding driver installed — a queue back to a
    supervising parent, or nothing.  Heuristics call it unconditionally;
    the disabled path is again one global read.

Both hooks are process-global on purpose: pool workers activate the plan
once in their initializer and every solve in that process sees it,
mirroring how the ambient observation works.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from typing import Callable, Iterator, Optional, Sequence

from .plan import FaultPlan, FaultSpec

__all__ = [
    "InjectedCrash",
    "InjectedError",
    "fault_point",
    "fault_delay",
    "corruption_at",
    "checkpoint_incumbent",
    "active_plan",
    "activate_plan",
    "inject",
    "set_checkpoint_hook",
    "checkpointing",
    "SITE_MEMBER_START",
    "SITE_MEMBER_PROGRESS",
    "SITE_MEMBER_RESULT",
    "SITE_SERVICE_JOB",
    "SITE_FLEET_DISPATCH",
    "SITE_FLEET_RESPAWN",
]

# ----------------------------------------------------------------------
# site vocabulary (kept closed, like obs names)
# ----------------------------------------------------------------------
#: a parallel-search member starts executing (index = member index)
SITE_MEMBER_START = "parallel.member.start"
#: a member records an incumbent improvement (hit = improvement count)
SITE_MEMBER_PROGRESS = "parallel.member.progress"
#: a member's finished result is about to be returned (corrupt target)
SITE_MEMBER_RESULT = "parallel.member.result"
#: a service worker starts one solve job (index = the job's fault index)
SITE_SERVICE_JOB = "service.job"
#: the fleet router dispatches one sub-query to a shard (index = the
#: router's dispatch counter) — a crash here simulates shard loss: the
#: merged answer degrades to ``approximate``, the request never drops
SITE_FLEET_DISPATCH = "fleet.dispatch"
#: the shard supervisor is about to respawn a dead shard server
#: (index = the supervisor's respawn counter, attempt = the backoff
#: attempt) — a crash/error here makes the respawn itself fail, so chaos
#: plans can exercise the bounded restart budget
SITE_FLEET_RESPAWN = "fleet.respawn"


class InjectedCrash(RuntimeError):
    """A deliberate crash fault.

    Raised by :func:`fault_point` for ``crash`` specs.  Pool-worker entry
    wrappers convert it into ``os._exit`` (a genuine dead process, so the
    parent sees the real ``BrokenProcessPool`` path); inline and thread
    paths let it propagate to their supervisor.
    """


class InjectedError(RuntimeError):
    """A deliberate exception fault (``error`` kind), left to propagate."""


_ACTIVE_PLAN: FaultPlan | None = None

#: incumbent-checkpoint receiver: (values, violations, similarity,
#: elapsed, iterations) -> None
CheckpointHook = Callable[[Sequence[int], int, float, float, int], None]
_CHECKPOINT_HOOK: CheckpointHook | None = None


# ----------------------------------------------------------------------
# fault injection
# ----------------------------------------------------------------------
def active_plan() -> FaultPlan | None:
    """The plan faults currently fire from (``None`` = injection off)."""
    return _ACTIVE_PLAN


def activate_plan(plan: FaultPlan | None) -> FaultPlan | None:
    """Install ``plan`` process-globally; returns the previous plan."""
    global _ACTIVE_PLAN
    previous = _ACTIVE_PLAN
    _ACTIVE_PLAN = plan if (plan is not None and plan) else None
    return previous


@contextmanager
def inject(plan: FaultPlan | None) -> Iterator[FaultPlan | None]:
    """Run a block with ``plan`` active (restores the previous plan)."""
    previous = activate_plan(plan)
    try:
        yield plan
    finally:
        activate_plan(previous)


def fault_point(site: str, index: int = 0, attempt: int = 0, hit: int = 0) -> None:
    """Declare a fault site; fires whatever the active plan says.

    ``crash``/``error`` raise, ``hang``/``slow`` sleep.  ``corrupt``
    specs never fire here — call sites that can corrupt their payload ask
    :func:`corruption_at` explicitly.  Sites on an event loop call
    :func:`fault_delay` instead and await the stall themselves.
    """
    if _ACTIVE_PLAN is None:
        return
    # hang / slow: sleeping is deliberate — supervision timeouts, not
    # clock reads, are what recover from it (RL002 bans reads, not sleeps)
    seconds = fault_delay(site, index=index, attempt=attempt, hit=hit)
    if seconds > 0:
        time.sleep(seconds)


def fault_delay(site: str, index: int = 0, attempt: int = 0, hit: int = 0) -> float:
    """Fire a fault site without sleeping: the seconds it asks to stall.

    ``crash``/``error`` raise exactly as in :func:`fault_point`; a
    ``hang``/``slow`` spec returns its delay (``0.0`` when nothing fires)
    for the caller to ``await asyncio.sleep(...)``, so a fault on an
    event loop suspends one coroutine instead of the whole loop.
    """
    plan = _ACTIVE_PLAN
    if plan is None:
        return 0.0
    spec = plan.match(site, index=index, attempt=attempt, hit=hit)
    if spec is None or spec.kind == "corrupt":
        return 0.0
    if spec.kind == "crash":
        raise InjectedCrash(f"injected crash at {site} (index {index})")
    if spec.kind == "error":
        raise InjectedError(f"injected error at {site} (index {index})")
    return spec.hang_seconds()


def corruption_at(
    site: str, index: int = 0, attempt: int = 0, hit: int = 0
) -> FaultSpec | None:
    """The ``corrupt`` spec firing at these coordinates, if any.

    Corruption cannot be injected generically — only the call site knows
    what a plausibly-corrupt payload looks like — so callers branch on
    this and tamper their own result.
    """
    plan = _ACTIVE_PLAN
    if plan is None:
        return None
    spec = plan.match(site, index=index, attempt=attempt, hit=hit)
    if spec is not None and spec.kind == "corrupt":
        return spec
    return None


# ----------------------------------------------------------------------
# incumbent checkpointing
# ----------------------------------------------------------------------
def checkpoint_incumbent(
    values: Sequence[int],
    violations: int,
    similarity: float,
    elapsed: float,
    iterations: int,
) -> None:
    """Publish an incumbent improvement to the installed recovery channel.

    Called by every anytime heuristic at the moment its incumbent
    improves.  A no-op (one global read) unless a driver installed a hook
    via :func:`set_checkpoint_hook` / :func:`checkpointing`.
    """
    hook = _CHECKPOINT_HOOK
    if hook is None:
        return
    hook(values, violations, similarity, elapsed, iterations)


def set_checkpoint_hook(hook: Optional[CheckpointHook]) -> Optional[CheckpointHook]:
    """Install ``hook`` as the checkpoint receiver; returns the previous one."""
    global _CHECKPOINT_HOOK
    previous = _CHECKPOINT_HOOK
    _CHECKPOINT_HOOK = hook
    return previous


@contextmanager
def checkpointing(hook: Optional[CheckpointHook]) -> Iterator[None]:
    """Run a block with ``hook`` receiving incumbent checkpoints."""
    previous = set_checkpoint_hook(hook)
    try:
        yield
    finally:
        set_checkpoint_hook(previous)
