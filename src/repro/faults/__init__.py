"""Deterministic fault injection for chaos-testing the solver and service.

This package is the failure half of the robustness story: the supervision
code in :mod:`repro.core.parallel` and :mod:`repro.service.server` exists
to recover from crashes, hangs and corrupt results, and this package makes
those failures *schedulable* so every recovery path runs in an ordinary
test instead of waiting for production to produce it.

Three pieces, all stdlib-only and importable from anywhere in the engine:

* :mod:`repro.faults.plan` — :class:`FaultPlan`/:class:`FaultSpec`:
  seedable, JSON-round-trippable descriptions of *what* fails *where*
  (named sites) and *when* (by index, every N-th, at the k-th hit, or a
  deterministic hash-based probability).  Triggering is a pure function of
  the plan and explicit coordinates — never process state — so plans fire
  identically across worker counts and dispatch orders.
* :mod:`repro.faults.hooks` — the injectable hooks instrumented code
  calls: :func:`fault_point` (one global read when no plan is active, the
  same zero-cost discipline as the disabled observation), its event-loop
  form :func:`fault_delay` (returns a hang's delay for the caller to
  await instead of sleeping it) and :func:`checkpoint_incumbent` (heuristics publish incumbent improvements
  to whatever recovery channel the driver installed).
* :mod:`repro.faults.chaos` — canned scenario plans (crash member k, hang
  every N-th job, …) plus :func:`run_chaos_queries`, the client-side storm
  used by tests and the CI ``chaos-smoke`` job.

Faults are **off by default**: nothing fires until a driver activates a
plan (:func:`inject` context manager, pool initializer, or the CLI's
``serve --fault-plan plan.json``).
"""

from __future__ import annotations

from .chaos import (
    corrupt_member,
    crash_after_improvements,
    crash_every_nth_job,
    crash_jobs_fraction,
    crash_member,
    hang_member,
    run_chaos_queries,
)
from .hooks import (
    SITE_FLEET_DISPATCH,
    SITE_FLEET_RESPAWN,
    SITE_MEMBER_PROGRESS,
    SITE_MEMBER_RESULT,
    SITE_MEMBER_START,
    SITE_SERVICE_JOB,
    InjectedCrash,
    InjectedError,
    activate_plan,
    active_plan,
    checkpoint_incumbent,
    checkpointing,
    corruption_at,
    fault_delay,
    fault_point,
    inject,
    set_checkpoint_hook,
)
from .plan import FAULT_KINDS, FaultPlan, FaultSpec

__all__ = [
    "FAULT_KINDS",
    "FaultPlan",
    "FaultSpec",
    "InjectedCrash",
    "InjectedError",
    "fault_point",
    "fault_delay",
    "corruption_at",
    "checkpoint_incumbent",
    "activate_plan",
    "active_plan",
    "inject",
    "set_checkpoint_hook",
    "checkpointing",
    "SITE_MEMBER_START",
    "SITE_MEMBER_PROGRESS",
    "SITE_MEMBER_RESULT",
    "SITE_SERVICE_JOB",
    "SITE_FLEET_DISPATCH",
    "SITE_FLEET_RESPAWN",
    "crash_member",
    "crash_after_improvements",
    "hang_member",
    "corrupt_member",
    "crash_every_nth_job",
    "crash_jobs_fraction",
    "run_chaos_queries",
]
