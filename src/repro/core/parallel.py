"""Process-parallel execution of independent search runs, with supervision.

The paper's heuristics are embarrassingly parallel across *restarts*: two
ILS/GILS/SEA runs with different seeds share nothing but the (read-only)
problem instance.  This module exploits that with a
:class:`~concurrent.futures.ProcessPoolExecutor`: the instance is shipped to
each worker once (pool initializer, not per task), every restart runs the
full vectorized kernel stack on its own core, and the reduction keeps the
best solution found by any member.

Determinism
-----------
Each member's seed is *derived* — a BLAKE2b hash of ``(base seed, member
index)`` — so a member's trajectory depends only on its index, never on
which worker ran it or in which order results arrived.  Ties between members
are broken by member index.  Consequently, for iteration-limited budgets,
``parallel_restarts(seed=k, workers=n)`` returns the same best assignment
for every ``n`` (including the inline ``workers=1`` path); wall-clock
budgets remain timing-dependent, exactly as in sequential runs.

Supervision
-----------
Member execution is supervised: a worker crash (``BrokenProcessPool``), a
hang (no completion within :attr:`SupervisionPolicy.hang_timeout`), an
injected error, or a corrupt result loses only the *unfinished* members.
Those members are re-dispatched — to the same pool when it survived, to a
rebuilt pool (bounded by :attr:`SupervisionPolicy.max_rebuilds`, with
exponential backoff) when it did not.  A retried member re-runs from its
derived seed, so recovery never perturbs worker-count-independent
determinism.  While fault injection is active (or ``checkpoints=True``),
members stream incumbent improvements back through a manager queue via
:func:`repro.faults.checkpoint_incumbent`; a member whose retries are
exhausted is synthesised from its best checkpoint, so
:func:`parallel_restarts` returns the best solution observed *before* the
fault — never nothing.  Any recovery activity is reported under
``stats["faults"]`` and the ``faults.*`` counters.

Everything crossing the process boundary is a plain picklable payload:
:class:`RunSpec` carries the heuristic *name* (looked up in
:data:`repro.core.two_step.HEURISTICS` inside the worker) and raw budget
limits, never callables or live ``Budget`` objects.
"""

from __future__ import annotations

import hashlib
import multiprocessing
import os
import queue as queue_module
import time
from concurrent.futures import FIRST_COMPLETED, BrokenExecutor, ProcessPoolExecutor, wait
from dataclasses import dataclass, replace
from typing import Any, Sequence

from ..faults import (
    SITE_MEMBER_PROGRESS,
    SITE_MEMBER_RESULT,
    SITE_MEMBER_START,
    FaultPlan,
    InjectedCrash,
    InjectedError,
    activate_plan,
    active_plan,
    checkpointing,
    corruption_at,
    fault_point,
    inject,
)
from ..obs import Observation, collect_exports, current, export_state, merge_states, observe, replay_into
from ..query import ProblemInstance
from .budget import Budget, Stopwatch
from .evaluator import QueryEvaluator
from .result import ConvergenceTrace, RunResult

__all__ = [
    "RunSpec",
    "SupervisionPolicy",
    "derive_seed",
    "default_workers",
    "parallel_restarts",
    "run_specs",
    "run_specs_supervised",
]

#: violations sentinel for a member lost beyond recovery: large enough to
#: lose every reduction, finite so payloads stay JSON-friendly
LOST_MEMBER_VIOLATIONS = 2**31

#: exit code of a worker process killed by an injected crash
CRASH_EXIT_CODE = 17


def derive_seed(base_seed: int, index: int) -> int:
    """A stable 64-bit seed for member ``index`` of a run seeded ``base_seed``.

    Hash-derived (BLAKE2b) rather than ``base_seed + index`` so that member
    streams are decorrelated and independent of Python's salted ``hash``.
    """
    digest = hashlib.blake2b(
        f"{base_seed}:{index}".encode(), digest_size=8
    ).digest()
    return int.from_bytes(digest, "big")


def default_workers() -> int:
    """Worker count used when ``workers=None``: one per available core."""
    return os.cpu_count() or 1


@dataclass(frozen=True)
class RunSpec:
    """One picklable unit of work: a heuristic, a seed and budget limits."""

    heuristic: str
    seed: int
    time_limit: float | None
    max_iterations: int | None
    index: int
    #: optional starting incumbent (requester numbering) seeding the search
    warm_start: tuple[int, ...] | None = None

    def budget(self) -> Budget:
        return Budget(time_limit=self.time_limit, max_iterations=self.max_iterations)


@dataclass(frozen=True)
class SupervisionPolicy:
    """How member failures are detected and retried.

    ``member_retries``
        Re-dispatches any one member may consume (injected or real).  A
        member beyond this is synthesised from its best checkpoint (or a
        lost-member sentinel) instead of failing the whole run.
    ``max_rebuilds``
        Pool rebuilds (after a crash or hang) before giving up on the
        members still unfinished.
    ``backoff_base`` / ``backoff_cap``
        Exponential backoff slept before each rebuild:
        ``min(cap, base · 2^(rebuild-1))`` seconds.
    ``hang_timeout``
        Hang detection: when *no* member completes within this many
        seconds, the pool is declared wedged, its processes are
        terminated, and unfinished members are re-dispatched.  ``None``
        (the default) disables detection — correct for wall-clock budgets
        where "no news for a while" is normal.
    """

    member_retries: int = 2
    max_rebuilds: int = 2
    backoff_base: float = 0.05
    backoff_cap: float = 1.0
    hang_timeout: float | None = None

    def __post_init__(self) -> None:
        if self.member_retries < 0:
            raise ValueError(f"member_retries must be >= 0, got {self.member_retries}")
        if self.max_rebuilds < 0:
            raise ValueError(f"max_rebuilds must be >= 0, got {self.max_rebuilds}")
        if self.backoff_base < 0 or self.backoff_cap < 0:
            raise ValueError("backoff must be non-negative")
        if self.hang_timeout is not None and self.hang_timeout <= 0:
            raise ValueError(f"hang_timeout must be positive, got {self.hang_timeout}")

    def backoff(self, rebuild: int) -> float:
        return min(self.backoff_cap, self.backoff_base * (2.0 ** max(0, rebuild - 1)))


@dataclass(frozen=True)
class _MemberTask:
    """One dispatch of one member: the spec plus its retry attempt."""

    spec: RunSpec
    attempt: int


class _PoolHang(RuntimeError):
    """No member completed within the supervision hang timeout."""


#: checkpoint payload: (violations, similarity, values, elapsed, iterations)
_Checkpoint = tuple[int, float, tuple[int, ...], float, int]


class _CheckpointRecorder:
    """Receives :func:`checkpoint_incumbent` calls for one member attempt.

    Forwards every improvement to the recovery channel (an in-process
    store inline, a manager queue inside pool workers) *before* firing the
    ``parallel.member.progress`` fault site, so a crash injected at the
    k-th improvement finds the first k already published.
    """

    __slots__ = ("index", "attempt", "store", "sink", "hits")

    def __init__(
        self,
        index: int,
        attempt: int,
        store: dict[int, _Checkpoint] | None = None,
        sink: Any = None,
    ) -> None:
        self.index = index
        self.attempt = attempt
        self.store = store
        self.sink = sink
        self.hits = 0

    def __call__(
        self,
        values: Sequence[int],
        violations: int,
        similarity: float,
        elapsed: float,
        iterations: int,
    ) -> None:
        self.hits += 1
        checkpoint: _Checkpoint = (
            int(violations), float(similarity), tuple(values), float(elapsed),
            int(iterations),
        )
        if self.store is not None:
            _keep_best_checkpoint(self.store, self.index, checkpoint)
        if self.sink is not None:
            self.sink.put((self.index,) + checkpoint)
        fault_point(
            SITE_MEMBER_PROGRESS, index=self.index, attempt=self.attempt, hit=self.hits
        )


def _keep_best_checkpoint(
    store: dict[int, _Checkpoint], index: int, checkpoint: _Checkpoint
) -> None:
    best = store.get(index)
    if best is None or checkpoint[0] < best[0]:
        store[index] = checkpoint


class _FaultLedger:
    """Accumulates recovery activity for ``stats["faults"]`` and obs."""

    def __init__(self) -> None:
        self.counts = {
            "crashes": 0,
            "hangs": 0,
            "corruptions": 0,
            "errors": 0,
            "retries": 0,
            "rebuilds": 0,
        }
        self.events: list[dict[str, Any]] = []
        self.recovered_members: list[int] = []
        self.lost_members: list[int] = []

    _KIND_COUNTS = {
        "crash": "crashes",
        "hang": "hangs",
        "corrupt": "corruptions",
        "error": "errors",
    }

    def record(self, kind: str, members: Sequence[int], attempt: int) -> None:
        self.counts[self._KIND_COUNTS[kind]] += 1
        self.events.append(
            {"kind": kind, "members": sorted(members), "attempt": attempt}
        )

    def any(self) -> bool:
        return bool(self.events) or any(self.counts.values())

    def report(self) -> dict[str, Any]:
        report: dict[str, Any] = dict(self.counts)
        report["events"] = list(self.events)
        report["recovered_members"] = sorted(self.recovered_members)
        report["lost_members"] = sorted(self.lost_members)
        return report


# Per-process state: the instance and its evaluator are materialised once per
# worker (pool initializer) instead of once per task, so shipping a large
# instance costs one pickle per core, not one per restart.
_WORKER_INSTANCE: ProblemInstance | None = None
_WORKER_EVALUATOR: QueryEvaluator | None = None
_WORKER_OBSERVE: bool = False
_WORKER_CHECKPOINTS: Any = None


def _init_worker(
    instance: ProblemInstance | None,
    observe_members: bool = False,
    fault_plan: dict[str, Any] | None = None,
    checkpoint_queue: Any = None,
    warm: Any = None,
) -> None:
    """Pool initializer; ``warm`` (a :class:`~repro.warm.plane.WarmInstanceSpec`)
    replaces the pickled ``instance`` with an attach to published shared
    memory — the attach-don't-rebuild path of the warm plane.  Pool rebuilds
    reuse the same initargs, so recovered workers re-attach to the *same*
    segments; nothing is re-published."""
    global _WORKER_INSTANCE, _WORKER_EVALUATOR, _WORKER_OBSERVE, _WORKER_CHECKPOINTS
    if instance is None:
        assert warm is not None, "pool initializer needs an instance or a warm spec"
        from ..warm.plane import attach_instance  # local: warm/ is optional here

        instance = attach_instance(warm)
    _WORKER_INSTANCE = instance
    _WORKER_EVALUATOR = QueryEvaluator(instance)
    _WORKER_OBSERVE = observe_members
    _WORKER_CHECKPOINTS = checkpoint_queue
    activate_plan(FaultPlan.from_dict(fault_plan))


def _run_member_in_worker(task: _MemberTask) -> RunResult:
    """Pool-worker entry point for one supervised member dispatch.

    An injected crash becomes a genuine dead process (``os._exit``) so the
    parent exercises the real ``BrokenProcessPool`` recovery path, not a
    simulation of it.
    """
    assert _WORKER_INSTANCE is not None and _WORKER_EVALUATOR is not None
    spec, attempt = task.spec, task.attempt
    try:
        recorder: _CheckpointRecorder | None = None
        if _WORKER_CHECKPOINTS is not None or active_plan() is not None:
            recorder = _CheckpointRecorder(
                spec.index, attempt, sink=_WORKER_CHECKPOINTS
            )
        with checkpointing(recorder):
            fault_point(SITE_MEMBER_START, index=spec.index, attempt=attempt)
            result = _observed_spec_run(
                spec, _WORKER_INSTANCE, _WORKER_EVALUATOR, _WORKER_OBSERVE
            )
        if corruption_at(SITE_MEMBER_RESULT, index=spec.index, attempt=attempt):
            result = replace(result, best_violations=-1)
        return result
    except InjectedCrash:
        os._exit(CRASH_EXIT_CODE)
        raise  # pragma: no cover - unreachable


def _observed_spec_run(
    spec: RunSpec,
    instance: ProblemInstance,
    evaluator: QueryEvaluator,
    observe_members: bool,
) -> RunResult:
    """Run one spec, optionally under a fresh per-member observation.

    The member's metrics and events are exported as a picklable payload in
    ``result.stats["obs"]``; the parent pops and merges these (see
    :mod:`repro.obs.aggregate`).  Used identically by the inline path and
    the pool workers so merged output is worker-count independent.
    """
    if not observe_members:
        return _execute_spec(spec, instance, evaluator)
    with observe(Observation()) as member_observation:
        result = _execute_spec(spec, instance, evaluator)
    result.stats["obs"] = export_state(member_observation)
    return result


def _execute_spec(
    spec: RunSpec, instance: ProblemInstance, evaluator: QueryEvaluator
) -> RunResult:
    from .two_step import HEURISTICS  # local import: avoids a module cycle

    try:
        runner = HEURISTICS[spec.heuristic]
    except KeyError:
        known = ", ".join(sorted(HEURISTICS))
        raise ValueError(
            f"unknown heuristic {spec.heuristic!r}; known: {known}"
        ) from None
    if spec.warm_start is not None:
        return runner(
            instance, spec.budget(), spec.seed, evaluator, warm_start=spec.warm_start
        )
    return runner(instance, spec.budget(), spec.seed, evaluator)


def _result_is_valid(result: Any, num_variables: int) -> bool:
    """Structural validation applied to every member result.

    Catches corrupted payloads (injected or real): negative scores and
    assignments of the wrong arity can never come from a correct run.
    """
    if not isinstance(result, RunResult):
        return False
    if result.best_violations < 0 or result.iterations < 0:
        return False
    assignment = result.best_assignment
    return not assignment or len(assignment) == num_variables


def _result_from_checkpoint(spec: RunSpec, checkpoint: _Checkpoint) -> RunResult:
    """Synthesise a member's result from its best streamed incumbent."""
    violations, similarity, values, elapsed, iterations = checkpoint
    trace = ConvergenceTrace()
    trace.record(elapsed, iterations, violations, similarity)
    return RunResult(
        algorithm=f"{spec.heuristic}(checkpoint)",
        best_assignment=values,
        best_violations=violations,
        best_similarity=similarity,
        elapsed=elapsed,
        iterations=iterations,
        milestones=0,
        trace=trace,
        stats={"checkpoint": True},
    )


def _lost_member_result(spec: RunSpec) -> RunResult:
    """Sentinel result for a member lost beyond recovery (no checkpoint)."""
    return RunResult(
        algorithm=f"{spec.heuristic}(lost)",
        best_assignment=(),
        best_violations=LOST_MEMBER_VIOLATIONS,
        best_similarity=0.0,
        elapsed=0.0,
        iterations=0,
        milestones=0,
        trace=ConvergenceTrace(),
        stats={"lost": True},
    )


def _drain_checkpoints(sink: Any, store: dict[int, _Checkpoint]) -> None:
    if sink is None:
        return
    draining = True
    while draining:
        try:
            payload = sink.get_nowait()
        except queue_module.Empty:
            draining = False
        else:
            index = int(payload[0])
            _keep_best_checkpoint(store, index, tuple(payload[1:]))  # type: ignore[arg-type]


def _terminate_pool(pool: ProcessPoolExecutor) -> None:
    """Abandon a broken or wedged pool without waiting on its workers."""
    pool.shutdown(wait=False, cancel_futures=True)
    processes = getattr(pool, "_processes", None)
    if not processes:
        return
    for process in list(processes.values()):
        try:
            process.terminate()
        except (OSError, ValueError):  # already gone / closed handle
            pass


# ----------------------------------------------------------------------
# supervised execution
# ----------------------------------------------------------------------
def _supervised_inline_run(
    instance: ProblemInstance,
    specs: list[RunSpec],
    evaluator: QueryEvaluator,
    observe_members: bool,
    plan: FaultPlan | None,
    policy: SupervisionPolicy,
    want_checkpoints: bool,
    ledger: _FaultLedger,
    checkpoints: dict[int, _Checkpoint],
) -> dict[int, RunResult]:
    """Reference single-process path with the same recovery semantics.

    Hang faults cannot be interrupted without a second thread of control,
    so inline they degrade to ``slow``; every other fault kind retries and
    checkpoint-recovers exactly like the pool path.
    """
    results: dict[int, RunResult] = {}
    # the plan may have been passed explicitly rather than ambiently; the
    # hooks read process-global state, so (re-)activate it for the run
    with inject(plan):
        for spec in specs:
            # bounded retry loop, not a search loop: one clean attempt plus
            # member_retries re-runs; exhausted members are synthesised from
            # checkpoints by the caller
            for attempt in range(policy.member_retries + 1):
                recorder: _CheckpointRecorder | None = None
                if want_checkpoints or plan is not None:
                    recorder = _CheckpointRecorder(
                        spec.index, attempt, store=checkpoints
                    )
                failure: str | None = None
                try:
                    with checkpointing(recorder):
                        fault_point(
                            SITE_MEMBER_START, index=spec.index, attempt=attempt
                        )
                        result = _observed_spec_run(
                            spec, instance, evaluator, observe_members
                        )
                    if corruption_at(
                        SITE_MEMBER_RESULT, index=spec.index, attempt=attempt
                    ) or not _result_is_valid(result, instance.num_variables):
                        failure = "corrupt"
                except InjectedCrash:
                    failure = "crash"
                except InjectedError:
                    failure = "error"
                if failure is None:
                    results[spec.index] = result
                    break
                ledger.record(failure, [spec.index], attempt)
                if attempt < policy.member_retries:
                    ledger.counts["retries"] += 1
    return results


def _supervised_pool_run(
    instance: ProblemInstance,
    specs: list[RunSpec],
    workers: int,
    observe_members: bool,
    plan: FaultPlan | None,
    policy: SupervisionPolicy,
    want_checkpoints: bool,
    ledger: _FaultLedger,
    checkpoints: dict[int, _Checkpoint],
    warm: Any = None,
) -> dict[int, RunResult]:
    """Run specs on a supervised process pool; returns completed results.

    Members missing from the returned mapping exhausted their retries (or
    the rebuild budget ran out); the caller synthesises them from
    checkpoints.
    """
    spec_by_index = {spec.index: spec for spec in specs}
    attempts = {spec.index: 0 for spec in specs}
    exhausted: set[int] = set()
    results: dict[int, RunResult] = {}
    plan_payload = plan.to_dict() if plan is not None else None

    manager = None
    sink = None
    if want_checkpoints:
        # a Manager queue proxy pickles through initargs (a raw
        # multiprocessing.Queue does not); the manager process is only paid
        # for when recovery is wanted
        manager = multiprocessing.Manager()
        sink = manager.Queue()

    rebuilds = 0
    try:
        todo = sorted(spec_by_index)
        while todo:
            # with a warm spec the instance never pickles through initargs:
            # workers attach to the published segments instead, and every
            # rebuild re-attaches to the same ones
            pool = ProcessPoolExecutor(
                max_workers=min(workers, len(todo)),
                initializer=_init_worker,
                initargs=(
                    None if warm is not None else instance,
                    observe_members,
                    plan_payload,
                    sink,
                    warm,
                ),
            )
            failure: str | None = None
            try:
                futures = {
                    pool.submit(
                        _run_member_in_worker,
                        _MemberTask(spec_by_index[index], attempts[index]),
                    ): index
                    for index in todo
                }
                not_done = set(futures)
                while not_done:
                    done, not_done = wait(
                        not_done,
                        timeout=policy.hang_timeout,
                        return_when=FIRST_COMPLETED,
                    )
                    if not done:
                        raise _PoolHang()
                    crashed = False
                    for future in done:
                        index = futures.pop(future)
                        try:
                            result = future.result()
                        except BrokenExecutor:
                            crashed = True
                            continue
                        except InjectedError:
                            # raised inside a healthy worker: the pool
                            # survives, only this member retries
                            _retry_on_pool(
                                pool, futures, not_done, spec_by_index, attempts,
                                exhausted, policy, ledger, index, "error",
                            )
                            continue
                        if not _result_is_valid(result, instance.num_variables):
                            _retry_on_pool(
                                pool, futures, not_done, spec_by_index, attempts,
                                exhausted, policy, ledger, index, "corrupt",
                            )
                            continue
                        results[index] = result
                    if crashed:
                        raise BrokenExecutor("worker process died mid-run")
                pool.shutdown(wait=True)
            except BrokenExecutor:
                failure = "crash"
                _terminate_pool(pool)
            except _PoolHang:
                failure = "hang"
                _terminate_pool(pool)
            except BaseException:
                _terminate_pool(pool)
                raise
            if failure is not None:
                # -- pool-level failure: charge unfinished members, rebuild
                _drain_checkpoints(sink, checkpoints)
                unfinished = [
                    index
                    for index in todo
                    if index not in results and index not in exhausted
                ]
                ledger.record(failure, unfinished, rebuilds)
                for index in unfinished:
                    attempts[index] += 1
                    if attempts[index] > policy.member_retries:
                        exhausted.add(index)
                    else:
                        ledger.counts["retries"] += 1
                remaining = [
                    index for index in unfinished if index not in exhausted
                ]
                if remaining:
                    if rebuilds >= policy.max_rebuilds:
                        exhausted.update(remaining)
                        break
                    rebuilds += 1
                    ledger.counts["rebuilds"] += 1
                    backoff = policy.backoff(rebuilds)
                    if backoff > 0:
                        time.sleep(backoff)
            todo = [
                index
                for index in todo
                if index not in results and index not in exhausted
            ]
    finally:
        _drain_checkpoints(sink, checkpoints)
        if manager is not None:
            manager.shutdown()
    return results


def _retry_on_pool(
    pool: ProcessPoolExecutor,
    futures: dict[Any, int],
    not_done: set[Any],
    spec_by_index: dict[int, RunSpec],
    attempts: dict[int, int],
    exhausted: set[int],
    policy: SupervisionPolicy,
    ledger: _FaultLedger,
    index: int,
    kind: str,
) -> None:
    """Re-dispatch one faulted member onto the still-healthy pool."""
    ledger.record(kind, [index], attempts[index])
    attempts[index] += 1
    if attempts[index] > policy.member_retries:
        exhausted.add(index)
        return
    ledger.counts["retries"] += 1
    future = pool.submit(
        _run_member_in_worker, _MemberTask(spec_by_index[index], attempts[index])
    )
    futures[future] = index
    not_done.add(future)


def run_specs(
    instance: ProblemInstance,
    specs: list[RunSpec],
    workers: int | None = None,
    evaluator: QueryEvaluator | None = None,
    observe_members: bool | None = None,
    fault_plan: FaultPlan | None = None,
    supervision: SupervisionPolicy | None = None,
    checkpoints: bool | None = None,
    warm: Any = None,
) -> list[RunResult]:
    """Execute ``specs`` and return their results in spec order.

    ``workers=1`` (or a single spec) runs inline in this process — no pool,
    no pickling — which is also the reference behaviour the determinism
    tests compare multi-worker runs against.

    ``observe_members=None`` observes members exactly when the calling
    process has an active observation; each member then ships its metrics
    and events back in ``result.stats["obs"]``.

    ``warm`` (a :class:`~repro.warm.plane.WarmInstanceSpec`) makes pool
    workers attach to published shared-memory segments instead of
    receiving the pickled ``instance``; the inline path ignores it (the
    caller already holds the instance).

    See :func:`run_specs_supervised` for the fault-handling parameters.
    """
    results, _ = run_specs_supervised(
        instance,
        specs,
        workers=workers,
        evaluator=evaluator,
        observe_members=observe_members,
        fault_plan=fault_plan,
        supervision=supervision,
        checkpoints=checkpoints,
        warm=warm,
    )
    return results


def run_specs_supervised(
    instance: ProblemInstance,
    specs: list[RunSpec],
    workers: int | None = None,
    evaluator: QueryEvaluator | None = None,
    observe_members: bool | None = None,
    fault_plan: FaultPlan | None = None,
    supervision: SupervisionPolicy | None = None,
    checkpoints: bool | None = None,
    warm: Any = None,
) -> tuple[list[RunResult], dict[str, Any] | None]:
    """Supervised :func:`run_specs`: results plus a fault report.

    ``fault_plan`` defaults to the process-ambient plan (see
    :func:`repro.faults.activate_plan`); ``supervision`` defaults to
    :class:`SupervisionPolicy`'s defaults.  ``checkpoints=None`` enables
    incumbent streaming exactly when a fault plan is active — forced on
    with ``True`` when recovery from *real* crashes should also preserve
    incumbents (at the cost of a manager process per pool).

    The returned report is ``None`` when nothing faulted; otherwise the
    dict also attached by :func:`parallel_restarts` as ``stats["faults"]``.
    """
    workers = default_workers() if workers is None else max(1, workers)
    if observe_members is None:
        observe_members = current().enabled
    plan = fault_plan if fault_plan is not None else active_plan()
    if plan is not None and not plan:
        plan = None
    policy = supervision if supervision is not None else SupervisionPolicy()
    want_checkpoints = (plan is not None) if checkpoints is None else checkpoints
    ledger = _FaultLedger()
    checkpoint_store: dict[int, _Checkpoint] = {}

    if workers == 1 or len(specs) <= 1:
        evaluator = evaluator or QueryEvaluator(instance)
        results = _supervised_inline_run(
            instance, specs, evaluator, observe_members, plan, policy,
            want_checkpoints, ledger, checkpoint_store,
        )
    else:
        results = _supervised_pool_run(
            instance, specs, workers, observe_members, plan, policy,
            want_checkpoints, ledger, checkpoint_store, warm=warm,
        )

    ordered: list[RunResult] = []
    for spec in specs:
        result = results.get(spec.index)
        if result is None:
            checkpoint = checkpoint_store.get(spec.index)
            if checkpoint is not None:
                result = _result_from_checkpoint(spec, checkpoint)
                ledger.recovered_members.append(spec.index)
            else:
                result = _lost_member_result(spec)
                ledger.lost_members.append(spec.index)
        ordered.append(result)
    report = ledger.report() if ledger.any() else None
    return ordered, report


def parallel_restarts(
    instance: ProblemInstance,
    budget: Budget,
    seed: int = 0,
    heuristic: str = "sea",
    restarts: int = 4,
    workers: int | None = None,
    evaluator: QueryEvaluator | None = None,
    fault_plan: FaultPlan | None = None,
    supervision: SupervisionPolicy | None = None,
    checkpoints: bool | None = None,
    warm_start: Sequence[int] | None = None,
    warm: Any = None,
) -> RunResult:
    """Best-of-``restarts`` independent runs of one heuristic.

    ``warm_start`` hands every member the same starting incumbent (each
    still explores from its own derived seed after that); ``warm`` is a
    :class:`~repro.warm.plane.WarmInstanceSpec` switching pool workers to
    shared-memory attach instead of instance pickling.

    Every member receives a fresh budget with the *same* limits (members run
    concurrently, so the wall-clock cost is one member's budget, not their
    sum) and the seed ``derive_seed(seed, index)``.  The returned result is
    the member with the fewest violations — ties broken by member index —
    with the members' traces merged into one monotone staircase and their
    summaries kept under ``stats["members"]``.

    Member execution is supervised (crash/hang/corrupt recovery, incumbent
    checkpointing — see the module docstring); any recovery activity is
    reported under ``stats["faults"]``.
    """
    if restarts < 1:
        raise ValueError(f"restarts must be >= 1, got {restarts}")
    warm_values = (
        tuple(int(value) for value in warm_start) if warm_start is not None else None
    )
    specs = [
        RunSpec(
            heuristic=heuristic,
            seed=derive_seed(seed, index),
            time_limit=budget.time_limit,
            max_iterations=budget.max_iterations,
            index=index,
            warm_start=warm_values,
        )
        for index in range(restarts)
    ]
    obs = current()
    watch = Stopwatch()
    with obs.span("parallel.run"):
        results, fault_report = run_specs_supervised(
            instance,
            specs,
            workers,
            evaluator,
            fault_plan=fault_plan,
            supervision=supervision,
            checkpoints=checkpoints,
            warm=warm,
        )
    elapsed = watch.elapsed()

    stats: dict[str, object] = {"restarts": restarts}
    if fault_report is not None:
        stats["faults"] = fault_report
        if obs.enabled:
            obs.counter("faults.crashes").inc(fault_report["crashes"])
            obs.counter("faults.hangs").inc(fault_report["hangs"])
            obs.counter("faults.corruptions").inc(fault_report["corruptions"])
            obs.counter("faults.retries").inc(fault_report["retries"])
            obs.counter("faults.rebuilds").inc(fault_report["rebuilds"])
            obs.counter("faults.recovered_members").inc(
                len(fault_report["recovered_members"])
            )
            obs.counter("faults.lost_members").inc(
                len(fault_report["lost_members"])
            )
    if obs.enabled:
        payloads = collect_exports([result.stats for result in results])
        merged_members = merge_states(payloads)
        replay_into(obs, merged_members)
        obs.counter("parallel.members").inc(len(results))
        stats["obs"] = {
            "members": merged_members["members"],
            "metrics": merged_members["metrics"],
            "events": len(merged_members["events"]),
        }

    best = min(enumerate(results), key=lambda pair: (pair[1].best_violations, pair[0]))
    winner_index, winner = best
    merged = _merge_concurrent_traces(results)
    stats["members"] = [member_stats(result) for result in results]
    stats["winner"] = winner_index
    return RunResult(
        algorithm=f"parallel({heuristic}×{restarts})",
        best_assignment=winner.best_assignment,
        best_violations=winner.best_violations,
        best_similarity=winner.best_similarity,
        elapsed=elapsed,
        iterations=sum(result.iterations for result in results),
        milestones=sum(result.milestones for result in results),
        trace=merged,
        stats=stats,
    )


def member_stats(result: RunResult) -> dict[str, object]:
    """Structured per-member digest kept under ``stats["members"]``.

    Includes the member's R*-tree work (``stats["index"]``, a
    :meth:`TreeStats.snapshot`-shaped delta) so parallel summaries account
    for index accesses, not just wall time.
    """
    return {
        "algorithm": result.algorithm,
        "violations": result.best_violations,
        "similarity": result.best_similarity,
        "iterations": result.iterations,
        "elapsed": result.elapsed,
        "index": result.stats.get("index"),
    }


def _merge_concurrent_traces(results: list[RunResult]) -> ConvergenceTrace:
    """Merge concurrent member traces into one improving staircase.

    Members run on a common wall clock, so points are interleaved by
    ``elapsed`` and only kept while they improve on everything seen earlier.
    """
    merged = ConvergenceTrace()
    points = sorted(
        (point for result in results for point in result.trace.points),
        key=lambda point: (point.elapsed, point.violations),
    )
    best = None
    for point in points:
        if best is None or point.violations < best:
            best = point.violations
            merged.record(
                point.elapsed, point.iterations, point.violations, point.similarity
            )
    return merged
