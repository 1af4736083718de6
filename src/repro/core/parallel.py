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
One loop, :func:`_supervise`, runs the members on an executor: the process
pool, or — for ``workers=1`` or a single spec — an in-process executor whose
``submit`` runs the member before returning.  A member-level fault (an
injected error, an invalid result, and inline an injected crash) retries
that member on the same executor.  An executor-level fault (a dead worker,
or no member completing within :attr:`SupervisionPolicy.hang_timeout`)
terminates the pool, charges its culprits — the member a worker killed by
an injected crash names before it exits, else every unfinished member — and
re-dispatches the unfinished members to a rebuilt pool after a capped
exponential backoff.  Every charge spends one of the member's
:attr:`SupervisionPolicy.member_retries`, which is what bounds rebuilds.
A retried member re-runs from its derived seed, so recovery never perturbs
worker-count-independent determinism.

While a fault plan is active (:func:`repro.faults.inject`), members stream
incumbent improvements back through a queue via
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
import itertools
import multiprocessing
import os
import queue as queue_module
import time
from concurrent.futures import (
    FIRST_COMPLETED, BrokenExecutor, Executor, Future, ProcessPoolExecutor, wait,
)
from dataclasses import dataclass, replace
from functools import partial
from typing import Any, Callable, Sequence

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
]

#: violations sentinel for a member lost beyond recovery: large enough to
#: lose every reduction, finite so payloads stay JSON-friendly
LOST_MEMBER_VIOLATIONS = 2**31

#: exit code of a worker process killed by an injected crash
CRASH_EXIT_CODE = 17

#: backoff slept before pool rebuild ``k``: ``min(cap, base · 2^(k-1))`` s
BACKOFF_BASE = 0.05
BACKOFF_CAP = 1.0


def derive_seed(base_seed: int, index: int) -> int:
    """A stable 64-bit seed for member ``index`` of a run seeded ``base_seed``.

    Hash-derived (BLAKE2b) rather than ``base_seed + index`` so that member
    streams are decorrelated and independent of Python's salted ``hash``.
    """
    digest = hashlib.blake2b(f"{base_seed}:{index}".encode(), digest_size=8).digest()
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
    ``hang_timeout``
        Hang detection: when *no* member completes within this many
        seconds, the pool is declared wedged, its processes are
        terminated, and unfinished members are re-dispatched.  ``None``
        (the default) disables detection — correct for wall-clock budgets
        where "no news for a while" is normal.  Inline members cannot be
        interrupted, so there a hang only makes the run slow.
    """

    member_retries: int = 2
    hang_timeout: float | None = None

    def __post_init__(self) -> None:
        if self.member_retries < 0:
            raise ValueError(f"member_retries must be >= 0, got {self.member_retries}")
        if self.hang_timeout is not None and self.hang_timeout <= 0:
            raise ValueError(f"hang_timeout must be positive, got {self.hang_timeout}")


@dataclass(frozen=True)
class _MemberEnv:
    """What a member body needs besides its spec and attempt.

    ``sink`` receives ``(index, checkpoint)`` records — ``(index, None)``
    names a member whose pool worker dies of an injected crash — and is
    ``None`` (nothing recorded) unless a fault plan is active.
    """

    instance: ProblemInstance
    evaluator: QueryEvaluator
    observe: bool
    sink: Any


class _PoolHang(RuntimeError):
    """No member completed within the supervision hang timeout."""


class _InlineExecutor(Executor):
    """An executor whose ``submit`` runs the call before returning.

    The ``workers=1`` path: no process, thread or pickling.  Injected
    member faults travel in the future exactly as a pool delivers them;
    anything else propagates from ``submit`` itself.
    """

    def submit(self, fn: Callable[..., Any], /, *args: Any, **kwargs: Any) -> Future[Any]:
        future: Future[Any] = Future()
        try:
            future.set_result(fn(*args, **kwargs))
        except (InjectedCrash, InjectedError) as fault:
            future.set_exception(fault)
        return future


#: checkpoint payload: (violations, similarity, values, elapsed, iterations)
_Checkpoint = tuple[int, float, tuple[int, ...], float, int]


def _checkpoint_recorder(index: int, attempt: int, sink: Any) -> Callable[..., None]:
    """The :func:`checkpoint_incumbent` hook for one member attempt.

    Posts every improvement to the sink *before* firing the
    ``parallel.member.progress`` fault site, so a crash injected at the
    k-th improvement finds the first k already published.
    """
    hits = itertools.count(1)

    def record(
        values: Sequence[int], violations: int, similarity: float, elapsed: float,
        iterations: int,
    ) -> None:
        checkpoint: _Checkpoint = (
            int(violations), float(similarity), tuple(values), float(elapsed),
            int(iterations),
        )
        sink.put((index, checkpoint))
        fault_point(SITE_MEMBER_PROGRESS, index=index, attempt=attempt, hit=next(hits))

    return record


def _drain_checkpoints(sink: Any, store: dict[int, _Checkpoint]) -> set[int]:
    """Keep each member's best posted checkpoint in ``store``.

    Returns the members whose pool worker reported an injected crash (a
    worker posts that before it exits, so it is queued by the time the
    pool reads as broken).  A record still in flight from a terminated
    bystander is picked up by the final drain.
    """
    crashed: set[int] = set()
    if sink is None:
        return crashed
    while not sink.empty():
        index, checkpoint = sink.get_nowait()
        if checkpoint is None:
            crashed.add(index)
        elif index not in store or checkpoint[0] < store[index][0]:
            store[index] = checkpoint
    return crashed


class _FaultLedger:
    """Member attempts and the recovery activity behind ``stats["faults"]`` and obs.

    Counts are per fault; events are per charged member, each recording
    the attempt that member was on.
    """

    _KIND_COUNTS = {
        "crash": "crashes", "hang": "hangs", "corrupt": "corruptions", "error": "errors",
    }

    def __init__(self, members: Sequence[int], member_retries: int) -> None:
        self.attempts = dict.fromkeys(members, 0)
        self.member_retries = member_retries
        self.counts = dict.fromkeys(
            ("crashes", "hangs", "corruptions", "errors", "retries", "rebuilds"), 0
        )
        self.events: list[dict[str, Any]] = []
        self.recovered_members: list[int] = []
        self.lost_members: list[int] = []

    def may_retry(self, index: int) -> bool:
        return self.attempts[index] <= self.member_retries

    def charge(self, kind: str, members: Sequence[int]) -> None:
        """One fault of ``kind``; each member spends the attempt it was on."""
        self.counts[self._KIND_COUNTS[kind]] += 1
        for index in members:
            self.events.append(
                {"kind": kind, "member": index, "attempt": self.attempts[index]}
            )
            self.attempts[index] += 1
            if self.may_retry(index):
                self.counts["retries"] += 1

    def report(self) -> dict[str, Any] | None:
        """The ``stats["faults"]`` dict, or ``None`` when nothing faulted."""
        if not any(self.counts.values()):
            return None
        report: dict[str, Any] = dict(self.counts)
        report["events"] = list(self.events)
        report["recovered_members"] = sorted(self.recovered_members)
        report["lost_members"] = sorted(self.lost_members)
        return report


# Per-process state: the instance and its evaluator are materialised once per
# worker (pool initializer) instead of once per task, so shipping a large
# instance costs one pickle per core, not one per restart.
_WORKER_ENV: _MemberEnv | None = None


def _init_worker(
    instance: ProblemInstance,
    observe_members: bool,
    fault_plan: dict[str, Any] | None,
    sink: Any,
) -> None:
    global _WORKER_ENV
    _WORKER_ENV = _MemberEnv(instance, QueryEvaluator(instance), observe_members, sink)
    activate_plan(FaultPlan.from_dict(fault_plan))


def _run_member_in_worker(spec: RunSpec, attempt: int) -> RunResult:
    """Pool-worker entry point for one member dispatch.

    An injected crash names its member through the sink, then becomes a
    genuine dead process (``os._exit``) so the parent exercises the real
    ``BrokenProcessPool`` recovery path, not a simulation of it.
    """
    env = _WORKER_ENV
    assert env is not None
    try:
        return _run_member(spec, attempt, env)
    except InjectedCrash:
        env.sink.put((spec.index, None))  # crashes only fire under a plan
        os._exit(CRASH_EXIT_CODE)


def _run_member(spec: RunSpec, attempt: int, env: _MemberEnv) -> RunResult:
    """One member attempt, on either executor.

    Fires the start fault site, runs the spec with incumbents checkpointed
    (while a plan is active) and — when the parent observes — under a fresh
    per-member observation exported in ``result.stats["obs"]``, then applies
    any injected result corruption.
    """
    recorder = None
    if env.sink is not None:
        recorder = _checkpoint_recorder(spec.index, attempt, env.sink)
    with checkpointing(recorder):
        fault_point(SITE_MEMBER_START, index=spec.index, attempt=attempt)
        if env.observe:
            with observe(Observation()) as member_observation:
                result = _execute_spec(spec, env)
            result.stats["obs"] = export_state(member_observation)
        else:
            result = _execute_spec(spec, env)
    if corruption_at(SITE_MEMBER_RESULT, index=spec.index, attempt=attempt):
        result = replace(result, best_violations=-1)
    return result


def _execute_spec(spec: RunSpec, env: _MemberEnv) -> RunResult:
    from .two_step import HEURISTICS  # local import: avoids a module cycle

    try:
        runner = HEURISTICS[spec.heuristic]
    except KeyError:
        known = ", ".join(sorted(HEURISTICS))
        raise ValueError(f"unknown heuristic {spec.heuristic!r}; known: {known}") from None
    return runner(
        env.instance, spec.budget(), spec.seed, env.evaluator, warm_start=spec.warm_start
    )


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


def _synthesised_result(spec: RunSpec, checkpoint: _Checkpoint | None) -> RunResult:
    """A member's result rebuilt from its best streamed incumbent — or, with
    none, the lost-member sentinel, which loses every reduction."""
    trace = ConvergenceTrace()
    if checkpoint is None:
        label = "lost"
        violations, similarity, values = LOST_MEMBER_VIOLATIONS, 0.0, ()
        elapsed, iterations = 0.0, 0
    else:
        label = "checkpoint"
        violations, similarity, values, elapsed, iterations = checkpoint
        trace.record(elapsed, iterations, violations, similarity)
    return RunResult(
        algorithm=f"{spec.heuristic}({label})",
        best_assignment=values,
        best_violations=violations,
        best_similarity=similarity,
        elapsed=elapsed,
        iterations=iterations,
        milestones=0,
        trace=trace,
        stats={label: True},
    )


def _terminate_pool(pool: Executor) -> None:
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
def _supervise(
    specs: list[RunSpec],
    new_executor: Callable[[int], Executor],
    run: Callable[[RunSpec, int], RunResult],
    num_variables: int,
    hang_timeout: float | None,
    ledger: _FaultLedger,
    drain: Callable[[], set[int]],
) -> dict[int, RunResult]:
    """Run every spec to a valid result or until its retries run out.

    ``new_executor(n)`` builds an executor for ``n`` members; ``run`` is
    the member body it executes; ``drain`` collects checkpoints and returns
    the members that reported an injected crash.  Returns the valid results
    by member index — members missing from it exhausted their retries and
    are synthesised by the caller.
    """
    spec_of = {spec.index: spec for spec in specs}
    results: dict[int, RunResult] = {}

    def unfinished() -> list[int]:
        return [i for i in spec_of if i not in results and ledger.may_retry(i)]

    rebuilds = 0
    todo = unfinished()
    while todo:
        executor = new_executor(len(todo))
        pending: dict[Future[RunResult], int] = {}
        try:
            while todo or pending:
                for index in todo:
                    pending[executor.submit(run, spec_of[index], ledger.attempts[index])] = index
                todo = []
                done, _ = wait(pending, timeout=hang_timeout, return_when=FIRST_COMPLETED)
                if not done:
                    raise _PoolHang()
                broken = False
                for future in done:
                    index = pending.pop(future)
                    try:
                        result = future.result()
                    except BrokenExecutor:
                        broken = True
                        continue
                    except InjectedCrash:  # inline only: a pool worker exits
                        kind = "crash"
                    except InjectedError:
                        kind = "error"
                    else:
                        if _result_is_valid(result, num_variables):
                            results[index] = result
                            continue
                        kind = "corrupt"
                    # member-level fault: retry on the same executor
                    ledger.charge(kind, [index])
                    if ledger.may_retry(index):
                        todo.append(index)
                if broken:
                    raise BrokenExecutor("worker process died mid-run")
            executor.shutdown(wait=True)
        except (BrokenExecutor, _PoolHang) as failure:
            # executor-level fault: charge the culprits, rebuild for the rest
            _terminate_pool(executor)
            todo = unfinished()
            named = sorted(drain().intersection(todo))
            ledger.charge("hang" if isinstance(failure, _PoolHang) else "crash", named or todo)
            todo = unfinished()
            if todo:
                rebuilds += 1
                ledger.counts["rebuilds"] += 1
                time.sleep(min(BACKOFF_CAP, BACKOFF_BASE * 2.0 ** (rebuilds - 1)))
        except BaseException:
            _terminate_pool(executor)
            raise
    return results


def run_specs(
    instance: ProblemInstance,
    specs: list[RunSpec],
    workers: int | None = None,
    evaluator: QueryEvaluator | None = None,
    supervision: SupervisionPolicy | None = None,
) -> tuple[list[RunResult], dict[str, Any] | None]:
    """Execute ``specs`` under supervision: results in spec order, fault report.

    ``workers=1`` (or a single spec) runs inline in this process — no pool,
    no pickling, one member call per spec in spec order while nothing
    faults — which is also the reference behaviour the determinism tests
    compare multi-worker runs against.

    Members are observed exactly when the calling process has an active
    observation; each then ships its metrics and events back in
    ``result.stats["obs"]``.  Faults fire from the ambient plan
    (:func:`repro.faults.inject`), and incumbents are checkpointed exactly
    while one is active.  ``supervision`` defaults to
    :class:`SupervisionPolicy`'s defaults.

    The report is ``None`` when nothing faulted; otherwise the dict
    :func:`best_of_members` attaches as ``stats["faults"]``.
    """
    workers = default_workers() if workers is None else max(1, workers)
    observe_members = current().enabled
    plan = active_plan()
    inline = workers == 1 or len(specs) <= 1
    manager = None
    sink: Any = None
    if plan is not None and inline:
        sink = queue_module.SimpleQueue()
    elif plan is not None:
        # a Manager queue proxy pickles through initargs (a raw
        # multiprocessing.Queue does not); paid for only under a plan
        manager = multiprocessing.Manager()
        sink = manager.Queue()
    run: Callable[[RunSpec, int], RunResult] = _run_member_in_worker
    if inline:
        env = _MemberEnv(
            instance, evaluator or QueryEvaluator(instance), observe_members, sink
        )
        run = partial(_run_member, env=env)
    plan_payload = plan.to_dict() if plan is not None else None

    def new_executor(members: int) -> Executor:
        if inline:
            return _InlineExecutor()
        return ProcessPoolExecutor(
            max_workers=min(workers, members),
            initializer=_init_worker,
            initargs=(instance, observe_members, plan_payload, sink),
        )

    policy = supervision or SupervisionPolicy()
    ledger = _FaultLedger([spec.index for spec in specs], policy.member_retries)
    checkpoints: dict[int, _Checkpoint] = {}
    try:
        results = _supervise(
            specs, new_executor, run, instance.num_variables, policy.hang_timeout,
            ledger, partial(_drain_checkpoints, sink, checkpoints),
        )
    finally:
        _drain_checkpoints(sink, checkpoints)
        if manager is not None:
            manager.shutdown()

    ordered: list[RunResult] = []
    for spec in specs:
        result = results.get(spec.index)
        if result is None:
            checkpoint = checkpoints.get(spec.index)
            synthesised = ledger.lost_members if checkpoint is None else ledger.recovered_members
            synthesised.append(spec.index)
            result = _synthesised_result(spec, checkpoint)
        ordered.append(result)
    return ordered, ledger.report()


def best_of_members(
    results: list[RunResult],
    fault_report: dict[str, Any] | None,
    *,
    algorithm: str,
    elapsed: float,
    milestones: int,
    stats: dict[str, object],
) -> RunResult:
    """The best-of reduction shared by restarts and concurrent portfolios.

    Adds to ``stats`` the fault report (``"faults"``), the members' merged
    observations (``"obs"``, replayed into the ambient observation), one
    :func:`member_stats` digest per member (``"members"``) and the winner's
    index (``"winner"``): the member with the fewest violations, ties
    broken by member index.  The members' traces merge into one monotone
    staircase.
    """
    obs = current()
    if fault_report is not None:
        stats["faults"] = fault_report
        if obs.enabled:
            obs.counter("faults.crashes").inc(fault_report["crashes"])
            obs.counter("faults.hangs").inc(fault_report["hangs"])
            obs.counter("faults.corruptions").inc(fault_report["corruptions"])
            obs.counter("faults.retries").inc(fault_report["retries"])
            obs.counter("faults.rebuilds").inc(fault_report["rebuilds"])
            obs.counter("faults.recovered_members").inc(len(fault_report["recovered_members"]))
            obs.counter("faults.lost_members").inc(len(fault_report["lost_members"]))
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

    winner_index, winner = min(
        enumerate(results), key=lambda pair: (pair[1].best_violations, pair[0])
    )
    stats["members"] = [member_stats(result) for result in results]
    stats["winner"] = winner_index
    return RunResult(
        algorithm=algorithm,
        best_assignment=winner.best_assignment,
        best_violations=winner.best_violations,
        best_similarity=winner.best_similarity,
        elapsed=elapsed,
        iterations=sum(result.iterations for result in results),
        milestones=milestones,
        trace=_merge_concurrent_traces(results),
        stats=stats,
    )


def parallel_restarts(
    instance: ProblemInstance,
    budget: Budget,
    seed: int = 0,
    heuristic: str = "sea",
    restarts: int = 4,
    workers: int | None = None,
    evaluator: QueryEvaluator | None = None,
    supervision: SupervisionPolicy | None = None,
    warm_start: Sequence[int] | None = None,
) -> RunResult:
    """Best-of-``restarts`` independent runs of one heuristic.

    ``warm_start`` hands every member the same starting incumbent (each
    still explores from its own derived seed after that).

    Every member receives a fresh budget with the *same* limits (members run
    concurrently, so the wall-clock cost is one member's budget, not their
    sum) and the seed ``derive_seed(seed, index)``.  The returned result is
    the member with the fewest violations — ties broken by member index —
    with the members' traces merged into one monotone staircase and their
    summaries kept under ``stats["members"]`` (see :func:`best_of_members`).

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
    watch = Stopwatch()
    with current().span("parallel.run"):
        results, fault_report = run_specs(
            instance, specs, workers, evaluator, supervision
        )
    return best_of_members(
        results,
        fault_report,
        algorithm=f"parallel({heuristic}×{restarts})",
        elapsed=watch.elapsed(),
        milestones=sum(result.milestones for result in results),
        stats={"restarts": restarts},
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
