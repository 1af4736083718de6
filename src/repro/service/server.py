"""Asyncio JSON-lines join server with caching and admission control.

One :class:`JoinServer` wires a
:class:`~repro.service.registry.DatasetRegistry` naming the data to an
executor pool running :func:`~repro.service.worker.run_solve_job` (the
anytime :func:`~repro.core.parallel.parallel_restarts` path).  The
solution cache, admission control and the solve pipeline around them
(resolve → lookup → admit → run → respond) are the shared front end's,
:class:`~repro.service.frame.LineFrame`; the server supplies the two
solve hooks: ``_resolve`` names the instance or datasets, ``_run`` warm
starts from a near-miss, builds the job and re-dispatches it after
worker crashes.

The event loop itself never solves anything: a connection handler
validates, consults the cache, asks for admission, and awaits the
executor.  Deadline expiry is the *graceful* path — the anytime search
returns its incumbent flagged ``"approximate": true`` — and overload is a
structured shed (``"overloaded"``, retryable), never a dropped connection.

Observability threads through the ambient observation: every request
emits a ``request`` event (the trace-compatible JSONL request log when
the observation sinks to a file), ``service.*`` counters and the
``service.queue.depth`` gauge track the flow, and worker-side
``service.solve`` spans are replayed into the server's trace via the
cross-process machinery in :mod:`repro.obs.aggregate`.
"""

from __future__ import annotations

import asyncio
import functools
from concurrent.futures import Executor, ProcessPoolExecutor, ThreadPoolExecutor
from typing import Any

from ..faults import FaultPlan, activate_plan
from ..obs import current, merge_states, replay_into
from ..query.hardness import ProblemInstance
from ..query.graph import QueryGraph
from ..warm.plane import WarmPlane
from .admission import Ticket
from .errors import classify_exception
from .frame import LineFrame, SolveCall
from .protocol import PROTOCOL_VERSION, error_response, ok_response
from .registry import DatasetRegistry
from .worker import SolveJob, build_query, init_service_worker, run_solve_job

__all__ = ["JoinServer"]

#: seconds of grace past a request's time budget before the server stops
#: waiting on a worker and reports a retryable ``timeout`` error (a
#: crashed/hung worker must not wedge the connection forever)
WORKER_GRACE_SECONDS = 30.0

#: re-dispatches one request may consume after worker crashes; the
#: remaining deadline is the real budget, this only bounds pathological
#: crash loops inside a long deadline
MAX_JOB_RETRIES = 3


class JoinServer(LineFrame):
    """Deadline-driven multiway-join query service.

    The JSON-lines front end (listener, read loop, request accounting,
    ``shutdown``, cache, admission and the solve pipeline) is
    :class:`~repro.service.frame.LineFrame`'s.

    Parameters
    ----------
    registry:
        The named datasets/instances this server may solve over.
    host / port:
        Listening address; port ``0`` picks a free one (read
        :attr:`address` after :meth:`start`).
    workers / executor:
        Pool size and kind.  ``"process"`` (the default) rebuilds the
        registry per worker via :func:`init_service_worker` and replays
        worker observations; ``"thread"`` shares this process's registry —
        handy for tests and tiny in-memory datasets, but solves then
        compete for the GIL and per-request solve spans are disabled.
    max_pending / default_deadline / max_deadline / cache_capacity:
        The front end's admission policy and solution cache size
        (``0`` disables caching), passed through to
        :class:`~repro.service.frame.LineFrame`.
    warm:
        Publish registry datasets into shared memory so process workers
        attach instead of re-loading (defaults to on for the process
        executor, off for threads, which already share this process's
        registry).  Pool rebuilds after crashes re-attach to the same
        segments; :meth:`stop` unlinks everything and records the
        lifecycle report in :attr:`warm_report`.
    fault_plan:
        Optional :class:`~repro.faults.FaultPlan` activated in every
        worker (and, for thread executors, in this process) — the chaos
        switchboard behind ``serve --fault-plan``.  ``None`` (the
        default) injects nothing.
    """

    NAMESPACE = "service"
    ROLE = "server"

    def __init__(
        self,
        registry: DatasetRegistry,
        *,
        host: str = "127.0.0.1",
        port: int = 0,
        workers: int = 2,
        executor: str = "process",
        warm: bool | None = None,
        fault_plan: FaultPlan | None = None,
        **front_end: Any,
    ) -> None:
        if workers < 1:
            raise ValueError(f"workers must be >= 1, got {workers}")
        if executor not in ("process", "thread"):
            raise ValueError(f"executor must be 'process' or 'thread', got {executor!r}")
        super().__init__(host, port, **front_end)
        self.registry = registry
        self.workers = workers
        self.executor_kind = executor
        self.warm = (executor == "process") if warm is None else bool(warm)
        self.fault_plan = fault_plan if (fault_plan is not None and fault_plan) else None
        self.pool_rebuilds = 0
        self.jobs_retried = 0
        #: dispatch classification for the cross-request incumbent tier
        #: (exact cache hits are the cache's own ``hits``)
        self.warm_starts = 0
        self.warm_cold = 0
        #: shared-memory plane, created with the first process pool
        self._warm_plane: WarmPlane | None = None
        #: segment lifecycle report from the plane, filled by :meth:`stop`
        self.warm_report: dict[str, Any] | None = None
        #: monotonic dispatch counter: the ``service.job`` fault index
        self._jobs_dispatched = 0
        self._previous_plan: FaultPlan | None = None
        self._executor: Executor | None = None
        #: names shipped to process workers at pool creation; anything
        #: registered later (or memory-only) is solved from an inline copy
        self._worker_names: set[str] | None = None
        self._stopped = False

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def _build_process_executor(self) -> ProcessPoolExecutor:
        spec = self.registry.spec()
        if self.warm:
            spec = self._overlay_warm(spec)
        self._worker_names = set(spec["datasets"]) | set(spec["instances"])
        plan_payload = self.fault_plan.to_dict() if self.fault_plan else None
        return ProcessPoolExecutor(
            max_workers=self.workers,
            initializer=init_service_worker,
            initargs=(spec, plan_payload),
        )

    def _overlay_warm(self, spec: dict[str, Any]) -> dict[str, Any]:
        """Swap loadable registry entries for shared-memory warm specs.

        Instances publish first so their member datasets land under the
        registry's ``{name}/{index}`` labels; standalone datasets publish
        under their own names.  ``ensure_published`` is idempotent, so a
        pool rebuild after a crash ships the *same* specs again and the
        fresh workers re-attach — nothing is ever re-published (the fault
        tests pin the plane's publish counter across rebuilds).
        """
        if self._warm_plane is None:
            self._warm_plane = WarmPlane()
        plane = self._warm_plane
        for name in self.registry.instance_names():
            warm = plane.instance_spec(name, self.registry.instance(name))
            spec["instances"][name] = {"kind": "warm", "path": None, "payload": warm}
            for index, member in enumerate(warm.datasets):
                spec["datasets"][f"{name}/{index}"] = {
                    "kind": "warm",
                    "path": None,
                    "payload": member,
                }
        for name in self.registry.dataset_names():
            listed = spec["datasets"].get(name)
            if listed is not None and listed["kind"] == "warm":
                continue
            member = plane.ensure_published(name, self.registry.dataset(name))
            spec["datasets"][name] = {"kind": "warm", "path": None, "payload": member}
        return spec

    async def start(self) -> None:
        """Warm the registry, spin up the pool, and start listening."""
        self._stopped = False
        # registry warming and pool construction read datasets off disk;
        # keep that I/O off the event loop even during startup
        await asyncio.to_thread(self.registry.warm)
        if self._executor is None:
            if self.executor_kind == "process":
                self._executor = await asyncio.to_thread(
                    self._build_process_executor
                )
            else:
                self._worker_names = None
                self._executor = ThreadPoolExecutor(max_workers=self.workers)
                if self.fault_plan is not None:
                    # thread workers share this process; the plan is
                    # ambient.  A plan-less server must NOT touch the
                    # global slot — it would deactivate a chaos plan some
                    # other component (e.g. the fleet router) installed.
                    self._previous_plan = activate_plan(self.fault_plan)
        await self._listen()

    async def stop(self) -> None:
        """Close the listener, drop open connections, shut the pool down.

        Explicitly idempotent: a second ``stop()`` (e.g. a fleet handle
        tearing down after ``stop_shard`` already killed this server) is
        a no-op rather than re-walking half-released resources.
        """
        if self._stopped:
            return
        self._stopped = True
        await self._close()
        if self._executor is not None:
            self._executor.shutdown(wait=True, cancel_futures=True)
            self._executor = None
            if self.executor_kind == "thread" and self.fault_plan is not None:
                activate_plan(self._previous_plan)
                self._previous_plan = None
        if self._warm_plane is not None:
            # workers are gone; unlink every published segment and keep
            # the lifecycle report (tests assert ``leaked == []``)
            self.warm_report = self._warm_plane.shutdown()
            self._warm_plane = None

    async def _dispatch(
        self, record: dict[str, Any], request_id: str, op: str
    ) -> dict[str, Any]:
        if op == "ping":
            return ok_response(request_id, op, version=PROTOCOL_VERSION)
        if op == "datasets":
            return ok_response(
                request_id,
                op,
                datasets=self.registry.dataset_names(),
                instances=self.registry.instance_names(),
            )
        if op == "stats":
            return ok_response(request_id, op, **self.stats())
        assert op == "register"
        return self._handle_register(record, request_id)

    def stats(self) -> dict[str, Any]:
        """Live service counters for the ``stats`` op (and tests)."""
        return {
            **super().stats(),
            "workers": self.workers,
            "executor": self.executor_kind,
            "pool_rebuilds": self.pool_rebuilds,
            "jobs_retried": self.jobs_retried,
            "warm": {
                "enabled": self.warm,
                "exact_hits": self.cache.hits if self.cache is not None else 0,
                "warm_starts": self.warm_starts,
                "cold": self.warm_cold,
                "published_datasets": (
                    len(self._warm_plane.published)
                    if self._warm_plane is not None
                    else 0
                ),
            },
        }

    def _handle_register(
        self, record: dict[str, Any], request_id: str
    ) -> dict[str, Any]:
        """Register a dataset file or instance directory by path."""
        name, path = record["name"], record["path"]
        try:
            from pathlib import Path

            if (Path(path) / "instance.json").is_file():
                self.registry.register_instance_dir(name, path)
                kind = "instance"
            else:
                self.registry.register_path(name, path)
                kind = "dataset"
        except (FileNotFoundError, ValueError) as error:
            return error_response(request_id, "register", "bad_request", str(error))
        return ok_response(request_id, "register", name=name, kind=kind)

    # ------------------------------------------------------------------
    # solve hooks (the pipeline is LineFrame._handle_solve)
    # ------------------------------------------------------------------
    async def _resolve(self, record: dict[str, Any]) -> tuple[QueryGraph, list[str]]:
        instance_name = record.get("instance")
        if instance_name is not None:
            # a cold registry entry loads from disk: off the loop
            instance = await asyncio.to_thread(self.registry.instance, instance_name)
            labels = [
                f"{instance_name}/{index}" for index in range(instance.num_variables)
            ]
            return instance.query, labels
        query = build_query(record["query"])
        names = record["datasets"]
        if len(names) != query.num_variables:
            raise ValueError(
                f"query has {query.num_variables} variables but "
                f"{len(names)} datasets were named"
            )
        known = set(self.registry.dataset_names())
        missing = [name for name in names if name not in known]
        if missing:
            raise KeyError(f"unknown datasets {missing}; known: {sorted(known)}")
        return query, list(names)

    async def _run(
        self, call: SolveCall, ticket: Ticket
    ) -> tuple[dict[str, Any], bool]:
        obs = current()
        # near-miss tier: an isomorphic query solved under different
        # knobs seeds this solve's search with its best assignment
        warm_start: tuple[int, ...] | None = None
        if call.use_cache:
            assert self.cache is not None
            near = self.cache.get_near(call.signature)
            if near is not None:
                warm_start = tuple(near.assignment_for(call.order))
        if warm_start is not None:
            obs.counter("service.warm.start").inc()
            self.warm_starts += 1
        else:
            obs.counter("service.warm.cold").inc()
            self.warm_cold += 1
        # one fault index per request, stable across re-dispatches — a
        # "crash every N-th job" plan counts requests, not retries
        fault_index = self._jobs_dispatched
        self._jobs_dispatched += 1
        observe_solve = self.executor_kind == "process" and getattr(obs, "enabled", False)
        attempt = 0
        while True:
            executor_used = self._executor
            try:
                # inline payloads may load datasets from disk
                job = await asyncio.to_thread(
                    self._build_job,
                    call,
                    time_limit=ticket.remaining(),
                    observe_solve=observe_solve,
                    attempt=attempt,
                    fault_index=fault_index,
                    warm_start=warm_start,
                )
                payload = await self._run_job(job, timeout=ticket.remaining())
                break
            except Exception as error:  # noqa: BLE001 - every solve failure is classified
                classified = classify_exception(error)
                if classified.code != "worker_crashed":
                    return error_response(
                        call.request_id, "solve", classified.code, classified.message
                    ), False
                obs.counter("faults.crashes").inc()
                # pool rebuild republishes warm segments (file/shm I/O)
                await asyncio.to_thread(self._recover_executor, executor_used)
                attempt += 1
                if ticket.expired() or attempt > MAX_JOB_RETRIES:
                    # the deadline (or the retry bound) can no longer be
                    # met: shed with the retryable crash code
                    return error_response(
                        call.request_id,
                        "solve",
                        "worker_crashed",
                        f"worker crashed {attempt}× and the deadline cannot be met; retry",
                    ), False
                self.jobs_retried += 1
                obs.counter("faults.retries").inc()

        worker_obs = payload.pop("obs", None)
        if worker_obs is not None and getattr(obs, "enabled", False):
            replay_into(obs, merge_states([worker_obs]))
        if payload["approximate"]:
            obs.counter("service.approximate").inc()
        return {"recovered": attempt > 0, **payload}, True

    def _recover_executor(self, executor_used: Executor | None) -> None:
        """Rebuild the process pool after a crash broke it.

        Concurrent in-flight jobs all observe the same break; only the
        first handler to notice (its captured executor is still the
        installed one — handlers run on one event-loop thread, so the
        check-and-swap cannot race) pays for the rebuild, the rest simply
        re-dispatch onto the fresh pool.  Thread executors survive crashes
        (an injected crash propagates as an exception), so there is
        nothing to rebuild.
        """
        if self.executor_kind != "process":
            return
        if executor_used is None or executor_used is not self._executor:
            return
        executor_used.shutdown(wait=False, cancel_futures=True)
        self._executor = self._build_process_executor()
        self.pool_rebuilds += 1
        current().counter("faults.rebuilds").inc()

    def _build_job(
        self,
        call: SolveCall,
        *,
        time_limit: float,
        observe_solve: bool,
        attempt: int,
        fault_index: int,
        warm_start: tuple[int, ...] | None,
    ) -> SolveJob:
        """A picklable job; data the pool workers lack ships inline."""
        instance_name = call.record.get("instance")
        dataset_names = None if instance_name is not None else tuple(call.record["datasets"])
        inline: ProblemInstance | None = None
        if self._worker_names is not None:  # process pool
            if instance_name is not None:
                if instance_name not in self._worker_names:
                    inline = self.registry.instance(instance_name)
            elif dataset_names is not None and not all(
                name in self._worker_names for name in dataset_names
            ):
                inline = ProblemInstance(
                    query=call.query,
                    datasets=[self.registry.dataset(name) for name in dataset_names],
                )
        return SolveJob(
            instance_name=None if inline is not None else instance_name,
            query=None if inline is not None else call.record.get("query"),
            dataset_names=None if inline is not None else dataset_names,
            inline_instance=inline,
            algorithm=call.algorithm,
            seed=call.seed,
            restarts=call.restarts,
            time_limit=time_limit,
            max_iterations=call.max_iterations,
            observe=observe_solve,
            attempt=attempt,
            fault_index=fault_index,
            warm_start=warm_start,
        )

    async def _run_job(self, job: SolveJob, timeout: float) -> dict[str, Any]:
        assert self._executor is not None
        loop = asyncio.get_running_loop()
        if self.executor_kind == "thread":
            call = functools.partial(run_solve_job, job, self.registry)
        else:
            call = functools.partial(run_solve_job, job)
        future = loop.run_in_executor(self._executor, call)
        return await asyncio.wait_for(future, timeout=timeout + WORKER_GRACE_SECONDS)
