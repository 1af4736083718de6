"""Fault injection and recovery tests (the robustness acceptance suite).

Unit half: the deterministic fault plan algebra, the injection hooks, and
the structured error classifier.  Integration half: supervised parallel
search recovering from crashes / hangs / corruption with worker-count
determinism preserved, incumbent checkpoints surviving member loss, and —
the acceptance scenario — a 4-worker process server under 16 concurrent
deadline-bounded clients with a 25% job-kill plan: zero dropped
connections, every response structured, surviving answers byte-identical
to a fault-free run.
"""

from __future__ import annotations

import asyncio
import threading
from concurrent.futures import BrokenExecutor

import pytest

from repro import Budget, QueryGraph, hard_instance
from repro.core import portfolio_search
from repro.core.budget import Stopwatch
from repro.core.parallel import (
    LOST_MEMBER_VIOLATIONS,
    SupervisionPolicy,
    parallel_restarts,
)
from repro.faults import (
    SITE_MEMBER_PROGRESS,
    SITE_MEMBER_START,
    SITE_SERVICE_JOB,
    FaultPlan,
    FaultSpec,
    InjectedCrash,
    InjectedError,
    active_plan,
    checkpointing,
    corrupt_member,
    crash_after_improvements,
    crash_every_nth_job,
    crash_jobs_fraction,
    crash_member,
    fault_point,
    hang_member,
    inject,
    run_chaos_queries,
)
from repro.query.io import save_instance
from repro.service import (
    DatasetRegistry,
    JoinClient,
    JoinServer,
    RetryPolicy,
    classify_exception,
)
from repro.service.client import exchange
from repro.service.frame import LineFrame
from repro.service.protocol import ERROR_CODES, PROTOCOL_VERSION, ok_response


# ----------------------------------------------------------------------
# fault plan algebra
# ----------------------------------------------------------------------
class TestFaultPlan:
    def test_indices_targeting(self):
        spec = FaultSpec(site=SITE_MEMBER_START, kind="crash", indices=(1, 3))
        assert spec.matches(0, SITE_MEMBER_START, 1, 0, 0)
        assert spec.matches(0, SITE_MEMBER_START, 3, 0, 0)
        assert not spec.matches(0, SITE_MEMBER_START, 2, 0, 0)

    def test_site_must_match(self):
        spec = FaultSpec(site=SITE_MEMBER_START, kind="crash")
        assert not spec.matches(0, SITE_SERVICE_JOB, 0, 0, 0)

    def test_every_nth(self):
        spec = FaultSpec(site=SITE_SERVICE_JOB, kind="crash", every=3)
        hits = [i for i in range(9) if spec.matches(0, SITE_SERVICE_JOB, i, 0, 0)]
        assert hits == [2, 5, 8]

    def test_on_hit_targets_improvement_count(self):
        spec = FaultSpec(site=SITE_MEMBER_PROGRESS, kind="crash", on_hit=2)
        assert spec.matches(0, SITE_MEMBER_PROGRESS, 0, 0, 2)
        assert not spec.matches(0, SITE_MEMBER_PROGRESS, 0, 0, 1)

    def test_times_budget_lets_retries_run_clean(self):
        spec = FaultSpec(site=SITE_MEMBER_START, kind="crash")
        assert spec.matches(0, SITE_MEMBER_START, 0, 0, 0)
        assert not spec.matches(0, SITE_MEMBER_START, 0, 1, 0)

    def test_probability_is_deterministic_in_the_seed(self):
        spec = FaultSpec(site=SITE_SERVICE_JOB, kind="crash", probability=0.5)
        first = [spec.matches(7, SITE_SERVICE_JOB, i, 0, 0) for i in range(50)]
        second = [spec.matches(7, SITE_SERVICE_JOB, i, 0, 0) for i in range(50)]
        assert first == second
        assert any(first) and not all(first)

    def test_probability_extremes(self):
        always = FaultSpec(site=SITE_SERVICE_JOB, kind="crash", probability=1.0)
        never = FaultSpec(site=SITE_SERVICE_JOB, kind="crash", probability=0.0)
        assert all(always.matches(0, SITE_SERVICE_JOB, i, 0, 0) for i in range(20))
        assert not any(never.matches(0, SITE_SERVICE_JOB, i, 0, 0) for i in range(20))

    def test_json_round_trip(self):
        plan = FaultPlan(
            specs=(
                FaultSpec(site=SITE_MEMBER_START, kind="crash", indices=(0,)),
                FaultSpec(site=SITE_SERVICE_JOB, kind="slow", every=2, delay=0.1),
            ),
            seed=11,
        )
        assert FaultPlan.from_json(plan.to_json()) == plan

    def test_load_from_file(self, tmp_path):
        plan = crash_every_nth_job(3)
        path = tmp_path / "plan.json"
        path.write_text(plan.to_json())
        assert FaultPlan.load(str(path)) == plan

    def test_from_dict_rejects_unknown_fields(self):
        with pytest.raises(ValueError):
            FaultPlan.from_dict(
                {"seed": 0, "specs": [{"site": "x.y", "kind": "crash", "laser": 1}]}
            )

    def test_from_dict_passes_none_through(self):
        assert FaultPlan.from_dict(None) is None

    def test_empty_plan_is_falsy(self):
        assert not FaultPlan()
        assert crash_member(0)

    def test_sites(self):
        plan = FaultPlan(
            specs=(
                FaultSpec(site=SITE_MEMBER_START, kind="crash"),
                FaultSpec(site=SITE_SERVICE_JOB, kind="slow"),
            )
        )
        assert plan.sites() == {SITE_MEMBER_START, SITE_SERVICE_JOB}


# ----------------------------------------------------------------------
# hooks
# ----------------------------------------------------------------------
class TestHooks:
    def test_fault_point_is_inert_without_a_plan(self):
        assert active_plan() is None
        fault_point(SITE_MEMBER_START, index=0)

    def test_inject_activates_and_restores(self):
        plan = crash_member(0)
        with inject(plan):
            assert active_plan() == plan
        assert active_plan() is None

    def test_crash_raises_injected_crash(self):
        with inject(crash_member(0)):
            with pytest.raises(InjectedCrash):
                fault_point(SITE_MEMBER_START, index=0)
            fault_point(SITE_MEMBER_START, index=1)  # untargeted member

    def test_error_kind_raises_injected_error(self):
        plan = FaultPlan(specs=(FaultSpec(site=SITE_MEMBER_START, kind="error"),))
        with inject(plan):
            with pytest.raises(InjectedError):
                fault_point(SITE_MEMBER_START, index=0)

    def test_slow_kind_sleeps_for_the_configured_delay(self):
        plan = FaultPlan(
            specs=(FaultSpec(site=SITE_MEMBER_START, kind="slow", delay=0.05),)
        )
        with inject(plan):
            watch = Stopwatch()
            fault_point(SITE_MEMBER_START, index=0)
            assert watch.elapsed() >= 0.04

    def test_checkpointing_hook_receives_incumbents(self):
        from repro.faults import checkpoint_incumbent

        seen: list[tuple] = []
        with checkpointing(lambda *args: seen.append(args)):
            checkpoint_incumbent((1, 2, 3), 4, 0.5, 0.01, 7)
        checkpoint_incumbent((9,), 0, 1.0, 0.0, 0)  # hook uninstalled
        assert seen == [((1, 2, 3), 4, 0.5, 0.01, 7)]


class TestChaosBuilders:
    def test_crash_member_targets_exact_indices(self):
        plan = crash_member(0, 2)
        assert plan.match(SITE_MEMBER_START, index=0) is not None
        assert plan.match(SITE_MEMBER_START, index=1) is None
        assert plan.match(SITE_MEMBER_START, index=2) is not None

    def test_crash_every_nth_job(self):
        plan = crash_every_nth_job(3)
        hits = [i for i in range(9) if plan.match(SITE_SERVICE_JOB, index=i)]
        assert hits == [2, 5, 8]

    def test_crash_jobs_fraction_is_seed_deterministic(self):
        plan_a = crash_jobs_fraction(0.25, seed=3)
        plan_b = crash_jobs_fraction(0.25, seed=3)
        hits_a = [i for i in range(40) if plan_a.match(SITE_SERVICE_JOB, index=i)]
        hits_b = [i for i in range(40) if plan_b.match(SITE_SERVICE_JOB, index=i)]
        assert hits_a == hits_b
        assert 0 < len(hits_a) < 40


# ----------------------------------------------------------------------
# supervised parallel search
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def chain_instance():
    return hard_instance(QueryGraph.chain(3), cardinality=150, seed=5)


@pytest.fixture(scope="module")
def clique_instance():
    return hard_instance(QueryGraph.clique(3), cardinality=120, seed=21)


def _restarts(instance, *, workers, supervision=None, restarts=2,
              heuristic="ils", iterations=150):
    return parallel_restarts(
        instance,
        Budget.iterations(iterations),
        seed=9,
        heuristic=heuristic,
        restarts=restarts,
        workers=workers,
        supervision=supervision,
    )


def _member_key(member):
    return member["violations"], member["similarity"], member["iterations"]


class _SupervisedContract:
    """Every fault kind both executors share, against the fault-free run.

    The subclasses bind ``workers``: 1 runs the members inline, 2 on the
    process pool, where an injected crash kills a real worker process.
    Hangs are tested on the pool only: inline a hang cannot be interrupted
    and only makes the run slow.
    """

    workers: int

    def test_crash_retry_matches_fault_free_run(self, chain_instance):
        baseline = _restarts(chain_instance, workers=self.workers)
        with inject(crash_member(0)):
            recovered = _restarts(chain_instance, workers=self.workers)
        assert recovered.best_assignment == baseline.best_assignment
        assert recovered.best_violations == baseline.best_violations
        assert "faults" not in baseline.stats
        faults = recovered.stats["faults"]
        assert faults["crashes"] == 1
        assert faults["retries"] == 1
        # inline the crash is a member-level fault; on the pool it breaks
        # the pool, and only the member that crashed is charged for it
        assert faults["rebuilds"] == (0 if self.workers == 1 else 1)
        assert faults["events"] == [{"kind": "crash", "member": 0, "attempt": 0}]
        assert faults["recovered_members"] == []
        assert faults["lost_members"] == []

    def test_injected_error_is_retried(self, chain_instance):
        plan = FaultPlan(
            specs=(FaultSpec(site=SITE_MEMBER_START, kind="error", indices=(1,)),)
        )
        baseline = _restarts(chain_instance, workers=self.workers)
        with inject(plan):
            recovered = _restarts(chain_instance, workers=self.workers)
        assert recovered.best_assignment == baseline.best_assignment
        faults = recovered.stats["faults"]
        assert faults["errors"] == 1
        assert faults["rebuilds"] == 0  # the executor survives an error
        assert faults["events"] == [{"kind": "error", "member": 1, "attempt": 0}]
        assert faults["recovered_members"] == faults["lost_members"] == []

    def test_corrupt_result_is_detected_and_retried(self, chain_instance):
        baseline = _restarts(chain_instance, workers=self.workers)
        with inject(corrupt_member(1)):
            recovered = _restarts(chain_instance, workers=self.workers)
        assert recovered.best_assignment == baseline.best_assignment
        faults = recovered.stats["faults"]
        assert faults["corruptions"] == 1
        assert faults["rebuilds"] == 0
        assert faults["recovered_members"] == faults["lost_members"] == []

    def test_event_attempt_is_the_members_attempt(self, chain_instance):
        """An error on attempt 0, then a crash on attempt 1 of the same
        member: the crash event records attempt 1 on both executors — on
        the pool it is the first rebuild, not the second."""
        plan = FaultPlan(
            specs=(
                FaultSpec(site=SITE_MEMBER_START, kind="error", indices=(0,)),
                FaultSpec(site=SITE_MEMBER_START, kind="crash", indices=(0,), times=2),
            )
        )
        baseline = _restarts(chain_instance, workers=self.workers)
        with inject(plan):
            recovered = _restarts(chain_instance, workers=self.workers)
        assert recovered.best_assignment == baseline.best_assignment
        assert recovered.stats["faults"]["events"] == [
            {"kind": "error", "member": 0, "attempt": 0},
            {"kind": "crash", "member": 0, "attempt": 1},
        ]

    def test_checkpoint_recovery_never_returns_none(self, clique_instance):
        run = dict(
            workers=self.workers, heuristic="sea", iterations=400,
            supervision=SupervisionPolicy(member_retries=0),
        )
        baseline = _restarts(clique_instance, **run)
        with inject(crash_after_improvements(0, 1)):
            result = _restarts(clique_instance, **run)
        assert result.best_violations < LOST_MEMBER_VIOLATIONS
        assert result.best_assignment
        faults = result.stats["faults"]
        assert faults["recovered_members"] == [0]
        assert faults["lost_members"] == []
        first, second = result.stats["members"]
        assert "(checkpoint)" in first["algorithm"]
        assert first["violations"] >= baseline.stats["members"][0]["violations"]
        # the bystander is never charged: it answers as in the fault-free run
        assert _member_key(second) == _member_key(baseline.stats["members"][1])
        assert result.best_violations == min(
            first["violations"], second["violations"]
        )

    def test_member_lost_without_checkpoints_still_answers(self, chain_instance):
        baseline = _restarts(chain_instance, workers=self.workers)
        # crash_member fires at member start, before any checkpoint exists
        with inject(crash_member(0, times=10)):
            result = _restarts(
                chain_instance,
                workers=self.workers,
                supervision=SupervisionPolicy(member_retries=1),
            )
        faults = result.stats["faults"]
        assert faults["lost_members"] == [0]
        assert faults["recovered_members"] == []
        assert [event["attempt"] for event in faults["events"]] == [0, 1]
        # member 0 exhausted its retries with no checkpoint; member 1 answers
        lost, survivor = result.stats["members"]
        assert lost["violations"] == LOST_MEMBER_VIOLATIONS
        assert _member_key(survivor) == _member_key(baseline.stats["members"][1])
        assert result.best_violations == survivor["violations"]
        assert result.stats["winner"] == 1


class TestSupervisedInline(_SupervisedContract):
    workers = 1


class TestSupervisedPool(_SupervisedContract):
    workers = 2

    def test_pool_hang_is_detected_and_redispatched(self, chain_instance):
        baseline = _restarts(chain_instance, workers=2)
        watch = Stopwatch()
        with inject(hang_member(0, delay=30.0)):
            recovered = _restarts(
                chain_instance,
                workers=2,
                supervision=SupervisionPolicy(hang_timeout=1.0),
            )
        assert watch.elapsed() < 20.0
        assert recovered.best_assignment == baseline.best_assignment
        faults = recovered.stats["faults"]
        assert faults["hangs"] >= 1
        assert {"kind": "hang", "member": 0, "attempt": 0} in faults["events"]


def test_portfolio_reports_a_lost_member(clique_instance):
    """Concurrent portfolio members reduce like restarts: a member lost to
    crashes is reported, and the survivor's answer is returned."""
    budget = Budget.iterations(40)
    baseline = portfolio_search(clique_instance, budget, seed=6, workers=2)
    with inject(crash_member(0, times=10)):
        result = portfolio_search(clique_instance, budget, seed=6, workers=2)
    faults = result.stats["faults"]
    assert faults["lost_members"] == [0]
    assert faults["crashes"] == 3  # the first try and both retries
    assert result.stats["winner"] == 1
    survivor = result.stats["members"][1]
    assert _member_key(survivor) == _member_key(baseline.stats["members"][1])
    assert result.best_violations == survivor["violations"]


# ----------------------------------------------------------------------
# error classification & retry policy
# ----------------------------------------------------------------------
class TestClassifier:
    def test_broken_executor_is_worker_crashed(self):
        classified = classify_exception(BrokenExecutor("pool died"))
        assert classified.code == "worker_crashed"
        assert ERROR_CODES[classified.code] is True  # retryable

    def test_injected_crash_is_worker_crashed(self):
        assert classify_exception(InjectedCrash("boom")).code == "worker_crashed"

    def test_timeouts_are_retryable_timeouts(self):
        assert classify_exception(TimeoutError()).code == "timeout"
        assert classify_exception(asyncio.TimeoutError()).code == "timeout"
        assert ERROR_CODES["timeout"] is True

    def test_everything_else_is_internal_and_not_retryable(self):
        classified = classify_exception(ValueError("bad geometry"))
        assert classified.code == "internal"
        assert ERROR_CODES[classified.code] is False


class TestRetryPolicy:
    def test_delays_are_deterministic_for_a_seed(self):
        policy = RetryPolicy(attempts=5, seed=42)
        assert policy.delays() == policy.delays()
        assert policy.delays() != RetryPolicy(attempts=5, seed=43).delays()

    def test_schedule_shape(self):
        policy = RetryPolicy(attempts=6, base=0.05, cap=0.4, jitter=0.5)
        delays = policy.delays()
        assert len(delays) == 5
        for k, delay in enumerate(delays):
            raw = min(policy.cap, policy.base * 2**k)
            assert raw <= delay <= raw * 1.5

    def test_single_attempt_has_no_delays(self):
        assert RetryPolicy(attempts=1).delays() == []

    def test_validation(self):
        with pytest.raises(ValueError):
            RetryPolicy(attempts=0)
        with pytest.raises(ValueError):
            RetryPolicy(jitter=1.5)
        with pytest.raises(ValueError):
            RetryPolicy(base=-0.1)


class TestRetrySleepDiscipline:
    """Regression pins for what may block the calling thread.

    The sync client owns its thread and may block it with ``time.sleep``
    (pinned behaviourally, by recorded sleeps); :func:`exchange` runs on
    the fleet's event loop, where one blocking call stalls every
    connection the loop serves (pinned statically, by rule RL010 on the
    real source).
    """

    RESPONSES = (
        {"status": "error", "error": {"code": "overloaded", "retryable": True}},
        {"status": "ok", "result": {}},
    )

    def test_sync_retry_backs_off_with_time_sleep(self, monkeypatch):
        from repro.service import client as client_module

        policy = RetryPolicy(attempts=3, seed=1)
        recorded: list[float] = []
        monkeypatch.setattr(client_module.time, "sleep", recorded.append)
        client = JoinClient.__new__(JoinClient)
        client._ids = client_module._RequestIds("t")
        client.retry = policy
        responses = iter(self.RESPONSES)
        client.request = lambda record: next(responses)  # type: ignore[method-assign]
        client.reconnect = lambda: None  # type: ignore[method-assign]
        response = client.solve(instance="demo")
        assert response["status"] == "ok"
        # exactly one retry happened, on the policy's schedule
        assert recorded == policy.delays()[:1]

    def test_rl010_pins_the_async_exchange(self):
        from pathlib import Path

        from repro.analysis import lint_source

        path = "src/repro/service/client.py"
        source = (Path(__file__).resolve().parent.parent / path).read_text()
        assert not lint_source(source, path=path, select=["RL010"])
        sabotaged = source.replace(
            "await asyncio.open_connection(host, port)",
            "socket.create_connection((host, port))",
        )
        assert sabotaged != source, "exchange no longer matches expected shape"
        findings = lint_source(sabotaged, path=path, select=["RL010"])
        assert {finding.rule for finding in findings} == {"RL010"}


# ----------------------------------------------------------------------
# live servers under chaos
# ----------------------------------------------------------------------
def run_server_in_thread(server: JoinServer) -> threading.Thread:
    started = threading.Event()
    failures: list[BaseException] = []

    def runner() -> None:
        async def main() -> None:
            await server.start()
            started.set()
            try:
                await server.wait_for_shutdown()
            finally:
                await server.stop()

        try:
            asyncio.run(main())
        except BaseException as error:  # noqa: BLE001 - surfaced to the test
            failures.append(error)
            started.set()

    thread = threading.Thread(target=runner, daemon=True)
    thread.start()
    assert started.wait(30), "server never started"
    if failures:
        raise failures[0]
    return thread


@pytest.fixture(scope="module")
def instance_dir(tmp_path_factory, chain_instance):
    directory = tmp_path_factory.mktemp("faults") / "acc"
    save_instance(chain_instance, directory)
    return directory


def _shutdown(server: JoinServer, thread: threading.Thread) -> None:
    with JoinClient(*server.address) as client:
        client.shutdown()
    thread.join(timeout=30)
    assert not thread.is_alive()


class TestClientClose:
    @pytest.fixture()
    def server(self, instance_dir):
        registry = DatasetRegistry()
        registry.register_instance_dir("acc", instance_dir)
        server = JoinServer(registry, port=0, workers=1, executor="thread")
        thread = run_server_in_thread(server)
        yield server
        _shutdown(server, thread)

    def test_close_is_idempotent_and_structured(self, server):
        client = JoinClient(*server.address)
        assert client.close_state is None
        first = client.close()
        assert first == {"closed": True, "error": None}
        assert client.close() is first
        assert client.close_state is first

    def test_reconnect_clears_close_state(self, server):
        client = JoinClient(*server.address)
        client.close()
        client.reconnect()
        assert client.close_state is None
        assert client.ping()["status"] == "ok"
        client.close()



class _ScriptedPeer(LineFrame):
    """Answers ``ping``, hangs up on ``stats``, holds ``datasets`` open."""

    NAMESPACE = "service"
    ROLE = "scripted peer"

    def __init__(self) -> None:
        super().__init__("127.0.0.1", 0)
        self.release = asyncio.Event()

    async def _dispatch(self, record, request_id, op):
        if op == "stats":
            for writer in list(self._writers):
                writer.close()
        elif op == "datasets":
            await self.release.wait()
        return ok_response(request_id, op)


class TestExchange:
    """The fleet's one async hop closes its connection on every path."""

    @staticmethod
    async def _drained(peer: LineFrame) -> bool:
        # the peer drops a connection once it reads the client's EOF
        for _ in range(200):
            if not peer._writers:
                return True
            await asyncio.sleep(0.01)
        return False

    def test_exchange_closes_its_connection_on_every_exit_path(self):
        import gc
        import warnings

        def record(op: str) -> dict:
            return {"v": PROTOCOL_VERSION, "op": op, "id": f"x-{op}"}

        async def scenario() -> None:
            peer = _ScriptedPeer()
            await peer._listen()
            host, port = peer.address
            try:
                # a normal reply
                reply = await exchange(host, port, record("ping"))
                assert reply["status"] == "ok" and reply["id"] == "x-ping"
                assert await self._drained(peer)
                # the peer hangs up without replying
                with pytest.raises(ConnectionError):
                    await exchange(host, port, record("stats"))
                assert await self._drained(peer)
                # the caller gives up: cancellation through wait_for
                with pytest.raises(asyncio.TimeoutError):
                    await asyncio.wait_for(
                        exchange(host, port, record("datasets")), timeout=0.1
                    )
                assert len(peer._writers) == 1  # the held request
                peer.release.set()
                assert await self._drained(peer)
            finally:
                await peer._close()

        # a stream writer dropped unclosed is closed by its finalizer,
        # which says so with a ResourceWarning: there must be none
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always", ResourceWarning)
            asyncio.run(scenario())
            gc.collect()
        unclosed = [w for w in caught if issubclass(w.category, ResourceWarning)]
        assert not unclosed, [str(w.message) for w in unclosed]

    def test_exchange_validates_before_dialing(self):
        # an invalid record fails locally; port 1 is never dialed
        with pytest.raises(ValueError):
            asyncio.run(exchange("127.0.0.1", 1, {"op": "ping"}))


class TestServerRecovery:
    """Crash-mid-burst regression + the chaos acceptance scenario."""

    def _start(self, instance_dir, *, workers, fault_plan=None) -> JoinServer:
        registry = DatasetRegistry()
        registry.register_instance_dir("acc", instance_dir)
        server = JoinServer(
            registry,
            port=0,
            workers=workers,
            executor="process",
            max_pending=32,
            fault_plan=fault_plan,
        )
        self._thread = run_server_in_thread(server)
        return server

    def test_crash_mid_burst_never_drops_a_connection(self, instance_dir):
        server = self._start(
            instance_dir, workers=2, fault_plan=crash_every_nth_job(3)
        )
        try:
            publishes = server._warm_plane.publishes
            responses: list[dict] = []
            errors: list[BaseException] = []

            def issue(seed: int) -> None:
                try:
                    with JoinClient(*server.address) as client:
                        responses.append(
                            client.solve(
                                check=False, instance="acc", deadline=10.0,
                                max_iterations=300, seed=seed, cache=False,
                            )
                        )
                except BaseException as error:  # noqa: BLE001
                    errors.append(error)

            clients = [
                threading.Thread(target=issue, args=(seed,)) for seed in range(6)
            ]
            for thread in clients:
                thread.start()
            for thread in clients:
                thread.join(timeout=120)
            assert errors == []  # no dropped connections, ever
            assert len(responses) == 6
            for response in responses:
                if response["status"] == "ok":
                    continue
                # anything that failed must be honestly retryable
                assert response["error"]["retryable"] is True
            stats = server.stats()
            assert stats["pool_rebuilds"] >= 1
            assert stats["jobs_retried"] >= 1
            # rebuilt workers re-attach to the warm segments, never re-publish
            assert server._warm_plane.publishes == publishes
        finally:
            _shutdown(server, self._thread)

    def test_chaos_acceptance_16_clients_25_percent_kill(self, instance_dir):
        solve_fields = dict(
            instance="acc", deadline=15.0, max_iterations=400, cache=False
        )

        # fault-free baseline answers for each seed
        server = self._start(instance_dir, workers=4)
        try:
            with JoinClient(*server.address) as client:
                baseline = {
                    seed: client.solve(seed=seed, **solve_fields)["assignment"]
                    for seed in range(16)
                }
        finally:
            _shutdown(server, self._thread)

        server = self._start(
            instance_dir, workers=4, fault_plan=crash_every_nth_job(4)
        )
        try:
            outcomes: dict[int, dict] = {}
            errors: list[BaseException] = []

            def issue(seed: int) -> None:
                try:
                    client = JoinClient(
                        *server.address,
                        retry=RetryPolicy(attempts=4, seed=seed),
                    )
                    with client:
                        outcomes[seed] = client.solve(
                            check=False, seed=seed, **solve_fields
                        )
                except BaseException as error:  # noqa: BLE001
                    errors.append(error)

            clients = [
                threading.Thread(target=issue, args=(seed,)) for seed in range(16)
            ]
            for thread in clients:
                thread.start()
            for thread in clients:
                thread.join(timeout=180)

            assert errors == []  # zero dropped connections
            assert len(outcomes) == 16  # every client got a structured response
            recovered = 0
            for seed, response in outcomes.items():
                if response["status"] != "ok":
                    assert response["error"]["retryable"] is True
                    continue
                recovered += bool(response.get("recovered"))
                # determinism: same seed, same answer as the fault-free run
                assert response["assignment"] == baseline[seed]
            assert recovered >= 1
            assert server.stats()["pool_rebuilds"] >= 1
        finally:
            _shutdown(server, self._thread)

    def test_run_chaos_queries_tally(self, instance_dir):
        server = self._start(
            instance_dir, workers=2, fault_plan=crash_every_nth_job(3)
        )
        try:
            host, port = server.address
            tally = run_chaos_queries(
                host, port, instance="acc", queries=6, deadline=10.0,
                max_iterations=300,
            )
            assert tally["dropped"] == 0
            assert tally["ok"] == 6
            assert tally["recovered"] >= 1
        finally:
            _shutdown(server, self._thread)
