"""The two library workloads: public functions called in-process.

``paper_heuristics`` keeps ``core.best_value`` → ``index`` → ``geometry.kernels``
busy on one paper-scale instance; ``exact_two_step`` uses the same index for
window queries, pairwise traversal and inserts instead.  Every size below is
a constant: the op list is a function of ``--seed`` only, and every budget
is an iteration budget, so answers, node reads and similarities repeat
exactly and only time varies.
"""

from __future__ import annotations

import math
import random
import statistics
import time
from dataclasses import dataclass, field
from typing import Any

from repro import (
    Budget,
    ProblemInstance,
    QueryEvaluator,
    QueryGraph,
    RStarTree,
    SEAConfig,
    SpatialDataset,
    guided_indexed_local_search,
    hard_instance,
    indexed_branch_and_bound,
    indexed_local_search,
    pairwise_join_method,
    planted_instance,
    spatial_evolutionary_algorithm,
    synchronous_traversal_join,
    two_step,
    window_reduction_join,
)

from check import Mirror, answer_ok, join_ok

__all__ = ["Outcome", "PaperHeuristics", "ExactTwoStep", "median", "percentile"]


def median(values: Any) -> float:
    """Median, 0.0 for no samples (a kind whose every op failed)."""
    values = list(values)
    return statistics.median(values) if values else 0.0


def percentile(values: Any, share: float) -> float:
    """Nearest-rank percentile: ``1 − share`` of the samples lie beyond it."""
    ordered = sorted(values)
    if not ordered:
        return 0.0
    return ordered[max(0, math.ceil(len(ordered) * share) - 1)]


@dataclass
class Outcome:
    """One attempted op: what it was, how long it took, what came back."""

    kind: str
    ms: float
    #: the raw answer (a RunResult, a tuple list, a response dict) or None
    answer: Any
    #: filled by ``verify``: answered *and* the answer checked out
    ok: bool = False
    similarity: float = 0.0
    detail: dict = field(default_factory=dict)


# ----------------------------------------------------------------------
# paper_heuristics
# ----------------------------------------------------------------------
#: the paper's dataset cardinality and a mid-range clique (§6: n = 5 … 25)
PAPER_N = 100_000
PAPER_VARIABLES = 10
#: per-op iteration budgets, sized so one op is ~50 ms on the seed host and
#: an ILS op costs what a GILS op does: together they are one population,
#: two thirds of the ops, with the median op in its dense middle
ILS_ITERATIONS = 160
GILS_ITERATIONS = 55
SEA_GENERATIONS = 3
#: population 8 at this problem size (s ≈ 166 bits) — the default 0.005
#: would spend several ops' time on the seeding climbs of 83 members
SEA_SCALE = 0.0005
#: a round is 3 ops of each kind in seeded order; this many rounds take
#: about ``run_seconds`` of ``BENCHMARK.json`` on the seed host
PAPER_ROUND = ("ils", "gils", "sea") * 3
PAPER_ROUNDS = 23


class PaperHeuristics:
    """ILS / GILS / SEA on one hard-region clique at the paper's N."""

    name = "paper_heuristics"
    #: set-ups per end-to-end run (``setup_s`` is their median); 8 s each
    setup_repeats = 3

    def __init__(self, seed: int, workdir: Any = None) -> None:
        self.seed = seed
        self.rng_seed = f"{self.name}:{seed}"
        self.instance: ProblemInstance | None = None
        self.evaluator: QueryEvaluator | None = None
        self.mirror: Mirror | None = None
        self._warmup: Any = None

    # -- set-up ---------------------------------------------------------
    def setup(self, rec: Any, trace_path: Any = None) -> None:
        instance_seed = random.Random(self.rng_seed + ":instance").randrange(2**31)
        with rec.span("query.hard_instance"):
            self.instance = hard_instance(
                QueryGraph.clique(PAPER_VARIABLES), PAPER_N, seed=instance_seed
            )
        with rec.span("core.evaluator_build"):
            self.evaluator = QueryEvaluator(self.instance)
        with rec.span("core.warmup_op"):
            self._warmup = self._call(("ils", 0))

    def finish_setup(self) -> None:
        """Untimed: copy the inputs out and check the warm-up answer."""
        assert self.instance is not None
        self.mirror = Mirror.of(self.instance)
        if not self._result_ok(self._warmup):
            raise RuntimeError("paper_heuristics: warm-up answer failed its check")

    def close(self) -> None:
        self.instance = self.evaluator = self.mirror = self._warmup = None

    def abort(self) -> None:
        pass

    def probe_instance(self) -> tuple[ProblemInstance, QueryEvaluator]:
        return self.instance, self.evaluator

    # -- ops ------------------------------------------------------------
    def ops(self) -> list[tuple[str, int]]:
        rng = random.Random(self.rng_seed + ":ops")
        ops = []
        for _ in range(PAPER_ROUNDS):
            kinds = list(PAPER_ROUND)
            rng.shuffle(kinds)
            ops.extend((kind, rng.randrange(2**31)) for kind in kinds)
        return ops

    def _call(self, op: tuple[str, int]) -> Any:
        kind, seed = op
        instance, evaluator = self.instance, self.evaluator
        if kind == "ils":
            return indexed_local_search(
                instance, Budget.iterations(ILS_ITERATIONS), seed=seed, evaluator=evaluator
            )
        if kind == "gils":
            return guided_indexed_local_search(
                instance, Budget.iterations(GILS_ITERATIONS), seed=seed, evaluator=evaluator
            )
        return spatial_evolutionary_algorithm(
            instance,
            Budget.iterations(SEA_GENERATIONS),
            seed=seed,
            config=SEAConfig(scale=SEA_SCALE),
            evaluator=evaluator,
        )

    def run(self, ops: list, rec: Any) -> tuple[list[Outcome], float]:
        return _run_sequential(ops, self._call, rec)

    # -- checks ---------------------------------------------------------
    def _result_ok(self, result: Any) -> bool:
        return answer_ok(
            self.mirror,
            result.best_assignment,
            result.best_violations,
            result.best_similarity,
            result.is_exact,
        )

    def verify(self, outcomes: list[Outcome], ops: list) -> None:
        for outcome in outcomes:
            result = outcome.answer
            if result is None:
                continue
            outcome.ok = self._result_ok(result)
            outcome.similarity = result.best_similarity
            index_work = result.stats["index"]
            outcome.detail = {
                "iterations": result.iterations,
                "node_reads": index_work["node_reads"],
                "best_value_calls": index_work["best_value_searches"],
            }

    def layer_metrics(self, outcomes: list[Outcome]) -> dict[str, tuple[float, int]]:
        metrics = _index_work_per_op(outcomes)
        for kind in ("ils", "gils", "sea"):
            rows = [o for o in outcomes if o.kind == kind and o.ok]
            metrics[f"core.{kind}_op_ms"] = (median(o.ms for o in rows), len(rows))
            if kind != "sea":  # SEA iterations are generations: see the obs spans
                per_iteration = [o.ms * 1e3 / o.detail["iterations"] for o in rows]
                metrics[f"core.{kind}_iter_us"] = (median(per_iteration), len(rows))
        return metrics


def _index_work_per_op(outcomes: list[Outcome]) -> dict[str, tuple[float, int]]:
    """Exact counts per op, over the ops whose result carries index stats."""
    counted = [o for o in outcomes if "node_reads" in o.detail]
    return {
        "core.node_reads_per_op": (
            sum(o.detail["node_reads"] for o in counted) / len(counted), len(counted)
        ),
        "core.best_value_calls_per_op": (
            sum(o.detail["best_value_calls"] for o in counted) / len(counted), len(counted)
        ),
    }


def _run_sequential(ops: list, call: Any, rec: Any) -> tuple[list[Outcome], float]:
    """Closed loop, one caller: the next op starts when the previous returns.

    An op that raises is recorded as unanswered (it fails verification);
    the loop goes on, so ``failed`` counts it against ``attempted``.
    Returns the outcomes and the wall time of the whole loop in seconds.
    """
    outcomes: list[Outcome] = []
    clock = time.perf_counter
    started = clock()
    for index, op in enumerate(ops):
        with rec.span("op", index):
            begin = clock()
            try:
                with rec.span("repro." + op[0], index):
                    answer = call(op)
            except Exception as error:  # noqa: BLE001 - a failed op is a counted op
                answer = None
                detail = {"error": f"{type(error).__name__}: {error}"}
            else:
                detail = {}
            elapsed = clock() - begin
        outcomes.append(Outcome(op[0], elapsed * 1e3, answer, detail=detail))
    return outcomes, clock() - started


# ----------------------------------------------------------------------
# exact_two_step
# ----------------------------------------------------------------------
#: Fig. 11 regime: small planted cliques, many of them
EXACT_N = 400
EXACT_VARIABLES = 4
#: plain IBB as an anytime method: a fixed number of search-node expansions
IBB_NODES = 3_000
#: two-step: ILS for this many iterations, then IBB seeded with its bound
TWO_STEP_ILS_ITERATIONS = 300
TWO_STEP_IBB_NODES = 3_000
#: a round takes 5 fresh instances — the first indexed by dynamic insertion,
#: the others bulk-loaded — and runs this many ops of each kind on them: the
#: median op is then an IBB run and the p90 op a synchronous traversal, both
#: fixed-work populations, while two-step — whose time is the luck of when
#: ILS meets the planted solution — stays below the median
EXACT_ROUND_INSTANCES = 5
EXACT_ROUND = {"pjm": 2, "wr": 2, "two_step": 2, "ibb": 5, "st": 5}
#: about 0.75 s of ops each: ``run_seconds`` on the seed host
EXACT_ROUNDS = 13


class ExactTwoStep:
    """IBB, two-step and the exact joins over many small planted instances."""

    name = "exact_two_step"
    setup_repeats = 3

    def __init__(self, seed: int, workdir: Any = None) -> None:
        self.seed = seed
        self.rng_seed = f"{self.name}:{seed}"
        self.count = EXACT_ROUNDS * EXACT_ROUND_INSTANCES
        self.instances: list[ProblemInstance] = []
        self.evaluators: list[QueryEvaluator] = []
        self.mirrors: list[Mirror] = []
        self.oracles: list[set] = []
        self._warmup: Any = None

    # -- set-up ---------------------------------------------------------
    def setup(self, rec: Any, trace_path: Any = None) -> None:
        rng = random.Random(self.rng_seed + ":instances")
        query = QueryGraph.clique(EXACT_VARIABLES)
        self.instances, self.evaluators = [], []
        for index in range(self.count):
            with rec.span("query.planted_instance"):
                instance = planted_instance(query, EXACT_N, seed=rng.randrange(2**31))
            if index % EXACT_ROUND_INSTANCES == 0:
                with rec.span("index.insert_build"):
                    instance = _insert_built(instance)
            self.instances.append(instance)
            with rec.span("core.evaluator_build"):
                self.evaluators.append(QueryEvaluator(instance))
        with rec.span("core.warmup_op"):
            self._warmup = self._call(("two_step", 0, 0))

    def finish_setup(self) -> None:
        self.mirrors = [Mirror.of(instance) for instance in self.instances]
        self.oracles = [mirror.exact_solutions() for mirror in self.mirrors]
        for instance, oracle in zip(self.instances, self.oracles):
            if tuple(instance.planted) not in oracle:
                raise RuntimeError("exact_two_step: oracle misses a planted solution")
        if not self._search_ok(0, self._warmup):
            raise RuntimeError("exact_two_step: warm-up answer failed its check")

    def close(self) -> None:
        self.instances, self.evaluators, self.mirrors, self.oracles = [], [], [], []
        self._warmup = None

    def abort(self) -> None:
        pass

    def probe_instance(self) -> tuple[ProblemInstance, QueryEvaluator]:
        return self.instances[0], self.evaluators[0]

    # -- ops ------------------------------------------------------------
    def ops(self) -> list[tuple[str, int, int]]:
        """``(kind, instance index, seed)``, interleaved in seeded order."""
        rng = random.Random(self.rng_seed + ":ops")
        ops = []
        for first in range(0, self.count, EXACT_ROUND_INSTANCES):
            members = range(first, first + EXACT_ROUND_INSTANCES)
            this_round = [
                (kind, index, rng.randrange(2**31))
                for kind, count in EXACT_ROUND.items()
                for index in rng.sample(members, count)
            ]
            rng.shuffle(this_round)
            ops.extend(this_round)
        return ops

    def _call(self, op: tuple[str, int, int]) -> Any:
        kind, index, seed = op
        instance, evaluator = self.instances[index], self.evaluators[index]
        if kind == "ibb":
            return indexed_branch_and_bound(
                instance, Budget.iterations(IBB_NODES), evaluator=evaluator
            )
        if kind == "two_step":
            return two_step(
                instance,
                "ils",
                Budget.iterations(TWO_STEP_ILS_ITERATIONS),
                Budget.iterations(TWO_STEP_IBB_NODES),
                seed=seed,
                evaluator=evaluator,
            )
        if kind == "wr":
            return list(window_reduction_join(instance, evaluator))
        if kind == "st":
            return list(synchronous_traversal_join(instance, evaluator))
        return list(pairwise_join_method(instance, evaluator))

    def run(self, ops: list, rec: Any) -> tuple[list[Outcome], float]:
        return _run_sequential(ops, self._call, rec)

    # -- checks ---------------------------------------------------------
    def _search_ok(self, index: int, result: Any) -> bool:
        """IBB / two-step: truthful, and optimal whenever it claims a proof.

        Every instance holds a planted exact solution, so the optimum is 0
        violations; a run that did not reach it under its node budget must
        say so (``proven_optimal`` false, answer flagged approximate).
        """
        systematic = getattr(result, "systematic", result)
        proven = systematic is not None and systematic.stats.get("proven_optimal")
        if proven and result.best_violations != 0:
            return False
        return answer_ok(
            self.mirrors[index],
            result.best_assignment,
            result.best_violations,
            result.best_similarity,
            result.is_exact,
        )

    def verify(self, outcomes: list[Outcome], ops: list) -> None:
        for outcome, (kind, index, _seed) in zip(outcomes, ops):
            answer = outcome.answer
            if answer is None:
                continue
            if kind in ("wr", "st", "pjm"):
                outcome.ok = join_ok(answer, self.oracles[index])
                outcome.similarity = 1.0 if answer else 0.0
                outcome.detail = {"solutions": len(answer)}
            elif kind == "ibb":
                outcome.ok = self._search_ok(index, answer)
                outcome.similarity = answer.best_similarity
                index_work = answer.stats["index"]
                outcome.detail = {
                    "nodes_expanded": answer.iterations,
                    "node_reads": index_work["node_reads"],
                    "best_value_calls": index_work["best_value_searches"],
                }
            else:
                outcome.ok = self._search_ok(index, answer)
                outcome.similarity = answer.best_similarity
                runs = [answer.heuristic] + ([answer.systematic] if answer.systematic else [])
                outcome.detail = {
                    "skipped_systematic": answer.skipped_systematic,
                    "node_reads": sum(r.stats["index"]["node_reads"] for r in runs),
                    "best_value_calls": sum(
                        r.stats["index"]["best_value_searches"] for r in runs
                    ),
                }

    def layer_metrics(self, outcomes: list[Outcome]) -> dict[str, tuple[float, int]]:
        metrics = _index_work_per_op(outcomes)
        by_kind = {
            kind: [o for o in outcomes if o.kind == kind and o.ok] for kind in EXACT_ROUND
        }
        ibb, two = by_kind["ibb"], by_kind["two_step"]
        metrics["core.ibb_op_ms"] = (median(o.ms for o in ibb), len(ibb))
        metrics["core.ibb_node_us"] = (
            median(o.ms * 1e3 / o.detail["nodes_expanded"] for o in ibb), len(ibb)
        )
        metrics["core.ibb_nodes_expanded"] = (
            sum(o.detail["nodes_expanded"] for o in ibb) / len(ibb), len(ibb)
        )
        metrics["core.two_step_op_ms"] = (median(o.ms for o in two), len(two))
        metrics["core.two_step_skip_share"] = (
            sum(o.detail["skipped_systematic"] for o in two) / len(two), len(two)
        )
        for kind in ("wr", "st", "pjm"):
            rows = by_kind[kind]
            metrics[f"joins.{kind}_ms"] = (median(o.ms for o in rows), len(rows))
        return metrics


def _insert_built(instance: ProblemInstance) -> ProblemInstance:
    """The same instance with every tree built by ``RStarTree.insert``."""
    datasets = []
    for dataset in instance.datasets:
        tree = RStarTree()
        for object_id, rect in enumerate(dataset.rects):
            tree.insert(rect, object_id)
        datasets.append(SpatialDataset(dataset.rects, name=dataset.name, tree=tree))
    return ProblemInstance(
        query=instance.query,
        datasets=datasets,
        density=instance.density,
        expected_solutions=instance.expected_solutions,
        planted=instance.planted,
    )
