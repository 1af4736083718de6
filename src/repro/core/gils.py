"""Guided Indexed Local Search (GILS) — §4 of the paper.

GILS is ILS with a memory: it generates a *single* random seed and, instead
of restarting at local maxima, punishes some of the maximum's assignments
and keeps climbing with respect to the **effective inconsistency degree**
(violations plus ``λ·Σ penalty``).  Consequences of the punishment rule:

* the current local maximum's effective degree grows (sometimes repeatedly)
  until a neighbour looks better — search performs controlled downhill
  moves instead of restarting;
* solutions sharing many assignments with visited maxima are avoided, which
  steers search towards unexplored regions.

The paper's λ is tiny (``10⁻¹⁰·s``), so penalties mostly act as
tie-breakers that let search drift across plateaus — the regime where GILS
beats ILS on large queries (n = 20, 25).  Comparisons on effective scores
are therefore *strict* float comparisons.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Sequence

from ..faults import checkpoint_incumbent
from ..index.stats import index_work_since, node_reads_probe, snapshot_trees
from ..obs import current
from ..query import ProblemInstance
from .best_value import ProbeMemo
from .budget import Budget
from .evaluator import QueryEvaluator
from .penalties import PenaltyTable
from .result import RunResult
from .solution import SolutionState

__all__ = ["GILSConfig", "guided_indexed_local_search", "DEFAULT_LAMBDA_FACTOR"]

#: λ = DEFAULT_LAMBDA_FACTOR · s, with s the problem size in bits (§5).
DEFAULT_LAMBDA_FACTOR = 1e-10


@dataclass
class GILSConfig:
    """GILS knobs; ``lam=None`` applies the paper's ``λ = 10⁻¹⁰·s``."""

    lam: float | None = None
    stop_on_exact: bool = True

    def resolve_lambda(self, instance: ProblemInstance) -> float:
        if self.lam is not None:
            if self.lam < 0:
                raise ValueError(f"λ must be non-negative, got {self.lam}")
            return self.lam
        return DEFAULT_LAMBDA_FACTOR * instance.problem_size()


def guided_indexed_local_search(
    instance: ProblemInstance,
    budget: Budget,
    seed: int | random.Random = 0,
    config: GILSConfig | None = None,
    evaluator: QueryEvaluator | None = None,
    warm_start: Sequence[int] | None = None,
) -> RunResult:
    """Run GILS within ``budget``; one iteration = one improvement attempt.

    The incumbent is tracked by *actual* violations (penalties only guide
    the walk, never the reported result).  ``warm_start`` replaces the
    random seed solution with a given assignment; since the seed is
    recorded as incumbent before the walk starts, a warm-started run never
    reports a worse answer than the assignment it was given.
    """
    config = config or GILSConfig()
    rng = seed if isinstance(seed, random.Random) else random.Random(seed)
    evaluator = evaluator or QueryEvaluator(instance)
    warm_values = evaluator.validated_warm_start(warm_start)
    penalties = PenaltyTable(config.resolve_lambda(instance))
    memo = ProbeMemo(evaluator, penalties)
    obs = current()
    baseline = snapshot_trees(evaluator.trees)
    probe = node_reads_probe(evaluator.trees)
    budget.start()

    trace = obs.convergence_trace()
    with obs.span("gils.run", io=probe):
        with obs.span("gils.seed"):
            if warm_values is not None:
                state = evaluator.make_state(warm_values)
            else:
                state = evaluator.random_state(rng)
        best_values = state.as_tuple()
        best_violations = state.violations
        trace.record(budget.elapsed(), 0, best_violations, state.similarity)
        checkpoint_incumbent(
            best_values, best_violations, state.similarity, budget.elapsed(), 0
        )
        iterations = 0
        local_maxima = 0

        def note_if_best(candidate: SolutionState) -> None:
            nonlocal best_values, best_violations
            if candidate.violations < best_violations:
                best_violations = candidate.violations
                best_values = candidate.as_tuple()
                trace.record(
                    budget.elapsed(), iterations, best_violations, candidate.similarity
                )
                checkpoint_incumbent(
                    best_values, best_violations, candidate.similarity,
                    budget.elapsed(), iterations,
                )

        done = config.stop_on_exact and state.is_exact
        with obs.span("gils.climb", io=probe):
            while not done and not budget.exhausted():
                improved = _improve_once_effective(state, memo)
                iterations += 1
                budget.tick()
                if improved:
                    note_if_best(state)
                    if config.stop_on_exact and state.is_exact:
                        break
                else:
                    # local maximum w.r.t. the effective inconsistency degree
                    local_maxima += 1
                    obs.counter("gils.local_maxima").inc()
                    obs.event("local_maximum", violations=state.violations)
                    penalties.punish_minimum(state.values)

    obs.counter("gils.penalties_issued").inc(penalties.total_issued)
    index_work = index_work_since(evaluator.trees, baseline)
    obs.absorb_index_work(index_work)
    return RunResult(
        algorithm="GILS",
        best_assignment=best_values,
        best_violations=best_violations,
        best_similarity=evaluator.similarity(best_violations),
        elapsed=budget.elapsed(),
        iterations=iterations,
        milestones=local_maxima,
        trace=trace,
        stats={
            "local_maxima": local_maxima,
            "penalties_issued": penalties.total_issued,
            "penalised_assignments": len(penalties),
            "lambda": penalties.lam,
            "probes": memo.stats(),
            "index": index_work,
        },
    )


def _improve_once_effective(state: SolutionState, memo: ProbeMemo) -> bool:
    """One GILS step: strictly improve some variable's *effective* score.

    The effective score of assignment ``v ← r`` is
    ``satisfied(v) − λ·penalty(v ← r)``; raising it by any amount lowers the
    solution's effective inconsistency degree.  Unlike ILS, a variable with
    no violation may still move: to a less punished value of equal count.
    """
    for variable in state.worst_variable_order():
        if memo.improve(state, variable):
            return True
    return False
