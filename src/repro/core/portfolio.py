"""Heuristic portfolios (§7: "several heuristics could be combined").

The paper observes that ILS/GILS dominate under very tight budgets while
SEA wins given room to converge (Figure 10b), and suggests combining
heuristics.  :func:`portfolio_search` packages the obvious combination:
split the budget across several heuristics, run them on the same instance,
and return the best solution any of them found — with the convergence
traces merged so the result still reads like a single anytime run.

With ``workers > 1`` the members execute *concurrently* on the process pool
of :mod:`repro.core.parallel` instead of sequentially: each member keeps its
budget share, but the wall-clock cost of the portfolio drops from the sum of
the shares towards the largest share.  Parallel members draw hash-derived
seeds (one per member index) rather than consuming a shared generator, so
parallel results are reproducible for a given seed but differ from the
sequential schedule's.  Concurrent members run under the same supervision
as :func:`~repro.core.parallel.parallel_restarts` and reduce through the
same :func:`~repro.core.parallel.best_of_members`, so a member lost to a
fault is reported under ``stats["faults"]`` there as here.
"""

from __future__ import annotations

import random
from typing import Sequence

from ..obs import current
from ..query import ProblemInstance
from .budget import Budget, Stopwatch
from .evaluator import QueryEvaluator
from .parallel import RunSpec, best_of_members, derive_seed, member_stats, run_specs
from .result import ConvergenceTrace, RunResult
from .two_step import HEURISTICS

__all__ = ["portfolio_search", "DEFAULT_PORTFOLIO"]

#: tight-budget specialist first, then the strongest converger
DEFAULT_PORTFOLIO = ("ils", "sea")


def portfolio_search(
    instance: ProblemInstance,
    budget: Budget,
    seed: int | random.Random = 0,
    heuristics: Sequence[str] = DEFAULT_PORTFOLIO,
    shares: Sequence[float] | None = None,
    evaluator: QueryEvaluator | None = None,
    workers: int = 1,
) -> RunResult:
    """Run several heuristics on shares of one budget; keep the best.

    Parameters
    ----------
    heuristics:
        Names from :data:`repro.core.two_step.HEURISTICS` (``ils``,
        ``gils``, ``sea``), executed in order.
    shares:
        Budget fractions per heuristic (normalised; default equal split).
        Only meaningful for time budgets; iteration budgets are split the
        same way on iteration counts.
    workers:
        ``1`` (default) runs the members sequentially — the paper's
        combination, with early exit once a member finds an exact solution.
        ``> 1`` runs them concurrently on separate processes; each member
        still gets its budget share, so total wall-clock approaches the
        largest share instead of the sum.

    Returns a single :class:`RunResult` labelled ``portfolio(...)`` whose
    trace concatenates the member traces on a common clock (sequential) or
    merges them into one staircase (concurrent, with ``stats["winner"]``
    and, after any fault, ``stats["faults"]``).
    """
    if not heuristics:
        raise ValueError("portfolio needs at least one heuristic")
    unknown = [name for name in heuristics if name not in HEURISTICS]
    if unknown:
        known = ", ".join(sorted(HEURISTICS))
        raise ValueError(f"unknown heuristics {unknown}; known: {known}")
    if shares is None:
        shares = [1.0] * len(heuristics)
    if len(shares) != len(heuristics):
        raise ValueError(
            f"{len(heuristics)} heuristics but {len(shares)} shares"
        )
    if any(share <= 0 for share in shares):
        raise ValueError(f"shares must be positive, got {list(shares)}")
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    total_share = sum(shares)
    fractions = [share / total_share for share in shares]

    if workers > 1:
        return _portfolio_parallel(
            instance, budget, seed, heuristics, fractions, workers
        )

    rng = seed if isinstance(seed, random.Random) else random.Random(seed)
    evaluator = evaluator or QueryEvaluator(instance)
    obs = current()

    best: RunResult | None = None
    merged_trace = ConvergenceTrace()
    elapsed = 0.0
    iterations = 0
    member_summaries = []
    with obs.span("portfolio.run"):
        # sequential members emit directly into the ambient observation
        for name, fraction in zip(heuristics, fractions):
            member_budget = budget.split(fraction)
            result = HEURISTICS[name](instance, member_budget, rng, evaluator)
            member_summaries.append(member_stats(result))
            for point in result.trace.points:
                if best is None or point.violations < best.best_violations:
                    merged_trace.record(
                        elapsed + point.elapsed,
                        iterations + point.iterations,
                        point.violations,
                        point.similarity,
                    )
            if best is None or result.best_violations < best.best_violations:
                best = result
            elapsed += result.elapsed
            iterations += result.iterations
            if best.best_violations == 0:
                break

    assert best is not None
    return RunResult(
        algorithm=f"portfolio({'+'.join(heuristics)})",
        best_assignment=best.best_assignment,
        best_violations=best.best_violations,
        best_similarity=best.best_similarity,
        elapsed=elapsed,
        iterations=iterations,
        milestones=len(member_summaries),
        trace=merged_trace,
        stats={"members": member_summaries},
    )


def _portfolio_parallel(
    instance: ProblemInstance,
    budget: Budget,
    seed: int | random.Random,
    heuristics: Sequence[str],
    fractions: Sequence[float],
    workers: int,
) -> RunResult:
    """Concurrent members on the process pool, one spec per heuristic."""
    base_seed = (
        seed.randrange(2**32) if isinstance(seed, random.Random) else int(seed)
    )
    specs = []
    for index, (name, fraction) in enumerate(zip(heuristics, fractions)):
        member_budget = budget.split(fraction)
        specs.append(
            RunSpec(
                heuristic=name,
                seed=derive_seed(base_seed, index),
                time_limit=member_budget.time_limit,
                max_iterations=member_budget.max_iterations,
                index=index,
            )
        )
    watch = Stopwatch()
    with current().span("portfolio.run"):
        results, fault_report = run_specs(instance, specs, workers)
    return best_of_members(
        results,
        fault_report,
        algorithm=f"portfolio({'+'.join(heuristics)})",
        elapsed=watch.elapsed(),
        milestones=len(results),
        stats={"workers": workers},
    )
