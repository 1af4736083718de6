"""Indexed Local Search (ILS) — §3 of the paper.

Restart hill climbing where the uphill move is computed by the R*-tree:

1. start from a random *seed* solution,
2. repeatedly pick the **worst variable** (most violated conditions; ties by
   fewest satisfied) and re-instantiate it with the object returned by
   ``find_best_value``; if the worst variable cannot be strictly improved,
   try the second worst, and so on,
3. when no variable can be improved the solution is a **local maximum**:
   remember it if it is the best seen, then restart from a fresh seed,
4. stop when the budget is exhausted (or an exact solution is found and
   ``stop_on_exact`` is set), returning the best solution ever visited.

The ``use_index=False`` mode replaces ``find_best_value`` with the random
re-instantiation of [PMK+99] — the ablation the paper credits for much of
its advantage ("we use indexes to re-assign the worst variable with the best
value in its domain, while in [PMK+99] variables were re-assigned with
random values").
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from functools import partial
from typing import Callable, Sequence

from ..faults import checkpoint_incumbent
from ..geometry import Rect
from ..index.stats import index_work_since, node_reads_probe, snapshot_trees
from ..obs import current
from ..query import ProblemInstance
from .best_value import ProbeMemo
from .budget import Budget
from .evaluator import QueryEvaluator
from .result import RunResult
from .solution import SolutionState

__all__ = ["ILSConfig", "indexed_local_search", "improve_worst_first"]


@dataclass
class ILSConfig:
    """Tuning knobs of ILS (the algorithm itself is parameter-free).

    ``use_index=False`` enables the [PMK+99]-style ablation: each
    improvement attempt draws ``random_tries`` random candidate values for
    the variable and keeps the best one that strictly improves it.
    """

    use_index: bool = True
    random_tries: int = 8
    stop_on_exact: bool = True

    def __post_init__(self) -> None:
        if self.random_tries < 1:
            raise ValueError(f"random_tries must be >= 1, got {self.random_tries}")


def indexed_local_search(
    instance: ProblemInstance,
    budget: Budget,
    seed: int | random.Random = 0,
    config: ILSConfig | None = None,
    evaluator: QueryEvaluator | None = None,
    warm_start: Sequence[int] | None = None,
) -> RunResult:
    """Run ILS within ``budget``; one budget *iteration* = one improvement
    attempt (one ``find_best_value`` call or random-sample round).

    ``warm_start`` seeds the *first* restart with a given assignment instead
    of a random one (later restarts stay random).  Because the warm state is
    recorded as incumbent before any climbing, a warm-started run can never
    report a worse answer than the assignment it was given.
    """
    config = config or ILSConfig()
    rng = seed if isinstance(seed, random.Random) else random.Random(seed)
    evaluator = evaluator or QueryEvaluator(instance)
    warm_values = evaluator.validated_warm_start(warm_start)
    obs = current()
    baseline = snapshot_trees(evaluator.trees)
    probe = node_reads_probe(evaluator.trees)
    budget.start()

    trace = obs.convergence_trace()
    best_values: tuple[int, ...] = ()
    best_violations = evaluator.num_constraints + 1  # beaten by the first seed
    local_maxima = 0
    restarts = 0
    iterations = 0

    def note_if_best(state: SolutionState) -> None:
        nonlocal best_values, best_violations
        if state.violations < best_violations:
            best_violations = state.violations
            best_values = state.as_tuple()
            trace.record(
                budget.elapsed(), iterations, best_violations, state.similarity
            )
            checkpoint_incumbent(
                best_values, best_violations, state.similarity,
                budget.elapsed(), iterations,
            )

    memo = ProbeMemo(evaluator)
    improve: Callable[[SolutionState, int], bool] = (
        memo.improve
        if config.use_index
        else partial(_improve_with_random_tries, config=config, rng=rng)
    )
    done = False
    with obs.span("ils.run", io=probe):
        # the first seed is drawn before the first budget check (as GILS
        # does), so even a run whose budget is already spent answers
        while not done:
            obs.event("restart", index=restarts)
            obs.counter("ils.restarts").inc()
            restarts += 1
            seeded_warm = False
            with obs.span("ils.seed"):
                if warm_values is not None:
                    state = evaluator.make_state(warm_values)
                    warm_values = None
                    seeded_warm = True
                else:
                    state = evaluator.random_state(rng)
            note_if_best(state)
            if seeded_warm and config.stop_on_exact and state.is_exact:
                break
            # climb to a local maximum
            with obs.span("ils.climb", io=probe):
                while not budget.exhausted():
                    improved = improve_worst_first(state, improve)
                    iterations += 1
                    budget.tick()
                    if not improved:
                        local_maxima += 1
                        obs.counter("ils.local_maxima").inc()
                        obs.event("local_maximum", violations=state.violations)
                        break
                    note_if_best(state)
                    if config.stop_on_exact and state.is_exact:
                        done = True
                        break
            done = done or budget.exhausted()

    index_work = index_work_since(evaluator.trees, baseline)
    obs.absorb_index_work(index_work)
    return RunResult(
        algorithm="ILS" if config.use_index else "LS-random",
        best_assignment=best_values,
        best_violations=best_violations,
        best_similarity=evaluator.similarity(best_violations),
        elapsed=budget.elapsed(),
        iterations=iterations,
        milestones=local_maxima,
        trace=trace,
        stats={
            "local_maxima": local_maxima,
            "restarts": restarts,
            "probes": memo.stats(),
            "index": index_work,
        },
    )


def improve_worst_first(
    state: SolutionState, improve: Callable[[SolutionState, int], bool]
) -> bool:
    """One ILS step: strictly improve some variable, worst-first.

    ``improve(state, variable)`` re-instantiates one variable if it can —
    a run's :meth:`ProbeMemo.improve`, or the random-tries ablation.  SEA's
    climbs and mutation take the same step.  Returns ``False`` when no
    variable can be improved, i.e. the state is a local maximum.
    """
    for variable in state.worst_variable_order():
        if state.violated_count(variable) == 0:
            # variables are worst-first: the rest satisfy everything already
            break
        if improve(state, variable):
            return True
    return False


def _improve_with_random_tries(
    state: SolutionState, variable: int, config: ILSConfig, rng: random.Random
) -> bool:
    """[PMK+99]-style move: sample random values, keep the best improving one."""
    columns = state.evaluator.columns[variable]
    constraints = state.constraint_windows(variable)
    best_satisfied = state.sat[variable]
    best: tuple[int, Rect] | None = None
    for _ in range(config.random_tries):
        candidate = rng.randrange(len(columns))
        rect = columns.rect(candidate)
        satisfied = sum(
            1 for predicate, window in constraints if predicate.test(rect, window)
        )
        if satisfied > best_satisfied:
            best_satisfied = satisfied
            best = (candidate, rect)
    if best is None:
        return False
    state.set_value(variable, *best)
    return True
