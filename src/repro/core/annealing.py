"""Indexed Simulated Annealing (ISA) — the third [PMK+99] heuristic family.

The paper's §2 discusses the heuristics of [PMK+99] — local search,
*simulated annealing* and genetic algorithms — and §3-5 upgrade two of them
(local and evolutionary search) with index awareness.  This module completes
the family for comparison purposes: classic simulated annealing over the
solution graph, with the same index-aware move generator made available as
an option.

Moves re-instantiate one uniformly chosen variable.  The proposal is either

* **random** — a uniform object from the variable's domain (the [PMK+99]
  baseline), or
* **indexed** (probability ``guided_move_rate``) — an object drawn from a
  window query around one of the variable's current constraint windows, so
  the proposal satisfies at least that join condition.

Acceptance follows Metropolis: downhill (fewer violations) always, uphill
with probability ``exp(-Δ/T)``.  The temperature cools linearly with budget
*progress* (time- or iteration-based), so one parameter set works for any
budget length — start at ``initial_temperature`` (in units of violations),
end near zero.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import Sequence

from ..faults import checkpoint_incumbent
from ..index.queries import search_predicate
from ..index.stats import index_work_since, node_reads_probe, snapshot_trees
from ..obs import current
from ..query import ProblemInstance
from .budget import Budget
from .evaluator import QueryEvaluator
from .result import RunResult

__all__ = ["SAConfig", "indexed_simulated_annealing"]


@dataclass
class SAConfig:
    """Annealing knobs.

    ``initial_temperature`` is in violation units: at T=2 an uphill move
    adding one violation is accepted with probability ``exp(-0.5) ≈ 0.61``.
    ``guided_move_rate = 0`` gives the classic [PMK+99]-style annealer.
    """

    initial_temperature: float = 2.0
    final_temperature: float = 0.01
    guided_move_rate: float = 0.5
    stop_on_exact: bool = True

    def __post_init__(self) -> None:
        if self.initial_temperature <= 0:
            raise ValueError(
                f"initial_temperature must be positive, "
                f"got {self.initial_temperature}"
            )
        if not 0 < self.final_temperature <= self.initial_temperature:
            raise ValueError(
                "final_temperature must be in (0, initial_temperature], "
                f"got {self.final_temperature}"
            )
        if not 0.0 <= self.guided_move_rate <= 1.0:
            raise ValueError(
                f"guided_move_rate must be in [0, 1], got {self.guided_move_rate}"
            )

    def temperature(self, progress: float) -> float:
        """Geometric interpolation from initial to final temperature."""
        ratio = self.final_temperature / self.initial_temperature
        return self.initial_temperature * ratio ** min(1.0, max(0.0, progress))


def indexed_simulated_annealing(
    instance: ProblemInstance,
    budget: Budget,
    seed: int | random.Random = 0,
    config: SAConfig | None = None,
    evaluator: QueryEvaluator | None = None,
    warm_start: Sequence[int] | None = None,
) -> RunResult:
    """Run simulated annealing within ``budget``; one iteration = one move
    proposal (accepted or not).

    ``warm_start`` replaces the random initial state; the walk may still
    move downhill, but the incumbent starts at the warm assignment, so the
    reported answer is never worse than it.
    """
    config = config or SAConfig()
    rng = seed if isinstance(seed, random.Random) else random.Random(seed)
    evaluator = evaluator or QueryEvaluator(instance)
    warm_values = evaluator.validated_warm_start(warm_start)
    obs = current()
    baseline = snapshot_trees(evaluator.trees)
    probe = node_reads_probe(evaluator.trees)
    budget.start()

    trace = obs.convergence_trace()
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
    accepted = 0
    num_variables = evaluator.num_variables

    with obs.span("isa.run", io=probe):
        while not budget.exhausted():
            if config.stop_on_exact and best_violations == 0:
                break
            variable = rng.randrange(num_variables)
            candidate = _propose(state, evaluator, variable, config, rng)
            iterations += 1
            budget.tick()
            if candidate is None or candidate == state.values[variable]:
                continue
            before = state.violations
            old_value, old_rect = state.values[variable], state.rects[variable]
            state.set_value(variable, candidate)
            delta = state.violations - before
            if delta > 0:
                temperature = config.temperature(budget.progress())
                if rng.random() >= math.exp(-delta / temperature):
                    state.set_value(variable, old_value, old_rect)  # reject
                    continue
            accepted += 1
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

    obs.counter("isa.proposals").inc(iterations)
    obs.counter("isa.accepted_moves").inc(accepted)
    index_work = index_work_since(evaluator.trees, baseline)
    obs.absorb_index_work(index_work)
    return RunResult(
        algorithm="ISA" if config.guided_move_rate > 0 else "SA",
        best_assignment=best_values,
        best_violations=best_violations,
        best_similarity=evaluator.similarity(best_violations),
        elapsed=budget.elapsed(),
        iterations=iterations,
        milestones=accepted,
        trace=trace,
        stats={
            "accepted_moves": accepted,
            "guided_move_rate": config.guided_move_rate,
            "index": index_work,
        },
    )


def _propose(
    state, evaluator: QueryEvaluator, variable: int, config: SAConfig, rng
) -> int | None:
    """A candidate value for ``variable``: indexed or uniform."""
    if config.guided_move_rate and rng.random() < config.guided_move_rate:
        constraints = state.constraint_windows(variable)
        violated = [
            (predicate, window)
            for (predicate, window), (j, _p) in zip(
                constraints, evaluator.neighbors[variable]
            )
            if not predicate.test(state.rects[variable], window)
        ]
        pool = violated or constraints
        if pool:
            predicate, window = pool[rng.randrange(len(pool))]
            matches = [
                item
                for _rect, item in search_predicate(
                    evaluator.trees[variable], predicate, window
                )
            ]
            if matches:
                return matches[rng.randrange(len(matches))]
            return None
    return rng.randrange(len(evaluator.columns[variable]))
