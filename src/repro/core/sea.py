"""Spatial Evolutionary Algorithm (SEA) — §5 of the paper.

An evolutionary algorithm whose operators exploit the spatial structure of
the problem and the R*-tree indexes:

* **selection** — tournament: each solution competes against ``T`` random
  population members and is replaced by the fittest of the group [BT96];
* **crossover** — greedy, structure-aware: with probability ``μ_c`` a
  solution keeps its ``c`` "best" variables (chosen by a greedy procedure
  that grows a well-satisfied subgraph) and adopts the remaining
  assignments from another random solution.  The crossover point ``c``
  starts at 1 and grows every ``g_c`` generations, so crossover generates
  variety early and preserves good solutions late;
* **mutation** — the only index-based operator and the one that makes SEA
  "behave increasingly like ILS" in late generations: with probability
  ``μ_m`` the worst variable is re-instantiated via ``find_best_value``, so
  mutation can only improve a solution.

The paper's ubiquitous winner: given enough time it usually finds exact
solutions even for hard 25-variable cliques.

Laptop-scale adaptations (both rooted in the paper's §7, which proposes
"variable parameter values depending on the time available" and seeding the
population with ILS local maxima):

* ``seed_with_local_maxima`` — the initial population consists of ILS local
  maxima instead of raw random seeds;
* ``immigrants_per_generation`` — every generation the worst ``k`` members
  are replaced by freshly climbed ILS local maxima.  The paper's published
  parameters assume populations of thousands (``p = 100·s``), large enough
  that genotype diversity survives the whole time budget; interpreted
  Python forces populations ~two orders of magnitude smaller, which fully
  homogenise within seconds and reduce SEA to a single local-search climb.
  The immigrant stream restores the exploration that the paper obtains
  from sheer population size, while keeping selection, greedy crossover
  and index-based mutation exactly as published.  Set it to 0 (and
  ``seed_with_local_maxima=False``) for the strictly-as-published variant;
  ``benchmarks/bench_ablation_sea_variants.py`` compares the two.
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
from .ils import improve_worst_first
from .result import RunResult
from .sea_params import SEAParameters
from .solution import SolutionState

__all__ = ["SEAConfig", "spatial_evolutionary_algorithm", "greedy_keep_set"]

#: population scale used when none is given: sized for interpreted-Python
#: throughput (the paper's C-era ``p = 100·s`` would spend the whole budget
#: on a single generation here).
DEFAULT_SCALE = 0.005


@dataclass
class SEAConfig:
    """SEA knobs; ``parameters=None`` derives them from the problem size."""

    parameters: SEAParameters | None = None
    scale: float = DEFAULT_SCALE
    stop_on_exact: bool = True
    #: start from ILS local maxima instead of random seeds (§7 suggestion)
    seed_with_local_maxima: bool = True
    #: fresh ILS local maxima replacing the worst members each generation;
    #: ``None`` scales with the population (population // 8), 0 gives the
    #: strictly-as-published algorithm
    immigrants_per_generation: int | None = None

    def __post_init__(self) -> None:
        if (
            self.immigrants_per_generation is not None
            and self.immigrants_per_generation < 0
        ):
            raise ValueError(
                f"immigrants_per_generation must be >= 0, "
                f"got {self.immigrants_per_generation}"
            )

    def resolve(self, instance: ProblemInstance) -> SEAParameters:
        if self.parameters is not None:
            return self.parameters
        return SEAParameters.from_problem_size(instance.problem_size(), self.scale)

    def resolve_immigrants(self, parameters: SEAParameters) -> int:
        if self.immigrants_per_generation is not None:
            return self.immigrants_per_generation
        return max(2, parameters.population // 8)


def spatial_evolutionary_algorithm(
    instance: ProblemInstance,
    budget: Budget,
    seed: int | random.Random = 0,
    config: SEAConfig | None = None,
    evaluator: QueryEvaluator | None = None,
    warm_start: Sequence[int] | None = None,
) -> RunResult:
    """Run SEA within ``budget``; one budget *iteration* = one generation.

    ``warm_start`` replaces the first member of the initial population with
    a given assignment (before the optional seeding climb, which only
    improves it), so a warm-started run never reports a worse answer than
    the assignment it was given.
    """
    config = config or SEAConfig()
    rng = seed if isinstance(seed, random.Random) else random.Random(seed)
    evaluator = evaluator or QueryEvaluator(instance)
    warm_values = evaluator.validated_warm_start(warm_start)
    parameters = config.resolve(instance)
    num_variables = evaluator.num_variables
    obs = current()
    baseline = snapshot_trees(evaluator.trees)
    probe = node_reads_probe(evaluator.trees)
    memo = ProbeMemo(evaluator)
    budget.start()

    trace = obs.convergence_trace()
    generation = 0
    mutations = 0
    immigrants = 0
    crossovers = 0
    with obs.span("sea.run", io=probe):
        with obs.span("sea.init", io=probe):
            # the whole initial population is evaluated in one batched kernel
            # pass; values are drawn in the same rng order as per-state
            # construction
            population = evaluator.random_states(rng, parameters.population)
            if warm_values is not None:
                population[0] = evaluator.make_state(warm_values)
            if config.seed_with_local_maxima:
                population = [
                    _climb_to_local_maximum(state, memo, budget)
                    for state in population
                ]
        best_values: tuple[int, ...] = population[0].as_tuple()
        best_violations = population[0].violations

        def note_if_best(state: SolutionState) -> bool:
            nonlocal best_values, best_violations
            if state.violations < best_violations:
                best_violations = state.violations
                best_values = state.as_tuple()
                trace.record(
                    budget.elapsed(), generation, best_violations, state.similarity
                )
                checkpoint_incumbent(
                    best_values, best_violations, state.similarity,
                    budget.elapsed(), generation,
                )
                return True
            return False

        # evaluate the initial generation
        for state in population:
            note_if_best(state)
        exact_found = config.stop_on_exact and best_violations == 0

        while not exact_found and not budget.exhausted():
            with obs.span("sea.generation", io=probe):
                point = parameters.crossover_point(generation, num_variables)

                # --- offspring allocation (tournament selection) ---------
                size = len(population)
                next_population = []
                for state in population:
                    winner = state
                    for _ in range(parameters.tournament):
                        rival = population[rng.randrange(size)]
                        if rival.violations < winner.violations:
                            winner = rival
                    next_population.append(winner.copy())
                population = next_population

                # --- immigration (laptop-scale adaptation, see module
                # docstring) --------------------------------------------
                immigrant_quota = config.resolve_immigrants(parameters)
                if immigrant_quota and not budget.exhausted():
                    worst_first = sorted(
                        range(size), key=lambda index: -population[index].violations
                    )
                    for index in worst_first[:immigrant_quota]:
                        fresh = _climb_to_local_maximum(
                            evaluator.random_state(rng), memo, budget
                        )
                        population[index] = fresh
                        immigrants += 1
                        if (
                            note_if_best(fresh)
                            and config.stop_on_exact
                            and best_violations == 0
                        ):
                            exact_found = True
                            break
                    if exact_found:
                        break

                # --- crossover ------------------------------------------
                crossed = 0
                for state in population:
                    if rng.random() >= parameters.crossover_rate:
                        continue
                    donor = population[rng.randrange(size)]
                    if donor is state:
                        continue
                    if parameters.crossover_kind == "greedy":
                        keep = greedy_keep_set(state, point)
                    else:
                        keep = _random_keep_set(num_variables, point, rng)
                    for variable in range(num_variables):
                        if variable not in keep:
                            state.set_value(
                                variable, donor.values[variable], donor.rects[variable]
                            )
                    crossed += 1
                if crossed:
                    crossovers += crossed
                    obs.event(
                        "crossover", generation=generation, point=point, count=crossed
                    )

                # --- mutation (the index-based operator) ----------------
                for state in population:
                    if (
                        parameters.mutation_rate < 1.0
                        and rng.random() >= parameters.mutation_rate
                    ):
                        continue
                    # index-based: re-instantiate the worst variable via
                    # find_best_value (only ever improves the solution)
                    improve_worst_first(state, memo.improve)
                    mutations += 1

                # --- evaluation -----------------------------------------
                generation += 1
                budget.tick()
                for state in population:
                    if (
                        note_if_best(state)
                        and config.stop_on_exact
                        and best_violations == 0
                    ):
                        exact_found = True
                        break

    obs.counter("sea.generations").inc(generation)
    obs.counter("sea.mutations").inc(mutations)
    obs.counter("sea.crossovers").inc(crossovers)
    obs.counter("sea.immigrants").inc(immigrants)
    index_work = index_work_since(evaluator.trees, baseline)
    obs.absorb_index_work(index_work)
    return RunResult(
        algorithm="SEA",
        best_assignment=best_values,
        best_violations=best_violations,
        best_similarity=evaluator.similarity(best_violations),
        elapsed=budget.elapsed(),
        iterations=generation,
        milestones=generation,
        trace=trace,
        stats={
            "population": parameters.population,
            "tournament": parameters.tournament,
            "mutations": mutations,
            "immigrants": immigrants,
            "crossovers": crossovers,
            "final_crossover_point": parameters.crossover_point(
                generation, num_variables
            ),
            "probes": memo.stats(),
            "index": index_work,
        },
    )


def _climb_to_local_maximum(
    state: SolutionState, memo: ProbeMemo, budget: Budget
) -> SolutionState:
    """Hill-climb ``state`` to an ILS local maximum (budget-aware)."""
    while not budget.exhausted():
        if not improve_worst_first(state, memo.improve):
            break
    return state


def greedy_keep_set(state: SolutionState, count: int) -> set[int]:
    """The ``c`` variables that keep their assignments during crossover.

    The paper's greedy splitting (Figure 8): variables are first ordered by
    number of satisfied conditions (descending; ties → fewer violations,
    then index).  The best variable seeds the set ``X``; thereafter the
    variable satisfying the most conditions *with respect to variables
    already in X* is inserted, ties resolved by the initial order.  The
    effect is that an already-solved subgraph survives crossover intact.
    """
    evaluator = state.evaluator
    num_variables = evaluator.num_variables
    count = max(1, min(count, num_variables - 1))
    initial_order = sorted(
        range(num_variables),
        key=lambda v: (-state.sat[v], state.violated_count(v), v),
    )
    # satisfied_mask[v] = bitmask of join partners v currently satisfies;
    # one pass over the edges, then the greedy loop is pure bit counting
    rects = state.rects
    satisfied_mask = [0] * num_variables
    for i, j, predicate in evaluator.query.edges():
        if predicate.test(rects[i], rects[j]):
            satisfied_mask[i] |= 1 << j
            satisfied_mask[j] |= 1 << i
    keep: set[int] = {initial_order[0]}
    keep_mask = 1 << initial_order[0]
    remaining = [v for v in initial_order if v != initial_order[0]]
    while len(keep) < count:
        # remaining is in initial order, so max() on the count alone keeps
        # the paper's tie-break (earlier initial position wins)
        best_variable = max(
            remaining, key=lambda v: (satisfied_mask[v] & keep_mask).bit_count()
        )
        keep.add(best_variable)
        keep_mask |= 1 << best_variable
        remaining.remove(best_variable)
    return keep


def _random_keep_set(num_variables: int, count: int, rng: random.Random) -> set[int]:
    """Ablation: the classic single-point crossover of [H75]/[PMK+99] —
    a random contiguous prefix keeps its assignments."""
    count = max(1, min(count, num_variables - 1))
    start = rng.randrange(num_variables)
    return {(start + offset) % num_variables for offset in range(count)}
