"""Indexed Branch and Bound (IBB) — the systematic algorithm of §6.

A Window-Reduction [PMT99] variant that retrieves the *best* (not only
exact) solutions: variables are instantiated depth-first; candidate values
for each variable are enumerated through index window queries (all windows
of a candidate list in one descent) in decreasing order of the number of
join conditions they satisfy with respect to the already-instantiated
variables; a partial solution is abandoned only when
its accumulated violations can no longer lead to a solution strictly better
than the incumbent (optimistically assuming zero future violations).

IBB is complete: run to exhaustion it provably returns an optimal solution.
Its practical role in the paper is the *two-step* methods — seeding the
incumbent with a heuristic's solution (ILS or SEA) shrinks the search space
by orders of magnitude (Figure 11).
"""

from __future__ import annotations

from dataclasses import dataclass

from ..geometry import Rect
from ..index.queries import search_windows
from ..index.stats import index_work_since, node_reads_probe, snapshot_trees
from ..obs import current
from ..query import ProblemInstance
from .budget import Budget
from .evaluator import QueryEvaluator
from .result import RunResult

__all__ = ["IBBConfig", "indexed_branch_and_bound", "connectivity_order", "neighbors_earlier_in"]


@dataclass
class IBBConfig:
    """IBB knobs.

    ``stop_at_violations`` ends the search as soon as the incumbent is at
    least this good — 0 (the default) stops at the first exact solution,
    which is also the provable optimum.  Set it to -1 to force exhaustion
    even after an exact solution is found (useful to prove uniqueness).
    """

    stop_at_violations: int = 0
    use_connectivity_order: bool = True


def indexed_branch_and_bound(
    instance: ProblemInstance,
    budget: Budget | None = None,
    initial_bound: int | None = None,
    initial_assignment: tuple[int, ...] | None = None,
    config: IBBConfig | None = None,
    evaluator: QueryEvaluator | None = None,
) -> RunResult:
    """Run IBB; one budget *iteration* = one search-node expansion.

    Parameters
    ----------
    initial_bound:
        Incumbent violation count to start from — the "target similarity"
        the two-step methods obtain from a heuristic.  ``None`` starts
        unbounded (the paper's plain-IBB baseline).
    initial_assignment:
        The solution realising ``initial_bound`` (returned unchanged if
        nothing better is found).

    The result's ``stats['proven_optimal']`` is True when the search space
    was exhausted or an exact solution was found.
    """
    config = config or IBBConfig()
    evaluator = evaluator or QueryEvaluator(instance)
    budget = budget or Budget.iterations(10**12)
    obs = current()
    tree_baseline = snapshot_trees(evaluator.trees)
    probe = node_reads_probe(evaluator.trees)
    budget.start()

    num_variables = evaluator.num_variables
    if config.use_connectivity_order:
        order = connectivity_order(evaluator)
    else:
        order = list(range(num_variables))

    # incumbent: strictly fewer violations than this are searched for
    if initial_bound is not None:
        if initial_assignment is None or len(initial_assignment) != num_variables:
            raise ValueError("initial_bound requires a matching initial_assignment")
        incumbent_violations = initial_bound
        incumbent_values: tuple[int, ...] | None = tuple(initial_assignment)
    else:
        incumbent_violations = evaluator.num_constraints + 1
        incumbent_values = None

    trace = obs.convergence_trace()
    nodes_expanded = 0
    exhausted_cleanly = True
    values = [0] * num_variables
    #: windows[v] — the rectangle of ``values[v]`` for the instantiated prefix,
    #: fetched when the next level first asks for candidates under it
    windows: list[Rect | None] = [None] * num_variables

    earlier_neighbors = neighbors_earlier_in(order, evaluator)

    def record_incumbent(violations: int) -> None:
        nonlocal incumbent_violations, incumbent_values
        incumbent_violations = violations
        incumbent_values = tuple(values)
        trace.record(
            budget.elapsed(),
            nodes_expanded,
            violations,
            evaluator.similarity(violations),
        )

    class _Stop(Exception):
        pass

    def descend(depth: int, partial_violations: int) -> None:
        nonlocal nodes_expanded, exhausted_cleanly
        if partial_violations >= incumbent_violations:
            return
        if depth == num_variables:
            record_incumbent(partial_violations)
            if incumbent_violations <= config.stop_at_violations:
                raise _Stop
            return
        variable = order[depth]
        edges = earlier_neighbors[depth]
        if depth:
            parent = order[depth - 1]
            windows[parent] = evaluator.columns[parent].rect(values[parent])
        for object_id, satisfied in _candidates(evaluator, variable, edges, windows):
            nodes_expanded += 1
            budget.tick()
            if budget.exhausted():
                exhausted_cleanly = False
                raise _Stop
            added_violations = len(edges) - satisfied
            if partial_violations + added_violations >= incumbent_violations:
                # candidates come in decreasing-satisfied order: stop here
                return
            values[variable] = object_id
            descend(depth + 1, partial_violations + added_violations)

    with obs.span("ibb.run", io=probe):
        try:
            descend(0, 0)
        except _Stop:
            pass
    obs.counter("ibb.nodes_expanded").inc(nodes_expanded)
    index_work = index_work_since(evaluator.trees, tree_baseline)
    obs.absorb_index_work(index_work)

    proven = exhausted_cleanly or incumbent_violations == 0
    if incumbent_values is None:
        # nothing completed within the budget; fall back to a trivial tuple
        incumbent_values = tuple(0 for _ in range(num_variables))
        incumbent_violations = evaluator.count_violations(incumbent_values)
        proven = False
    return RunResult(
        algorithm="IBB",
        best_assignment=incumbent_values,
        best_violations=incumbent_violations,
        best_similarity=evaluator.similarity(incumbent_violations),
        elapsed=budget.elapsed(),
        iterations=nodes_expanded,
        milestones=nodes_expanded,
        trace=trace,
        stats={
            "nodes_expanded": nodes_expanded,
            "proven_optimal": proven,
            "index": index_work,
        },
    )


def _candidates(evaluator, variable, edges, windows):
    """Candidate values for ``variable``, best first.

    Yields ``(object_id, satisfied)`` in decreasing ``satisfied`` order,
    where ``satisfied`` counts the conditions held against the instantiated
    neighbors in ``edges``, whose rectangles are ``windows[j]``.  Counts come
    from one multi-window descent that is charged as one index window query
    per edge; objects matching no window form the implicit 0-bucket and are
    enumerated last (they are reached only when the bound still allows
    ``len(edges)`` extra violations).
    """
    dataset_size = len(evaluator.columns[variable])
    if not edges:
        for object_id in range(dataset_size):
            yield object_id, 0
        return
    items, counts = search_windows(
        evaluator.trees[variable], [(predicate, windows[j]) for j, predicate in edges]
    )
    buckets: list[list[int]] = [[] for _ in range(len(edges) + 1)]
    for object_id, satisfied in zip(items, counts):
        buckets[satisfied].append(object_id)
    for satisfied in range(len(edges), 0, -1):
        for object_id in sorted(buckets[satisfied]):
            yield object_id, satisfied
    # 0-bucket: everything the windows never hit
    seen = set(items)
    for object_id in range(dataset_size):
        if object_id not in seen:
            yield object_id, 0


def neighbors_earlier_in(order: list[int], evaluator: QueryEvaluator) -> list[list[tuple]]:
    """Per depth ``d``: the ``(j, predicate)`` join partners of ``order[d]``
    that come before it in ``order`` — instantiated when it gets its value."""
    position_of = {variable: depth for depth, variable in enumerate(order)}
    return [
        [
            (j, predicate)
            for j, predicate in evaluator.neighbors[variable]
            if position_of[j] < position_of[variable]
        ]
        for variable in order
    ]


def connectivity_order(evaluator: QueryEvaluator) -> list[int]:
    """Static variable order maximising early constraint propagation.

    Greedy: start from the highest-degree variable, then repeatedly append
    the unordered variable with the most edges into the ordered prefix
    (ties by total degree, then index).  For cliques any order is
    equivalent; for chains this yields an end-to-end sweep.
    """
    num_variables = evaluator.num_variables
    degrees = evaluator.degrees
    first = max(range(num_variables), key=lambda v: (degrees[v], -v))
    order = [first]
    chosen = {first}
    while len(order) < num_variables:
        best_variable = -1
        best_key: tuple[int, int, int] | None = None
        for variable in range(num_variables):
            if variable in chosen:
                continue
            into_prefix = sum(
                1 for j, _p in evaluator.neighbors[variable] if j in chosen
            )
            key = (-into_prefix, -degrees[variable], variable)
            if best_key is None or key < best_key:
                best_key = key
                best_variable = variable
        order.append(best_variable)
        chosen.add(best_variable)
    return order
