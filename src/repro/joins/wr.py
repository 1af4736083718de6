"""Window Reduction (WR) — systematic exact join via backtracking [PMT99].

WR "integrates the ideas of backtracking and index nested loop algorithms":
when a variable gets a value, that rectangle becomes a query *window* over
the next dataset's R*-tree; if a window query yields no candidate, search
backtracks.  This implementation instantiates variables in a
connectivity-maximising static order, so every variable after the first is
constrained by at least one window (for connected queries).

WR enumerates *exact* solutions only; the paper's point is precisely that
algorithms of this family cannot retrieve approximate answers (§2) — the
approximate generalisation is IBB in :mod:`repro.core.ibb`.
"""

from __future__ import annotations

from typing import Iterable, Iterator

from ..core.evaluator import QueryEvaluator
from ..core.ibb import connectivity_order, neighbors_earlier_in
from ..index.queries import search_windows
from ..query import ProblemInstance

__all__ = ["window_reduction_join", "window_candidates"]


def window_reduction_join(
    instance: ProblemInstance,
    evaluator: QueryEvaluator | None = None,
    limit: int | None = None,
) -> Iterator[tuple[int, ...]]:
    """Yield exact solutions; stops after ``limit`` solutions when given."""
    evaluator = evaluator or QueryEvaluator(instance)
    order = connectivity_order(evaluator)
    earlier_neighbors = neighbors_earlier_in(order, evaluator)
    num_variables = evaluator.num_variables
    rects = evaluator.rects
    values = [0] * num_variables
    emitted = 0

    def backtrack(depth: int) -> Iterator[tuple[int, ...]]:
        nonlocal emitted
        if depth == num_variables:
            emitted += 1
            yield tuple(values)
            return
        variable = order[depth]
        edges = earlier_neighbors[depth]
        if not edges:
            # only the first variable in a connected query is unconstrained
            candidates: Iterable[int] = range(len(rects[variable]))
        else:
            candidates = window_candidates(evaluator, variable, edges, values)
        for object_id in candidates:
            values[variable] = object_id
            yield from backtrack(depth + 1)
            if limit is not None and emitted >= limit:
                return

    yield from backtrack(0)


def window_candidates(evaluator, variable, edges, values) -> list[int]:
    """Objects satisfying *all* instantiated conditions on ``variable``.

    One index window query on the most selective-looking edge (the first),
    filtered by direct predicate tests on the remaining edges — the index
    nested loop at the heart of WR, and PJM's extension step.  ``values``
    maps a variable to its object id (a list or a partial-assignment dict).
    """
    rects = evaluator.rects
    first_j, first_predicate = edges[0]
    items, _satisfied = search_windows(
        evaluator.trees[variable], [(first_predicate, rects[first_j][values[first_j]])]
    )
    if items and len(edges) > 1:
        own = rects[variable]
        others = [(predicate, rects[j][values[j]]) for j, predicate in edges[1:]]
        items = [
            item
            for item in items
            if all(predicate.test(own[item], window) for predicate, window in others)
        ]
    return items
