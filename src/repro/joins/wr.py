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
from ..geometry import Rect
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
    values = [0] * num_variables
    #: windows[v] — the rectangle of ``values[v]``, for the instantiated prefix
    windows: list[Rect | None] = [None] * num_variables
    emitted = 0

    def backtrack(depth: int) -> Iterator[tuple[int, ...]]:
        nonlocal emitted
        if depth == num_variables:
            emitted += 1
            yield tuple(values)
            return
        variable = order[depth]
        edges = earlier_neighbors[depth]
        if depth:
            parent = order[depth - 1]
            windows[parent] = evaluator.columns[parent].rect(values[parent])
        if not edges:
            # only the first variable in a connected query is unconstrained
            candidates: Iterable[int] = range(len(evaluator.columns[variable]))
        else:
            candidates = window_candidates(evaluator, variable, edges, windows.__getitem__)
        for object_id in candidates:
            values[variable] = object_id
            yield from backtrack(depth + 1)
            if limit is not None and emitted >= limit:
                return

    yield from backtrack(0)


def window_candidates(evaluator, variable, edges, window_of) -> list[int]:
    """Objects satisfying *all* instantiated conditions on ``variable``.

    One index window query on the most selective-looking edge (the first),
    filtered by direct predicate tests on the remaining edges — the index
    nested loop at the heart of WR, and PJM's extension step.
    ``window_of(j)`` is the rectangle instantiated variable ``j`` holds: WR
    reads its stack, PJM fetches the row.

    In the hard region a window hits a handful of objects at most, so the
    filter fetches each hit's row and tests it: a kernel call over the hits
    would cost more than it saves.
    """
    first_j, first_predicate = edges[0]
    items, _satisfied = search_windows(
        evaluator.trees[variable], [(first_predicate, window_of(first_j))]
    )
    if items and len(edges) > 1:
        own = evaluator.columns[variable]
        others = [(predicate, window_of(j)) for j, predicate in edges[1:]]
        items = [
            item
            for item in items
            if all(predicate.test(own.rect(item), window) for predicate, window in others)
        ]
    return items
