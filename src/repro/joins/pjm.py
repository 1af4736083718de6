"""Pairwise Join Method (PJM) — multiway joins from pairwise operators [MP99].

PJM processes a multiway join as a sequence of pairwise operations: an
R-tree join [BKS93] produces the first intermediate result, which is then
extended one variable at a time with index nested loop joins (window queries
against the next dataset's R*-tree), checking all query edges into the
already-joined prefix.

This is a faithful *simplification* of [MP99]: the original additionally
optimises the join order with a dynamic-programming planner over estimated
costs and offers hash-join operators for intermediate results; with the
paper's equal-size, equal-density synthetic datasets all orders have equal
estimated cost, so a connectivity-greedy order (seeded by the first edge)
captures the method's behaviour.  Exactness is what matters here: PJM is a
baseline that, like WR/ST, can only return exact solutions — the
shortcoming motivating the paper (§2: "PJM and any method based on pairwise
algorithms cannot be extended for approximate retrieval").
"""

from __future__ import annotations

from typing import Iterator

from ..core.evaluator import QueryEvaluator
from ..query import ProblemInstance

__all__ = ["pairwise_join_method"]

from .pairwise import rtree_join
from .wr import window_candidates


def pairwise_join_method(
    instance: ProblemInstance, evaluator: QueryEvaluator | None = None
) -> Iterator[tuple[int, ...]]:
    """Yield every exact solution by composing pairwise joins.

    Requires the seed edge to be plain ``intersects`` (the R-tree join
    operator's condition); later edges may use any predicate.
    """
    evaluator = evaluator or QueryEvaluator(instance)
    query = instance.query
    seed_edge = _pick_seed_edge(evaluator)
    if seed_edge is None:
        raise ValueError(
            "pairwise_join_method needs at least one intersects edge to seed "
            "the R-tree join; use window_reduction_join instead"
        )
    first_i, first_j = seed_edge
    order = _attachment_order(evaluator, first_i, first_j)

    # intermediate result: list of partial assignments over `bound` variables
    columns = evaluator.columns
    bound = [first_i, first_j]
    partials: list[dict[int, int]] = [
        {first_i: item_i, first_j: item_j}
        for item_i, item_j in rtree_join(
            evaluator.trees[first_i], evaluator.trees[first_j]
        )
    ]

    for variable in order:
        edges = [
            (j, predicate)
            for j, predicate in evaluator.neighbors[variable]
            if j in set(bound)
        ]
        extended: list[dict[int, int]] = []
        for partial in partials:
            # a window is fetched when asked for: most extensions end at the
            # first one, with no hit
            candidates = window_candidates(
                evaluator, variable, edges, lambda j: columns[j].rect(partial[j])
            )
            for item in candidates:
                new_partial = dict(partial)
                new_partial[variable] = item
                extended.append(new_partial)
        partials = extended
        bound.append(variable)
        if not partials:
            return

    for partial in partials:
        yield tuple(partial[v] for v in range(evaluator.num_variables))


def _pick_seed_edge(evaluator: QueryEvaluator) -> tuple[int, int] | None:
    """The first ``intersects`` edge, preferring high-degree endpoints."""
    best: tuple[int, int] | None = None
    best_degree = -1
    for i, j, predicate in evaluator.query.edges():
        if predicate.name != "intersects":
            continue
        degree = evaluator.degrees[i] + evaluator.degrees[j]
        if degree > best_degree:
            best_degree = degree
            best = (i, j)
    return best


def _attachment_order(
    evaluator: QueryEvaluator, first_i: int, first_j: int
) -> list[int]:
    """Greedy order of the remaining variables: most edges into the prefix
    first (every variable must touch the prefix — queries are connected)."""
    bound = {first_i, first_j}
    order = []
    while len(bound) < evaluator.num_variables:
        best_variable = -1
        best_key: tuple[int, int] | None = None
        for variable in range(evaluator.num_variables):
            if variable in bound:
                continue
            into_prefix = sum(
                1 for j, _predicate in evaluator.neighbors[variable] if j in bound
            )
            if into_prefix == 0:
                continue
            key = (-into_prefix, variable)
            if best_key is None or key < best_key:
                best_key = key
                best_variable = variable
        if best_variable < 0:
            raise ValueError("query graph is disconnected")
        order.append(best_variable)
        bound.add(best_variable)
    return order
