"""*Find best value* — the multi-window branch-and-bound of Figure 5.

Given the variable being re-instantiated, the current rectangles of its join
partners act as query *windows*; the goal is the object in the variable's
R*-tree that satisfies the most join conditions (intersects the most
windows, for the default predicate).  The search descends the tree visiting
entries in decreasing order of the number of windows they (may) satisfy and
prunes any subtree whose count cannot strictly beat the best leaf score
found so far — "if an intermediate node satisfies the same or a smaller
number of conditions than maxConditions, it cannot contain any better
solution and is not visited".

This single routine powers all three heuristics:

* **ILS** re-instantiates its worst variable with the result,
* **GILS** does the same but scores leaves with the *effective* value
  ``satisfied − λ·penalty`` (the intermediate-node bound stays admissible
  because penalties are non-negative),
* **SEA** uses it as its mutation operator.

Since it is *the* hot loop of the whole library, node entries are scored
with the columnar NumPy kernels of :mod:`repro.geometry.kernels`: each node
caches a packed ``(len, 4)`` bounds array and all of its entries are scored
in one vectorized call.  :func:`brute_force_best_value` — a scalar scan
through ``predicate.test`` that shares no code with the search — is the
oracle the property suite checks it against.
"""

from __future__ import annotations

from typing import Any, Callable, Sequence

import numpy as np

from ..geometry import Intersects, Rect, SpatialPredicate
from ..geometry.kernels import make_count_scorer
from ..index import RStarTree
from ..index.node import Node
from ..obs import current

__all__ = ["BestValue", "find_best_value", "brute_force_best_value"]


class BestValue:
    """Outcome of a successful search: the new object and its scores."""

    __slots__ = ("item", "rect", "satisfied", "score")

    def __init__(self, item: Any, rect: Rect, satisfied: int, score: float):
        self.item = item
        self.rect = rect
        #: number of join conditions the object satisfies
        self.satisfied = satisfied
        #: effective score (``satisfied`` minus any penalty contribution)
        self.score = score

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"BestValue(item={self.item!r}, satisfied={self.satisfied}, "
            f"score={self.score})"
        )


def find_best_value(
    tree: RStarTree,
    constraints: list[tuple[SpatialPredicate, Rect]],
    floor_score: float,
    penalty: Callable[[Any], float] | None = None,
) -> BestValue | None:
    """Best object of ``tree`` under the multi-window criterion.

    Vectorized branch-and-bound: one kernel call scores a whole node.  For
    the default all-``intersects`` case the leaf test and the
    intermediate-node admissible filter coincide, so a single broadcast
    against the packed window array serves both roles; other predicate mixes
    go through the generic per-constraint kernels.

    Parameters
    ----------
    constraints:
        ``(predicate, window)`` pairs: the join conditions incident to the
        variable being re-instantiated, with predicates oriented
        candidate→window.
    floor_score:
        Only results with ``score > floor_score`` are returned — callers
        pass the current assignment's (effective) score, so ``None`` means
        "no strictly better value exists" and the variable keeps its value.
    penalty:
        Optional GILS hook mapping an object id to its penalty contribution
        ``λ·penalty(v←r)``; leaf scores become ``satisfied − penalty(item)``.

    Returns ``None`` when no object beats ``floor_score`` (in particular
    when ``constraints`` is empty, since no object can then improve
    anything).
    """
    if not constraints:
        return None
    tree.stats.best_value_searches += 1
    if tree.root.mbr is None:
        return None
    all_intersects = all(type(predicate) is Intersects for predicate, _w in constraints)
    if all_intersects:
        # leaf test and admissible filter coincide: one pre-packed broadcast
        scorer = make_count_scorer(constraints)

        def score_node(node: Node, is_leaf: bool) -> np.ndarray:
            return scorer(node.bounds_array())

    else:
        leaf_scorer = make_count_scorer(constraints, "test")
        inner_scorer = make_count_scorer(constraints, "filter")

        def score_node(node: Node, is_leaf: bool) -> np.ndarray:
            array = node.bounds_array()
            return leaf_scorer(array) if is_leaf else inner_scorer(array)

    best: BestValue | None = None
    best_score = floor_score
    stats = tree.stats
    pager = tree.pager
    if pager is not None:
        obs = current()
        buffer_hits = obs.counter("index.buffer.hit")
        buffer_misses = obs.counter("index.buffer.miss")

    def descend(node: Node) -> None:
        nonlocal best, best_score
        stats.node_reads += 1
        if pager is not None:
            if pager.access(id(node)):
                buffer_hits.inc()
            else:
                buffer_misses.inc()
        is_leaf = node.is_leaf
        if is_leaf:
            stats.leaf_reads += 1
        counts = score_node(node, is_leaf)
        candidates = np.flatnonzero(counts > best_score)
        if candidates.size == 0:
            return
        # visit high-count entries first so the bound tightens early; the
        # stable sort keeps entry order among ties, so the first-found
        # winner is deterministic
        order = candidates[np.argsort(-counts[candidates], kind="stable")]
        children = node.children
        if is_leaf:
            for position in order:
                satisfied = int(counts[position])
                if satisfied <= best_score:
                    break  # sorted: the rest are no better
                item = children[position]
                score = float(satisfied)
                if penalty is not None:
                    score -= penalty(item)
                if score > best_score:
                    best_score = score
                    best = BestValue(item, node.bounds[position], satisfied, score)
        else:
            for position in order:
                # re-check: descending a sibling may have raised the bound
                if counts[position] > best_score:
                    descend(children[position])

    descend(tree.root)
    return best


def brute_force_best_value(
    rects: Sequence[Rect],
    constraints: list[tuple[SpatialPredicate, Rect]],
    floor_score: float,
    penalty: Callable[[Any], float] | None = None,
) -> BestValue | None:
    """Reference implementation scanning every object; the test oracle for
    :func:`find_best_value` (identical contract, no index, no kernels —
    every condition goes through ``predicate.test``).
    """
    if not constraints:
        return None
    best: BestValue | None = None
    best_score = floor_score
    for item, rect in enumerate(rects):
        satisfied = sum(
            1 for predicate, window in constraints if predicate.test(rect, window)
        )
        score = float(satisfied)
        if penalty is not None:
            score -= penalty(item)
        if score > best_score:
            best_score = score
            best = BestValue(item, rect, satisfied, score)
    return best
