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

Since it is *the* hot loop of the whole library, it never touches a node
object: it descends the tree's packed read-side arrays
(:class:`~repro.index.packed.PackedTree`), scoring a node's entries — a
slice of one flat array — in one vectorized call, and the small upper levels
all at once.  :func:`brute_force_best_value` — a scalar scan through
``predicate.test`` that shares no code with the search — is the oracle the
property suite checks it against.
"""

from __future__ import annotations

from typing import Any, Callable, Sequence

from ..geometry import Rect, SpatialPredicate
from ..index import RStarTree
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

    Branch-and-bound over the packed arrays: one kernel call scores a whole
    node (an entry range).  Entries are visited in decreasing count order,
    ties in entry order, and a subtree is entered only while its count
    strictly beats the best leaf score so far — re-checked when its turn
    comes, because a sibling may have raised the bound meanwhile.  Scoring
    does not depend on the bound, so the BFS prefix of small upper levels is
    scored in a single call up front and the descent replays from those
    counts; ``node_reads`` / ``leaf_reads`` and buffer-pool accesses are
    charged per node *visited*, exactly as a node-at-a-time walk would.

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
    stats = tree.stats
    stats.best_value_searches += 1
    packed = tree.packed()
    offsets = packed.offsets
    if not offsets[1]:
        return None
    leaf_score, inner_score = packed.scorers(constraints)
    levels = packed.levels
    first_child = packed.first_child
    prefix_nodes = packed.prefix_nodes
    prefix_counts: list[int] = []
    if prefix_nodes:
        prefix_counts = packed.prefix_counts(leaf_score, inner_score).tolist()
    pager = tree.pager
    if pager is not None:
        obs = current()
        buffer_hits = obs.counter("index.buffer.hit")
        buffer_misses = obs.counter("index.buffer.miss")
        page_base = id(packed)

    best_entry = -1
    best_satisfied = 0
    best_score = floor_score
    node_reads = leaf_reads = 0
    # depth-first with an explicit stack of (count, −node): a node's entries
    # are pushed in increasing count order, equal counts last-entry-first, so
    # they pop highest count first and equal counts in entry order — the
    # first-found winner is deterministic
    stack: list[tuple[float, int]] = [(float("inf"), 0)]
    while stack:
        bound, node = stack.pop()
        if bound <= best_score:
            continue  # a sibling raised the bound since this one was pushed
        node = -node
        node_reads += 1
        if pager is not None:
            if pager.access((page_base, node)):
                buffer_hits.inc()
            else:
                buffer_misses.inc()
        start, stop = offsets[node], offsets[node + 1]
        internal = levels[node] > 0
        if node < prefix_nodes:
            counts = prefix_counts[start:stop]
        else:
            counts = (inner_score if internal else leaf_score)(start, stop).tolist()
        if internal:
            child = -first_child[node]
            stack.extend(
                sorted(
                    [
                        (count, child - position)
                        for position, count in enumerate(counts)
                        if count > best_score
                    ]
                )
            )
            continue
        leaf_reads += 1
        if penalty is None:
            # the first entry with the highest count is the only possible winner
            satisfied = max(counts)
            if satisfied > best_score:
                best_score = float(satisfied)
                best_satisfied = satisfied
                best_entry = start + counts.index(satisfied)
            continue
        for negated, position in sorted(
            [(-count, position) for position, count in enumerate(counts) if count > best_score]
        ):
            if -negated <= best_score:
                break  # sorted: the rest are no better
            score = -negated - penalty(packed.entry_item(start + position))
            if score > best_score:
                best_score = score
                best_satisfied = -negated
                best_entry = start + position
    stats.node_reads += node_reads
    stats.leaf_reads += leaf_reads
    if best_entry < 0:
        return None
    rect, item = packed.entry(best_entry)
    return BestValue(item, rect, int(best_satisfied), best_score)


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
