"""Read-only R-tree queries: window, predicate and multi-window search, k-NN.

The algorithms of the paper issue two kinds of index reads:

* plain window queries — one at a time (``search`` / ``search_items`` /
  ``search_predicate``), or all windows of a candidate list in one descent
  (``search_windows``: Window Reduction, IBB's candidate enumeration and
  PJM's extension step);
* the specialised multi-window branch-and-bound ``find_best_value``
  (implemented in :mod:`repro.core.best_value` because it is part of the
  paper's contribution, not of the generic index substrate).

Window and predicate queries descend the tree's packed read-side arrays
(:class:`~repro.index.packed.PackedTree`) — one kernel call tests all entries
of a node against all windows; k-NN still walks the node graph.  All traversals update
:class:`~repro.index.stats.TreeStats` on the tree so benchmarks can report
node accesses.
"""

from __future__ import annotations

import heapq
from bisect import bisect_left
from typing import Any, Iterator, Sequence

import numpy as np

from ..geometry import INTERSECTS, Rect, SpatialPredicate
from ..obs import current
from .packed import PackedTree
from .rstar import RStarTree

__all__ = [
    "search",
    "search_items",
    "count",
    "search_predicate",
    "search_windows",
    "nearest_neighbors",
]


def search(tree: RStarTree, window: Rect) -> Iterator[tuple[Rect, Any]]:
    """Yield every ``(rect, item)`` whose rectangle intersects ``window``."""
    return search_predicate(tree, INTERSECTS, window)


def search_items(tree: RStarTree, window: Rect) -> Iterator[Any]:
    """Like :func:`search` but yields only the stored items."""
    for _rect, item in search(tree, window):
        yield item


def count(tree: RStarTree, window: Rect) -> int:
    """Number of entries intersecting ``window``."""
    return sum(1 for _ in search(tree, window))


def search_predicate(
    tree: RStarTree, predicate: SpatialPredicate, window: Rect
) -> Iterator[tuple[Rect, Any]]:
    """Yield entries satisfying ``predicate(entry_rect, window)``.

    Subtrees are pruned with :meth:`SpatialPredicate.node_may_satisfy`,
    which is exact for ``intersects`` and admissible (never losing results)
    for the extended predicates.
    """
    packed = tree.packed()
    for positions in _leaf_hits(tree, packed, [(predicate, window)]):
        for position in positions:
            yield packed.entry(position)


def search_windows(
    tree: RStarTree, constraints: Sequence[tuple[SpatialPredicate, Rect]]
) -> tuple[list[Any], list[int]]:
    """One descent for several windows: which items they hit, and how often.

    Returns parallel lists ``(items, satisfied)`` — every item satisfying at
    least one ``predicate(item_rect, window)`` constraint, once, with the
    number of constraints it satisfies; items appear in the order the
    windows' :func:`search_predicate` sequences first produce them.  The
    index work charged is that of one :func:`search_predicate` per
    constraint, page access by page access; what the windows share is the
    kernel calls (see :func:`_leaf_hits`).
    """
    packed = tree.packed()
    #: leaf entry position → number of windows that hit it
    satisfied: dict[int, int] = {}
    for positions in _leaf_hits(tree, packed, constraints):
        for position in positions:
            satisfied[position] = satisfied.get(position, 0) + 1
    if not satisfied:
        return [], []
    return packed.entry_items(list(satisfied)), list(satisfied.values())


def _leaf_hits(
    tree: RStarTree, packed: PackedTree, constraints: Sequence[tuple[SpatialPredicate, Rect]]
) -> Iterator[list[int]]:
    """The window queries of ``constraints``, one after the other: yields,
    per leaf a window reaches, the positions of the entries it hits.

    A (window × entry) hit matrix is computed once per node — for the BFS
    prefix one matrix in a single kernel call — and each window replays its
    own depth-first descent from its row; a node costs one read and one page
    access per window that reaches it.
    """
    stats = tree.stats
    pager = tree.pager
    stats.window_queries += len(constraints)
    offsets = packed.offsets
    if not constraints or not offsets[1]:
        return
    if pager is not None:
        obs = current()
        # indexed by what ``BufferPool.access`` returns: True on a hit
        buffer_counters = (obs.counter("index.buffer.miss"), obs.counter("index.buffer.hit"))
        page_base = id(packed)
    leaf_hits, inner_hits = packed.window_hits(constraints)
    levels = packed.levels
    first_child = packed.first_child
    prefix_nodes = packed.prefix_nodes
    prefix_matrix = packed.prefix_counts(leaf_hits, inner_hits)
    #: hit matrices of the nodes beyond the prefix, by node
    deeper: dict[int, np.ndarray] = {}
    for window in range(len(constraints)):
        prefix_hits = prefix_matrix[window].nonzero()[0].tolist()
        stack = [0]
        while stack:
            node = stack.pop()
            stats.node_reads += 1
            if pager is not None:
                buffer_counters[pager.access((page_base, node))].inc()
            start, stop = offsets[node], offsets[node + 1]
            internal = levels[node] > 0
            if node < prefix_nodes:
                hits = prefix_hits[bisect_left(prefix_hits, start):bisect_left(prefix_hits, stop)]
            else:
                matrix = deeper.get(node)
                if matrix is None:
                    matrix = deeper[node] = (inner_hits if internal else leaf_hits)(start, stop)
                hits = (matrix[window].nonzero()[0] + start).tolist()
            if internal:
                child = first_child[node] - start
                stack.extend([child + position for position in hits])
            else:
                stats.leaf_reads += 1
                yield hits


def nearest_neighbors(
    tree: RStarTree, x: float, y: float, k: int = 1
) -> list[tuple[float, Rect, Any]]:
    """The ``k`` entries closest to point ``(x, y)``.

    Classic best-first search on min-distance [Hjaltason & Samet].  Returns
    ``(distance, rect, item)`` triples in increasing distance order; fewer
    than ``k`` when the tree is smaller.  Included because nearest-neighbour
    search is the standard competitor technique discussed in the paper's
    related work ([PF97]) and it exercises the same node machinery.
    """
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    stats = tree.stats
    stats.knn_queries += 1
    if tree.root.mbr is None:
        return []
    point = Rect(x, y, x, y)
    results: list[tuple[float, Rect, Any]] = []
    pager = tree.pager
    if pager is not None:
        obs = current()
        buffer_hits = obs.counter("index.buffer.hit")
        buffer_misses = obs.counter("index.buffer.miss")
    counter = 0  # heap tie-breaker; Rects are comparable but nodes are not
    heap: list[tuple[float, int, Any, Rect | None]] = [
        (tree.root.mbr.min_distance(point), counter, tree.root, None)
    ]
    while heap and len(results) < k:
        distance, _tie, payload, rect = heapq.heappop(heap)
        if rect is not None:
            results.append((distance, rect, payload))
            continue
        node = payload
        stats.node_reads += 1
        if pager is not None:
            if pager.access(id(node)):
                buffer_hits.inc()
            else:
                buffer_misses.inc()
        if node.is_leaf:
            stats.leaf_reads += 1
        for bound, child in node.entries():
            counter += 1
            entry_distance = bound.min_distance(point)
            if node.is_leaf:
                heapq.heappush(heap, (entry_distance, counter, child, bound))
            else:
                heapq.heappush(heap, (entry_distance, counter, child, None))
    return results
