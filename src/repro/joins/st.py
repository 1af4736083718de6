"""Synchronous Traversal (ST) — exact multiway join over R-tree nodes [PMT99].

ST descends all ``n`` R*-trees simultaneously: starting from the roots, it
finds combinations of entries (one per tree) whose MBRs pairwise satisfy the
query's filter conditions, and recurses on each qualifying combination until
the leaf level, where actual objects are reported.  The expensive part — up
to ``Cⁿ`` combinations per node-tuple — is tamed by forward pruning: a
partial combination is extended only while every edge into the chosen prefix
remains satisfiable.

The walk reads the trees' packed arrays: a node is an index, its entries a
slice of the comparison keys, and the partial combinations of a node-tuple
are extended one variable at a time by a boolean *pair matrix* — every entry
of the next node against every partial combination, one broadcast comparison
per query edge into the prefix.  Row-major ``nonzero`` of that matrix is the
order of a backtracking search, so tuples and node reads come in the sequence
of a one-``Rect``-at-a-time walk (the reference in ``tests/test_joins.py``).

Restricted to all-``intersects`` queries (the paper's standard condition):
MBR intersection is then a sound and effective node-level filter.  Trees of
different heights are handled by holding leaf-level nodes fixed while deeper
trees keep descending.
"""

from __future__ import annotations

from typing import Any, Iterator, Sequence

import numpy as np

from ..core.evaluator import QueryEvaluator
from ..index import RStarTree
from ..obs import current
from ..query import ProblemInstance

__all__ = ["synchronous_traversal_join", "traverse_trees"]

#: an extension step compares at most this many (partial combination, entry)
#: pairs in one broadcast; beyond it the partial combinations go in row chunks
PAIR_BLOCK = 1 << 14


def synchronous_traversal_join(
    instance: ProblemInstance, evaluator: QueryEvaluator | None = None
) -> Iterator[tuple[int, ...]]:
    """Yield every exact solution of an all-``intersects`` join."""
    if not instance.query.all_intersects():
        raise ValueError(
            "synchronous traversal requires all-intersects queries; "
            "use window_reduction_join for other predicates"
        )
    evaluator = evaluator or QueryEvaluator(instance)
    # combinations are extended in index order, so only the edges into the
    # lower-numbered variables need checking when variable ``i`` is chosen
    edge_lists = [
        [j for j, _predicate in evaluator.neighbors[i] if j < i]
        for i in range(evaluator.num_variables)
    ]
    return traverse_trees(evaluator.trees, edge_lists)


def traverse_trees(
    trees: Sequence[RStarTree], edge_lists: Sequence[Sequence[int]]
) -> Iterator[tuple[Any, ...]]:
    """Yield the item tuples (one per tree) whose rectangles intersect along
    every edge; ``edge_lists[i]`` names the trees before ``i`` that tree ``i``
    joins with.  Each visit of a node-tuple is one node read per tree."""
    packs = [tree.packed() for tree in trees]
    if not all(pack.offsets[1] for pack in packs):
        return
    if any(tree.pager is not None for tree in trees):
        obs = current()
        # indexed by what ``BufferPool.access`` returns: True on a hit
        buffer_counters = (obs.counter("index.buffer.miss"), obs.counter("index.buffer.hit"))
    tree_windows = [_window_form(pack.keys) for pack in packs]

    def descend(nodes: tuple[int, ...]) -> Iterator[tuple[Any, ...]]:
        at_leaves = True
        for tree, pack, node in zip(trees, packs, nodes):
            tree.stats.node_reads += 1
            if tree.pager is not None:
                buffer_counters[tree.pager.access((id(pack), node))].inc()
            if pack.levels[node]:
                at_leaves = False
            else:
                tree.stats.leaf_reads += 1
        ranges = [(pack.offsets[node], pack.offsets[node + 1]) for pack, node in zip(packs, nodes)]
        spans, windows = [], []
        for pack, node, (start, stop), whole in zip(packs, nodes, ranges, tree_windows):
            span, window = pack.keys[:, start:stop], whole[:, start:stop]
            if not (at_leaves or pack.levels[node]):
                # this tree bottomed out early: its leaf stays fixed and
                # offers its MBR as the single entry
                span = span.min(axis=1, keepdims=True)
                window = _window_form(span)
            spans.append(span)
            windows.append(window)
        for columns in _qualifying_combinations(spans, windows, edge_lists):
            if at_leaves:
                yield from zip(
                    *[
                        pack.entry_items(start + column)
                        for pack, (start, _stop), column in zip(packs, ranges, columns)
                    ]
                )
                continue
            below = [
                (pack.first_child[node] + column).tolist()
                if pack.levels[node]
                else [node] * len(column)
                for pack, node, column in zip(packs, nodes, columns)
            ]
            for next_nodes in zip(*below):
                yield from descend(next_nodes)

    yield from descend((0,) * len(packs))


def _window_form(keys: np.ndarray) -> np.ndarray:
    """Keys ``[xmin, ymin, −xmax, −ymax]`` → ``[xmax, ymax, −xmin, −ymin]``:
    ``a`` intersects ``b`` iff ``keys(a) <= window_form(keys(b))`` on all rows."""
    return -keys[[2, 3, 0, 1]]


def _qualifying_combinations(
    spans: Sequence[np.ndarray],
    windows: Sequence[np.ndarray],
    edge_lists: Sequence[Sequence[int]],
) -> Iterator[list[np.ndarray]]:
    """One entry per span such that all checked edges hold, as index columns.

    ``spans[i]`` is the ``(4, fan-out)`` key slice of node ``i``,
    ``windows[i]`` its window form.  Yields lists of equally long index
    arrays — ``columns[i][r]`` is the entry of span ``i`` in combination
    ``r`` — whose rows, over all yields, are the qualifying combinations in
    lexicographic order.  At internal levels the test is MBR intersection
    (sound filter), at the leaf level the object intersection (exact).
    """
    all_four = np.logical_and.reduce

    def extend(columns: list[np.ndarray], position: int) -> Iterator[list[np.ndarray]]:
        if position == len(spans):
            yield columns
            return
        keys = spans[position][:, None, :]
        fan_out = keys.shape[2]
        step = max(1, PAIR_BLOCK // fan_out)
        for begin in range(0, len(columns[0]), step):
            # row ranges keep the lexicographic order across chunks
            block = [column[begin : begin + step] for column in columns]
            mask = None
            for j in edge_lists[position]:
                # (block × fan-out): the entry intersects the one chosen in span j
                hit = all_four(keys <= windows[j].take(block[j], axis=1)[:, :, None])
                mask = hit if mask is None else mask & hit
            if mask is None:
                mask = np.ones((len(block[0]), fan_out), dtype=bool)
            rows, entries = mask.nonzero()
            if len(rows):
                yield from extend([column[rows] for column in block] + [entries], position + 1)

    return extend([np.arange(spans[0].shape[1])], 1)
