"""Sort-Tile-Recursive (STR) bulk loading.

The paper's experiments build an R*-tree over each 10⁵-object dataset before
running any join.  Constructing such trees by repeated insertion is O(N log N)
with a large constant; STR packing [Leutenegger et al., ICDE 1997] builds a
fully packed tree in two sorts and produces query performance comparable to a
dynamically built R*-tree on uniform data — exactly the workload used here.

The sorts run on coordinate arrays and the result is written straight into
the packed read-side form (:class:`~repro.index.packed.PackedTree`); no node
object is built.  The resulting tree is a regular
:class:`~repro.index.rstar.RStarTree`: further inserts and deletes keep
working on it (they inflate the node graph first).
"""

from __future__ import annotations

import math
from typing import Any, Sequence

import numpy as np

from ..geometry import Rect, RectColumns
from ..geometry.kernels import pack_bounds
from .packed import PackedTree, columns_keys
from .rstar import DEFAULT_MAX_ENTRIES, RStarTree

__all__ = ["bulk_load", "bulk_load_bounds", "pack_nodes", "pack_tree", "tree_from_packed"]


def bulk_load(
    entries: Sequence[tuple[Rect, Any]],
    max_entries: int = DEFAULT_MAX_ENTRIES,
    fill: float = 0.9,
    min_fill: float = 0.4,
) -> RStarTree:
    """Build a packed R*-tree from ``(rect, item)`` pairs; items are integers.

    A convenience over :func:`bulk_load_bounds`, which callers that already
    hold the rectangles as an array use directly.
    """
    return bulk_load_bounds(
        pack_bounds([rect for rect, _item in entries]),
        np.asarray([item for _rect, item in entries]),
        max_entries,
        fill,
        min_fill,
    )


def bulk_load_bounds(
    bounds: np.ndarray | RectColumns,
    items: np.ndarray | None = None,
    max_entries: int = DEFAULT_MAX_ENTRIES,
    fill: float = 0.9,
    min_fill: float = 0.4,
) -> RStarTree:
    """Build a packed R*-tree over ``n`` rectangles (rows or columns).

    Parameters
    ----------
    bounds:
        The rectangles, as an ``(n, 4)`` array or a :class:`RectColumns`
        table (read as it is: a dataset's columns are not re-laid out).
    items:
        Integer item of each row; the row numbers ``0 … n-1`` when omitted
        (a dataset's object ids).
    fill:
        Target node occupancy of the packed levels.  Values below 1.0 leave
        headroom so that subsequent dynamic inserts do not immediately split
        every node.
    """
    if not 0.0 < fill <= 1.0:
        raise ValueError(f"fill must be in (0, 1], got {fill}")
    tree = RStarTree(max_entries=max_entries, min_fill=min_fill)
    table = _table(bounds)
    count = len(table)
    if not count:
        return tree
    if items is None:
        items = np.arange(count, dtype=np.int64)
    if items.dtype.kind not in "iu":
        raise TypeError(
            f"cannot bulk-load {items.dtype} items: only integer object ids "
            f"fit the packed arrays"
        )
    capacity = max(tree.min_entries, min(max_entries, int(round(fill * max_entries))))
    children = items.astype(np.int64, copy=False)

    # bottom-up: each level is (entry table, entry children, node offsets)
    # in build order; a level's children index the build order of the level
    # below (item ids at the leaves)
    built = []
    while True:
        order, offsets = pack_nodes(table, capacity)
        table, children = RectColumns(*table.take(order)), children[order]
        built.append((table, children, offsets))
        if len(offsets) == 2:
            break
        starts = offsets[:-1]
        table = RectColumns(
            np.minimum.reduceat(table.xmin, starts),
            np.minimum.reduceat(table.ymin, starts),
            np.maximum.reduceat(table.xmax, starts),
            np.maximum.reduceat(table.ymax, starts),
        )
        children = np.arange(len(starts), dtype=np.int64)

    # top-down: renumber breadth-first.  A level's nodes appear in the order
    # the level above lists them, so in BFS order the e-th internal entry of
    # the whole tree points at node e + 1.
    level_columns, level_children, sizes, levels = [], [], [], []
    nodes = np.zeros(1, dtype=np.int64)  # build-order ids of this level, BFS order
    for level in range(len(built) - 1, -1, -1):
        table, children, offsets = built[level]
        node_sizes = np.diff(offsets)[nodes]
        first = np.cumsum(node_sizes) - node_sizes
        take = np.repeat(offsets[:-1][nodes] - first, node_sizes) + np.arange(
            node_sizes.sum()
        )
        level_columns.append(table.take(take))
        level_children.append(children[take])
        sizes.append(node_sizes)
        levels.append(np.full(len(nodes), level, dtype=np.int64))
        nodes = level_children[-1]
    internal = sum(len(part) for part in level_children[:-1])
    level_children[:-1] = [np.arange(1, internal + 1, dtype=np.int64)]
    packed = PackedTree(
        None,  # derived from the keys if a caller ever asks for the rows
        np.concatenate(level_children),
        np.concatenate([[0], np.cumsum(np.concatenate(sizes))]).astype(np.int64),
        np.concatenate(levels),
        keys=columns_keys(level_columns),
    )
    meta = (max_entries, tree.min_entries, tree.reinsert_count, count)
    return RStarTree.from_packed(packed, meta)


def pack_nodes(
    bounds: np.ndarray | RectColumns, capacity: int
) -> tuple[np.ndarray, np.ndarray]:
    """Tile entry bounds (``(n, 4)`` or columns) into nodes of ``capacity`` by
    the STR sweep.

    Entries are sorted by x-center, cut into vertical slabs of
    ``ceil(sqrt(P))`` runs (``P`` = number of nodes needed), and each slab is
    sorted by y-center before being chopped into nodes; both sorts are
    stable.  Returns ``(order, offsets)``: node ``k`` holds the entries
    ``order[offsets[k]:offsets[k + 1]]``.

    STR can leave a last node with a single entry; its predecessor then
    donates its trailing entries so both hold at least ``capacity // 2``
    (when possible) — which only moves the last boundary.
    """
    if capacity < 1:
        raise ValueError(f"capacity must be >= 1, got {capacity}")
    xmin, ymin, xmax, ymax = _table(bounds).as_tuple()
    count = len(xmin)
    node_count = math.ceil(count / capacity)
    per_slab = math.ceil(math.sqrt(node_count)) * capacity

    order = _stable_argsort((xmin + xmax) / 2.0)
    center_y = (ymin[order] + ymax[order]) / 2.0
    for start in range(0, count, per_slab):
        slab = slice(start, start + per_slab)
        order[slab] = order[slab][_stable_argsort(center_y[slab])]
    offsets = np.minimum(np.arange(node_count + 1, dtype=np.int64) * capacity, count)
    minimum = max(1, capacity // 2)
    if node_count >= 2 and offsets[-1] - offsets[-2] < minimum:
        offsets[-2] = offsets[-1] - minimum
    return order, offsets


def _table(bounds: np.ndarray | RectColumns) -> RectColumns:
    return bounds if isinstance(bounds, RectColumns) else RectColumns.from_bounds(bounds)


def _stable_argsort(keys: np.ndarray) -> np.ndarray:
    """What ``np.argsort(keys, kind="stable")`` returns for finite keys, by a
    quicksort: only a run of equal keys can come out in another order, and
    putting its indices back in ascending order restores the stable one."""
    order = np.argsort(keys)
    ranked = keys[order]
    same = ranked[1:] == ranked[:-1]
    if same.any():
        run = np.concatenate([[0], np.cumsum(~same)])  # run number of each rank
        tied = np.zeros(len(order), dtype=bool)
        tied[1:] = same
        tied[:-1] |= same
        order[tied] = order[tied][np.lexsort((order[tied], run[tied]))]
    return order


def pack_tree(tree: RStarTree) -> dict[str, Any]:
    """The tree's four packed arrays plus scalar metadata.

    See :mod:`repro.index.packed` for the layout.  The arrays are the tree's
    own read-side form, not a copy: the warm plane publishes them into
    shared memory and workers wrap the shared pages
    (:func:`tree_from_packed`).
    """
    packed = tree.packed()
    if packed.items is not None:
        raise TypeError(
            "cannot pack a tree with non-integer leaf items: only integer "
            "object ids survive serialisation"
        )
    return {
        "entry_bounds": packed.entry_bounds,
        "entry_children": packed.entry_children,
        "node_offsets": packed.node_offsets,
        "node_levels": packed.node_levels,
        "meta": (tree.max_entries, tree.min_entries, tree.reinsert_count, len(tree)),
    }


def tree_from_packed(
    entry_bounds: np.ndarray,
    entry_children: np.ndarray,
    node_offsets: np.ndarray,
    node_levels: np.ndarray,
    meta: Sequence[int],
) -> RStarTree:
    """Wrap :func:`pack_tree`'d arrays as a tree, sharing their storage.

    Nothing is copied or inflated: when the arrays live in shared memory the
    searches read the shared pages directly — attaching a dataset never
    copies the index.
    """
    packed = PackedTree(entry_bounds, entry_children, node_offsets, node_levels)
    return RStarTree.from_packed(packed, meta)
