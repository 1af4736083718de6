"""Pairwise R-tree join [BKS93] — the building block of PJM.

Synchronised depth-first traversal of two R-trees reporting all pairs of
intersecting objects.  Two classic optimisations from Brinkhoff et al.:

* **search-space restriction**: children are matched only within the
  intersection of the two current node MBRs;
* **plane sweep**: entries of both nodes are sorted by ``xmin`` and swept,
  so each entry is compared only against entries it can overlap on the
  x-axis instead of all ``C²`` combinations.

Trees of different heights are handled by descending only the deeper tree
until levels align.

Node-level filters (which entries can intersect the partner node's MBR or
the common clipping region) are evaluated with one vectorized kernel call
over the node's packed bounds array.
"""

from __future__ import annotations

from typing import Any, Iterator

import numpy as np

from ..geometry import Rect
from ..geometry.kernels import split_columns, test_pairs, window_columns
from ..geometry.predicates import INTERSECTS
from ..index import RStarTree
from ..index.node import Node

__all__ = ["rtree_join"]


def rtree_join(tree_a: RStarTree, tree_b: RStarTree) -> Iterator[tuple[Any, Any]]:
    """Yield every ``(item_a, item_b)`` whose rectangles intersect."""
    root_a, root_b = tree_a.root, tree_b.root
    if root_a.mbr is None or root_b.mbr is None:
        return
    if not root_a.mbr.intersects(root_b.mbr):
        return
    yield from _join_nodes(root_a, root_b, tree_a, tree_b)


def _entries_intersecting(node: Node, window: Rect) -> list[tuple[Rect, Any]]:
    """The node's entries whose bounds intersect ``window``."""
    mask = test_pairs(
        INTERSECTS, split_columns(node.bounds_array()), window_columns(window)
    )
    bounds, children = node.bounds, node.children
    return [(bounds[position], children[position]) for position in np.flatnonzero(mask)]


def _join_nodes(
    node_a: Node, node_b: Node, tree_a: RStarTree, tree_b: RStarTree
) -> Iterator[tuple[Any, Any]]:
    tree_a.stats.node_reads += 1
    tree_b.stats.node_reads += 1
    if tree_a.pager is not None:
        tree_a.pager.access(id(node_a))
    if tree_b.pager is not None:
        tree_b.pager.access(id(node_b))
    if node_a.is_leaf and node_b.is_leaf:
        tree_a.stats.leaf_reads += 1
        tree_b.stats.leaf_reads += 1
        yield from _sweep_pairs(node_a, node_b)
        return
    if node_a.is_leaf or (not node_b.is_leaf and node_b.level > node_a.level):
        # descend only the deeper side until levels align
        assert node_a.mbr is not None
        for _rect_b, child_b in _entries_intersecting(node_b, node_a.mbr):
            yield from _join_nodes(node_a, child_b, tree_a, tree_b)
        return
    if node_b.is_leaf or node_a.level > node_b.level:
        assert node_b.mbr is not None
        for _rect_a, child_a in _entries_intersecting(node_a, node_b.mbr):
            yield from _join_nodes(child_a, node_b, tree_a, tree_b)
        return
    # same internal level: match children inside the nodes' common region
    assert node_a.mbr is not None and node_b.mbr is not None
    common = node_a.mbr.intersection(node_b.mbr)
    if common is None:
        return
    entries_a = _entries_intersecting(node_a, common)
    entries_b = _entries_intersecting(node_b, common)
    entries_a.sort(key=lambda entry: entry[0].xmin)
    entries_b.sort(key=lambda entry: entry[0].xmin)
    for _rect_a, child_a, _rect_b, child_b in _sweep(entries_a, entries_b):
        yield from _join_nodes(child_a, child_b, tree_a, tree_b)


def _sweep_pairs(leaf_a: Node, leaf_b: Node) -> Iterator[tuple[Any, Any]]:
    entries_a = sorted(leaf_a.entries(), key=lambda entry: entry[0].xmin)
    entries_b = sorted(leaf_b.entries(), key=lambda entry: entry[0].xmin)
    for _ra, item_a, _rb, item_b in _sweep(entries_a, entries_b):
        yield item_a, item_b


def _sweep(
    entries_a: list[tuple[Rect, Any]], entries_b: list[tuple[Rect, Any]]
) -> Iterator[tuple[Rect, Any, Rect, Any]]:
    """Forward plane sweep over two x-sorted entry lists.

    Both inputs must already be sorted by ``xmin`` — callers sort once per
    node visit.  The inner scans are index-based (no per-step list slices,
    which used to make the sweep quadratic in allocation volume).

    Yields all 4-tuples ``(rect_a, payload_a, rect_b, payload_b)`` with
    intersecting rectangles.
    """
    length_a = len(entries_a)
    length_b = len(entries_b)
    index_a = index_b = 0
    while index_a < length_a and index_b < length_b:
        rect_a, payload_a = entries_a[index_a]
        rect_b, payload_b = entries_b[index_b]
        if rect_a.xmin <= rect_b.xmin:
            # sweep rect_a against b-entries starting at index_b
            scan = index_b
            while scan < length_b:
                other_rect, other_payload = entries_b[scan]
                if other_rect.xmin > rect_a.xmax:
                    break
                if rect_a.ymin <= other_rect.ymax and other_rect.ymin <= rect_a.ymax:
                    yield rect_a, payload_a, other_rect, other_payload
                scan += 1
            index_a += 1
        else:
            scan = index_a
            while scan < length_a:
                other_rect, other_payload = entries_a[scan]
                if other_rect.xmin > rect_b.xmax:
                    break
                if rect_b.ymin <= other_rect.ymax and other_rect.ymin <= rect_b.ymax:
                    yield other_rect, other_payload, rect_b, payload_b
                scan += 1
            index_b += 1
