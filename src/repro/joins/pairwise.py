"""Pairwise R-tree join [BKS93] — the building block of PJM.

Synchronised depth-first traversal of two R-trees reporting all pairs of
intersecting objects: the two-tree case of the synchronous traversal in
:mod:`repro.joins.st`, which matches the entries of a node pair with one
boolean pair matrix over the two nodes' slices of the packed arrays.  A pair
of entries can intersect only inside the intersection of the two node MBRs,
so the matrix already is Brinkhoff et al.'s search-space restriction; their
plane sweep orders the same comparisons for one-pair-at-a-time evaluation
and has no counterpart here.

Trees of different heights are handled as ST does: the shallower tree's leaf
is held fixed while the deeper tree keeps descending.
"""

from __future__ import annotations

from typing import Any, Iterator

from ..index import RStarTree
from .st import traverse_trees

__all__ = ["rtree_join"]


def rtree_join(tree_a: RStarTree, tree_b: RStarTree) -> Iterator[tuple[Any, Any]]:
    """Yield every ``(item_a, item_b)`` whose rectangles intersect."""
    bounds_a, bounds_b = tree_a.packed().bounds(), tree_b.packed().bounds()
    if bounds_a is not None and bounds_b is not None and bounds_a.intersects(bounds_b):
        yield from traverse_trees((tree_a, tree_b), ([], [0]))
