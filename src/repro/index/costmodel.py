"""Analytical R-tree cost model [TSS98].

The paper's hard-region generation leans on the selectivity analysis of
Theodoridis, Stefanakis & Sellis; the same work gives a closed-form
prediction for the cost of a window query against an R-tree, which this
module implements so that experiments can sanity-check their measured node
accesses against theory.

For a tree whose level ``l`` (1 = leaf nodes) contains ``n_l`` nodes with
average extents ``s_{l,x} × s_{l,y}``, a uniformly placed window of size
``q_x × q_y`` in a unit workspace touches on average::

    NA(q) = 1 + Σ_l  n_l · (s_{l,x} + q_x) · (s_{l,y} + q_y)

(the ``1`` is the root, which is always read).  The per-level statistics
are measured from the actual tree, so the model captures packing quality;
the uniformity assumption is what makes it analytical.  They are read off the
tree's packed arrays, so profiling a tree never builds its node graph.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..geometry import Rect
from .rstar import RStarTree

__all__ = ["LevelStats", "tree_level_stats", "predicted_node_accesses"]


@dataclass(frozen=True)
class LevelStats:
    """Aggregate geometry of one tree level (excluding the root)."""

    level: int
    node_count: int
    avg_extent_x: float
    avg_extent_y: float


def tree_level_stats(tree: RStarTree) -> list[LevelStats]:
    """Measured per-level node counts and average extents, root excluded.

    The root is excluded because it is read unconditionally; levels are
    reported bottom-up (leaves first), matching the summation in
    :func:`predicted_node_accesses`.
    """
    packed = tree.packed()
    # the entries of the internal nodes *are* the MBRs of all non-root nodes:
    # an entry of a level-l node bounds one node of level l − 1
    internal = packed.offsets[len(packed.first_child)]
    xmin, ymin, negated_xmax, negated_ymax = packed.keys[:, :internal]
    entry_levels = np.repeat(packed.node_levels, np.diff(packed.node_offsets))[:internal]
    stats = []
    for level in range(packed.levels[0]):
        below = entry_levels == level + 1
        stats.append(
            LevelStats(
                level=level,
                node_count=int(below.sum()),
                avg_extent_x=float((-negated_xmax[below] - xmin[below]).mean()),
                avg_extent_y=float((-negated_ymax[below] - ymin[below]).mean()),
            )
        )
    return stats


def predicted_node_accesses(
    tree: RStarTree, window_width: float, window_height: float, workspace: Rect | None = None
) -> float:
    """Expected node reads of a uniformly-placed window query [TSS98].

    ``workspace`` defaults to the tree's bounding rectangle.  Returns 1.0
    (just the root) for an empty or single-node tree.
    """
    if window_width < 0 or window_height < 0:
        raise ValueError(
            f"negative window extent: {window_width} x {window_height}"
        )
    bounds = workspace or tree.bounds()
    if bounds is None:
        return 1.0
    area = bounds.area()
    if area <= 0:
        raise ValueError(f"degenerate workspace: {bounds!r}")
    # normalise window and node extents to a unit workspace
    expected = 1.0
    for level in tree_level_stats(tree):
        overlap_probability = (
            (level.avg_extent_x + window_width)
            * (level.avg_extent_y + window_height)
            / area
        )
        expected += level.node_count * min(1.0, overlap_probability)
    return expected
