"""Density arithmetic from the cost model of [TSS98].

The *density* ``d`` of a dataset is the expected number of rectangles that
contain a given point of the workspace — equivalently, the total rectangle
area divided by the workspace area.  For ``N`` rectangles of average extent
``|r|`` per dimension in a unit workspace::

    d = N · |r|²

Density is the single knob the paper turns to control problem hardness: the
expected number of exact join solutions grows with ``d`` (larger MBRs overlap
more) and shrinks with the number of join conditions.
"""

from __future__ import annotations

import math
from typing import Iterable

from ..geometry import Rect, RectColumns

__all__ = [
    "extent_for_density",
    "density_for_extent",
    "density_of_rects",
]


def extent_for_density(count: int, density: float) -> float:
    """Average per-dimension extent ``|r|`` giving ``density`` for ``count`` rects.

    Inverts ``d = N·|r|²`` for a unit workspace.
    """
    if count <= 0:
        raise ValueError(f"count must be positive, got {count}")
    if density < 0:
        raise ValueError(f"density must be non-negative, got {density}")
    return math.sqrt(density / count)


def density_for_extent(count: int, extent: float) -> float:
    """Density of ``count`` rectangles of per-dimension extent ``extent``."""
    if count <= 0:
        raise ValueError(f"count must be positive, got {count}")
    if extent < 0:
        raise ValueError(f"extent must be non-negative, got {extent}")
    return count * extent * extent


def density_of_rects(rects: RectColumns | Iterable[Rect], workspace: Rect) -> float:
    """Measured density: total rectangle area over workspace area."""
    workspace_area = workspace.area()
    if workspace_area <= 0:
        raise ValueError(f"degenerate workspace: {workspace!r}")
    columns = RectColumns.from_rects(rects)
    areas = (columns.xmax - columns.xmin) * (columns.ymax - columns.ymin)
    return math.fsum(areas.tolist()) / workspace_area
