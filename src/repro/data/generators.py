"""Synthetic dataset generators.

The paper evaluates exclusively on synthetic uniform data (footnote 2: "to
the best of our knowledge, there do not exist 5 or more real datasets
covering the same area publicly available").  The central generator is
:func:`uniform_dataset`, which produces ``N`` rectangles whose density is
controlled exactly, so that the expected-solution formulas of
:mod:`repro.query.selectivity` apply.

Two extensions beyond the paper's setup are provided for the examples and
robustness tests: gaussian-clustered data (the skewed case every spatial
database paper worries about) and solution *planting* (used by the Figure 11
benchmark to guarantee that an exact solution exists).

Every generator fills :class:`~repro.geometry.RectColumns` directly: the
``random.Random`` stream is drawn in object order exactly as a one-``Rect``-
at-a-time loop would draw it (``tests/test_data.py`` keeps those loops as the
reference), and the arithmetic on the draws is the same IEEE operations in
the same order, run over arrays — so a seed names the same bits either way.
Anything transcendental (``gauss``, ``**``) stays a scalar call.
"""

from __future__ import annotations

import random
from typing import Sequence

import numpy as np

from ..geometry import Rect, RectColumns
from .datasets import UNIT_WORKSPACE, SpatialDataset
from .density import extent_for_density

__all__ = [
    "uniform_rects",
    "uniform_dataset",
    "gaussian_cluster_rects",
    "gaussian_cluster_dataset",
    "zipf_rects",
    "zipf_dataset",
    "plant_clique_solution",
]


def uniform_rects(
    count: int,
    density: float,
    rng: random.Random,
    workspace: Rect = UNIT_WORKSPACE,
    extent_jitter: float = 0.0,
) -> RectColumns:
    """``count`` square MBRs with uniform centers and exact average extent.

    The per-dimension extent is ``|r| = sqrt(density / count)`` (unit
    workspace; scaled for other workspaces).  With ``extent_jitter`` ``j``,
    individual extents are drawn uniformly from ``[(1-j)·|r|, (1+j)·|r|]``,
    keeping the mean at ``|r|``.

    Centers are drawn over the full workspace, so rectangles may overhang the
    border — this matches the uniform model behind the selectivity formulas,
    which ignores boundary effects.
    """
    if count <= 0:
        raise ValueError(f"count must be positive, got {count}")
    if not 0.0 <= extent_jitter < 1.0:
        raise ValueError(f"extent_jitter must be in [0, 1), got {extent_jitter}")
    scale = (workspace.width * workspace.height) ** 0.5
    base_extent = extent_for_density(count, density) * scale
    # per object: [extent factor,] center x, center y — rng.uniform's own draws
    per_object = 3 if extent_jitter else 2
    draws = _random_rows(rng, count, per_object)
    extent = base_extent
    if extent_jitter:
        low, high = 1.0 - extent_jitter, 1.0 + extent_jitter
        extent = base_extent * (low + (high - low) * draws[:, 0])
    cx = workspace.xmin + (workspace.xmax - workspace.xmin) * draws[:, -2]
    cy = workspace.ymin + (workspace.ymax - workspace.ymin) * draws[:, -1]
    return RectColumns.from_centers(cx, cy, extent, extent)


def _random_rows(rng: random.Random, rows: int, per_row: int) -> np.ndarray:
    """``rows × per_row`` values of ``rng.random()``, drawn row by row.

    ``rng.uniform(a, b)`` is ``a + (b - a) * rng.random()``, so callers apply
    that affine map to a column and get what per-object ``uniform`` calls in
    column order would have produced.
    """
    draw = rng.random
    return np.array([draw() for _ in range(rows * per_row)]).reshape(rows, per_row)


def uniform_dataset(
    count: int,
    density: float,
    rng: random.Random,
    name: str = "uniform",
    workspace: Rect = UNIT_WORKSPACE,
    extent_jitter: float = 0.0,
    max_entries: int | None = None,
) -> SpatialDataset:
    """A :class:`SpatialDataset` over :func:`uniform_rects` output."""
    rects = uniform_rects(count, density, rng, workspace, extent_jitter)
    return SpatialDataset(rects, name=name, workspace=workspace, max_entries=max_entries)


def gaussian_cluster_rects(
    count: int,
    density: float,
    rng: random.Random,
    clusters: int = 8,
    spread: float = 0.08,
    workspace: Rect = UNIT_WORKSPACE,
) -> RectColumns:
    """Skewed data: centers drawn from a mixture of gaussians.

    Cluster centroids are uniform over the workspace; each object picks a
    random centroid and offsets by ``N(0, spread²)`` per dimension (clamped
    to the workspace).  Extents are set exactly as in :func:`uniform_rects`,
    so the *density* knob keeps its meaning while spatial correlation rises.
    """
    if clusters <= 0:
        raise ValueError(f"clusters must be positive, got {clusters}")
    if spread <= 0:
        raise ValueError(f"spread must be positive, got {spread}")
    scale = (workspace.width * workspace.height) ** 0.5
    extent = extent_for_density(count, density) * scale
    centroids = [
        (
            rng.uniform(workspace.xmin, workspace.xmax),
            rng.uniform(workspace.ymin, workspace.ymax),
        )
        for _ in range(clusters)
    ]
    cx, cy = [], []
    for _ in range(count):
        centroid_x, centroid_y = centroids[rng.randrange(clusters)]
        cx.append(min(max(rng.gauss(centroid_x, spread), workspace.xmin), workspace.xmax))
        cy.append(min(max(rng.gauss(centroid_y, spread), workspace.ymin), workspace.ymax))
    return RectColumns.from_centers(np.array(cx), np.array(cy), extent, extent)


def gaussian_cluster_dataset(
    count: int,
    density: float,
    rng: random.Random,
    clusters: int = 8,
    spread: float = 0.08,
    name: str = "clustered",
    workspace: Rect = UNIT_WORKSPACE,
) -> SpatialDataset:
    """A :class:`SpatialDataset` over :func:`gaussian_cluster_rects` output."""
    rects = gaussian_cluster_rects(count, density, rng, clusters, spread, workspace)
    return SpatialDataset(rects, name=name, workspace=workspace)


def zipf_rects(
    count: int,
    density: float,
    rng: random.Random,
    skew: float = 1.5,
    workspace: Rect = UNIT_WORKSPACE,
) -> RectColumns:
    """Rectangles with Zipf-distributed *areas* and uniform centers.

    Real spatial data (parcels, buildings, administrative regions) mixes a
    few very large objects with many small ones.  Object ``k`` (1-based,
    random order) receives an area proportional to ``k^-skew``; areas are
    then rescaled so the dataset's total density equals ``density`` exactly,
    keeping the selectivity model's main knob meaningful on skewed data.
    """
    if count <= 0:
        raise ValueError(f"count must be positive, got {count}")
    if skew <= 0:
        raise ValueError(f"skew must be positive, got {skew}")
    weights = [1.0 / (rank**skew) for rank in range(1, count + 1)]
    rng.shuffle(weights)
    workspace_area = workspace.area()
    total_weight = sum(weights)
    areas = density * workspace_area * np.array(weights) / total_weight
    sides = np.array([area**0.5 for area in areas.tolist()])
    # per object: aspect ratio, center x, center y
    draws = _random_rows(rng, count, 3)
    # mild aspect-ratio jitter: keep the area, vary the shape
    aspects = 0.5 + (2.0 - 0.5) * draws[:, 0]
    roots = np.array([aspect**0.5 for aspect in aspects.tolist()])
    cx = workspace.xmin + (workspace.xmax - workspace.xmin) * draws[:, 1]
    cy = workspace.ymin + (workspace.ymax - workspace.ymin) * draws[:, 2]
    return RectColumns.from_centers(cx, cy, sides * roots, sides / roots)


def zipf_dataset(
    count: int,
    density: float,
    rng: random.Random,
    skew: float = 1.5,
    name: str = "zipf",
    workspace: Rect = UNIT_WORKSPACE,
) -> SpatialDataset:
    """A :class:`SpatialDataset` over :func:`zipf_rects` output."""
    rects = zipf_rects(count, density, rng, skew, workspace)
    return SpatialDataset(rects, name=name, workspace=workspace)


def plant_clique_solution(
    tables: Sequence[RectColumns],
    rng: random.Random,
    workspace: Rect = UNIT_WORKSPACE,
) -> tuple[int, ...]:
    """Overwrite one rectangle per table so they all share a common point.

    Used to construct Figure 11 instances where an exact solution is
    *guaranteed* to exist (the paper selects instances with exactly one exact
    solution).  Each of ``tables`` — generator output not yet handed to a
    :class:`SpatialDataset` — is mutated in place: a random
    object id per dataset is re-centred near a shared anchor point while
    keeping its original extent, which preserves dataset density almost
    exactly.  Returns the tuple of planted object ids — mutually overlapping
    by construction, hence an exact solution of any query over these
    datasets whose predicates are all ``intersects``.
    """
    if not tables:
        raise ValueError("need at least one dataset to plant a solution")
    anchor_x = rng.uniform(workspace.xmin, workspace.xmax)
    anchor_y = rng.uniform(workspace.ymin, workspace.ymax)
    planted = []
    for table in tables:
        object_id = rng.randrange(len(table))
        original = table[object_id]
        # keep the extent, shift the center so the rect covers the anchor
        jitter_x = rng.uniform(-original.width / 4, original.width / 4)
        jitter_y = rng.uniform(-original.height / 4, original.height / 4)
        moved = Rect.from_center(
            anchor_x + jitter_x, anchor_y + jitter_y, original.width, original.height
        )
        for column, value in zip(table.as_tuple(), moved):
            column[object_id] = value
        planted.append(object_id)
    return tuple(planted)
