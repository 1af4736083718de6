"""Spatial datasets: an object table plus its R*-tree index.

Mirrors the storage model of the paper's motivating applications: each object
type (roads, rivers, industrial areas, …) lives in its own relation with its
own spatial index covering the same workspace.  A join variable of a query
ranges over exactly one :class:`SpatialDataset`; object *ids* are the dense
integers ``0 … N-1`` so that solutions are plain integer tuples.
"""

from __future__ import annotations

import math
from typing import Iterator, Sequence

from ..geometry import Rect, RectColumns
from ..index import RStarTree, bulk_load_bounds
from .density import density_of_rects

__all__ = ["SpatialDataset", "UNIT_WORKSPACE"]

#: The paper's workspace: everything happens in the unit square.
UNIT_WORKSPACE = Rect(0.0, 0.0, 1.0, 1.0)


class SpatialDataset:
    """An immutable collection of MBRs with a bulk-loaded R*-tree over them.

    The object table is stored once, as :class:`RectColumns` (four float64
    arrays); ``dataset[i]``, iteration and :attr:`rects` read it as a
    sequence of :class:`Rect`, each materialised on demand and not retained.

    Parameters
    ----------
    rects:
        Object MBRs — a :class:`RectColumns` (stored as it is, e.g. the
        warm plane's shared-memory columns) or any sequence of rectangles;
        position in the sequence is the object id.  Rows must be finite with
        ``min <= max``.
    name:
        Human-readable label used in reports and examples.
    workspace:
        The area covered by the dataset (defaults to the unit square).
    max_entries:
        Node capacity of the index.
    tree:
        Pre-built index (must contain exactly ``(rects[i], i)`` entries); when
        omitted, an STR bulk-loaded R*-tree is built.
    """

    def __init__(
        self,
        rects: RectColumns | Sequence[Rect],
        name: str = "dataset",
        workspace: Rect = UNIT_WORKSPACE,
        max_entries: int | None = None,
        tree: RStarTree | None = None,
    ):
        columns = RectColumns.from_rects(rects)
        if len(columns) == 0:
            raise ValueError("a dataset must contain at least one object")
        #: the object table; the layout the vectorized kernels in
        #: :mod:`repro.geometry.kernels` consume (read-only: the index mirrors it)
        self.columns = columns.validate()
        for column in columns.as_tuple():
            column.flags.writeable = False
        self.name = name
        self.workspace = workspace
        if tree is not None:
            if len(tree) != len(columns):
                raise ValueError(
                    f"index size {len(tree)} != object count {len(columns)}"
                )
            self.tree = tree
        else:
            kwargs = {} if max_entries is None else {"max_entries": max_entries}
            self.tree = bulk_load_bounds(columns, **kwargs)

    # ------------------------------------------------------------------
    # container behaviour
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self.columns)

    def __getitem__(self, object_id: int) -> Rect:
        return self.columns.rect(object_id)

    def __iter__(self) -> Iterator[Rect]:
        return iter(self.columns)

    @property
    def rects(self) -> RectColumns:
        """The object table as a read-only sequence of :class:`Rect`."""
        return self.columns

    # ------------------------------------------------------------------
    # derived measures
    # ------------------------------------------------------------------
    def density(self) -> float:
        """Measured density of the dataset over its workspace."""
        return density_of_rects(self.columns, self.workspace)

    def average_extent(self) -> float:
        """Mean per-dimension extent ``|r|`` (mean of width and height)."""
        columns = self.columns
        widths, heights = columns.xmax - columns.xmin, columns.ymax - columns.ymin
        return math.fsum((widths + heights).tolist()) / (2 * len(columns))

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"SpatialDataset(name={self.name!r}, size={len(self)})"
