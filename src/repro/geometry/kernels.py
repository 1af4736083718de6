"""Columnar NumPy geometry kernels.

Every heuristic in the paper bottoms out in two scalar hot loops — violation
counting and the per-entry scoring of ``find_best_value`` — executed millions
of times per run.  This module provides the data-parallel substrate that
replaces those loops: rectangle collections are stored as four contiguous
``float64`` arrays (``xmin``/``ymin``/``xmax``/``ymax``, the classic columnar
layout of in-memory spatial join systems) and every spatial predicate gains a
*batched* form that tests one window against a whole column set with a
handful of NumPy comparisons.

Three kernel families are exposed, mirroring the scalar API:

* :func:`test_pairs` — the batched :meth:`SpatialPredicate.test`: one boolean
  per row (broadcasting, so the second operand may be a single window or a
  ``(n, 1)``-shaped column set for a full cross matrix);
* :func:`filter_pairs` — the batched admissible subtree filter
  :meth:`SpatialPredicate.node_may_satisfy`;
* :func:`count_satisfied` / :func:`count_may_satisfy` — per-row counts over a
  list of ``(predicate, window)`` constraints, the quantity both
  ``find_best_value`` and the evaluator maximise.

Unknown predicate types (user subclasses of :class:`SpatialPredicate`) fall
back to the scalar path row by row, so correctness never depends on a type
being listed here.  All kernels use *exactly* the same closed-interval float
comparisons as :mod:`repro.geometry.rect`, so scalar and vectorized paths
agree bit-for-bit — the property suite in ``tests/test_kernels.py`` enforces
this, including touching-edge and degenerate (zero-area) rectangles.
"""

from __future__ import annotations

from itertools import chain
from typing import Any, Callable, Iterable, Iterator, Sequence

import numpy as np

from .predicates import (
    Contains,
    Inside,
    Intersects,
    Northeast,
    Southwest,
    SpatialPredicate,
    WithinDistance,
)
from ..obs import current
from .rect import Rect

__all__ = [
    "Columns",
    "RectColumns",
    "pack_bounds",
    "split_columns",
    "window_columns",
    "test_pairs",
    "filter_pairs",
    "pair_matrix",
    "count_satisfied",
    "count_may_satisfy",
    "make_count_scorer",
]

#: Four broadcast-compatible coordinate arrays ``(xmin, ymin, xmax, ymax)``.
#: Scalars are legal members (a single window is just a degenerate column).
Columns = tuple[Any, Any, Any, Any]


def pack_bounds(rects: Sequence[Rect | tuple]) -> np.ndarray:
    """Pack rectangles into a C-contiguous ``(n, 4)`` float64 array.

    Row layout matches :class:`Rect`: ``xmin, ymin, xmax, ymax``.
    """
    # one flat pass over the coordinates: several times faster than letting
    # NumPy discover the shape of a list of tuples
    flat = np.fromiter(chain.from_iterable(rects), np.float64, 4 * len(rects))
    return flat.reshape(len(rects), 4)


def split_columns(bounds: np.ndarray) -> Columns:
    """Column views of a packed ``(n, 4)`` bounds array."""
    return bounds[:, 0], bounds[:, 1], bounds[:, 2], bounds[:, 3]


def window_columns(window: Rect) -> Columns:
    """A single window as scalar 'columns' (broadcasts against any row set)."""
    return (window.xmin, window.ymin, window.xmax, window.ymax)


#: rows converted per step of a :class:`RectColumns` iteration (bounds the
#: transient lists)
_ITER_ROWS = 4096


class RectColumns:
    """A rectangle table in columnar layout — *the* stored form of a dataset.

    Four contiguous float64 arrays (32 bytes per object), the layout every
    kernel in this module consumes without copying.  The generators fill
    them, :class:`~repro.data.datasets.SpatialDataset` stores them, the STR
    loader reads them.  To the scalar side of the library (predicates on
    single rectangles, the oracles, persistence) the same object is a
    sequence of :class:`Rect`: ``len``, integer index, iteration, ``==``
    against any rectangle sequence and ``np.array(columns)`` → ``(n, 4)``.
    A row is materialised when asked for and not retained — about 0.4 µs
    against 0.03 µs for a list index, which is why the search loops carry
    the rectangles they re-read instead of fetching rows.
    """

    __slots__ = ("xmin", "ymin", "xmax", "ymax")

    def __init__(
        self, xmin: np.ndarray, ymin: np.ndarray, xmax: np.ndarray, ymax: np.ndarray
    ) -> None:
        columns = [np.ascontiguousarray(c, dtype=np.float64) for c in (xmin, ymin, xmax, ymax)]
        lengths = {len(c) for c in columns}
        if len(lengths) != 1:
            raise ValueError(f"column length mismatch: {sorted(lengths)}")
        self.xmin, self.ymin, self.xmax, self.ymax = columns

    @classmethod
    def from_rects(cls, rects: Iterable[Rect]) -> "RectColumns":
        if isinstance(rects, cls):
            return rects
        return cls.from_bounds(pack_bounds(list(rects)))

    @classmethod
    def from_bounds(cls, bounds: np.ndarray) -> "RectColumns":
        """Columns of an ``(n, 4)`` array (copied: the columns are contiguous)."""
        bounds = np.asarray(bounds, dtype=np.float64)
        if bounds.ndim != 2 or bounds.shape[1] != 4:
            raise ValueError(f"expected an (n, 4) bounds array, got shape {bounds.shape}")
        return cls(*split_columns(bounds))

    @classmethod
    def from_centers(cls, cx: Any, cy: Any, width: Any, height: Any) -> "RectColumns":
        """The batched :meth:`Rect.from_center`: the same operations per row."""
        half_w = width / 2.0
        half_h = height / 2.0
        return cls(cx - half_w, cy - half_h, cx + half_w, cy + half_h)

    def validate(self) -> "RectColumns":
        """Return ``self`` if every row is finite with ``min <= max``.

        The batched :meth:`Rect.validate`; the error names the first bad row.
        """
        bad = ~(
            np.isfinite(self.xmin) & np.isfinite(self.ymin)
            & np.isfinite(self.xmax) & np.isfinite(self.ymax)
            & (self.xmin <= self.xmax) & (self.ymin <= self.ymax)
        )
        if bad.any():
            row = int(bad.argmax())
            raise ValueError(f"row {row}: malformed or non-finite rectangle {self.rect(row)!r}")
        return self

    # ------------------------------------------------------------------
    # the table as a sequence of Rect
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self.xmin)

    def rect(self, index: int) -> Rect:
        """Materialise one row as a scalar :class:`Rect`."""
        return Rect._make(
            (
                self.xmin.item(index),
                self.ymin.item(index),
                self.xmax.item(index),
                self.ymax.item(index),
            )
        )

    __getitem__ = rect

    def __iter__(self) -> Iterator[Rect]:
        for start in range(0, len(self), _ITER_ROWS):
            rows = slice(start, start + _ITER_ROWS)
            yield from map(Rect._make, zip(*(c[rows].tolist() for c in self.as_tuple())))

    def __array__(self, dtype: Any = None, copy: bool | None = None) -> np.ndarray:
        """The table as a fresh ``(n, 4)`` array, rows laid out like :class:`Rect`."""
        return np.stack(self.as_tuple(), axis=1).astype(dtype or np.float64, copy=False)

    def __eq__(self, other: object) -> bool:
        try:
            other = RectColumns.from_rects(other)  # type: ignore[arg-type]
        except (TypeError, ValueError):
            return NotImplemented
        return len(self) == len(other) and all(
            np.array_equal(mine, theirs)
            for mine, theirs in zip(self.as_tuple(), other.as_tuple())
        )

    __hash__ = None  # type: ignore[assignment]

    # ------------------------------------------------------------------
    # the table as columns
    # ------------------------------------------------------------------
    def as_tuple(self) -> Columns:
        return (self.xmin, self.ymin, self.xmax, self.ymax)

    def take(self, indices: Any) -> Columns:
        """Gather rows by index (fancy indexing; ``indices`` may be an array)."""
        return (
            self.xmin[indices],
            self.ymin[indices],
            self.xmax[indices],
            self.ymax[indices],
        )

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"RectColumns(n={len(self)})"


# ----------------------------------------------------------------------
# predicate kernels
# ----------------------------------------------------------------------
def _intersects(a: Columns, b: Columns) -> np.ndarray:
    axmin, aymin, axmax, aymax = a
    bxmin, bymin, bxmax, bymax = b
    return (axmin <= bxmax) & (bxmin <= axmax) & (aymin <= bymax) & (bymin <= aymax)


def _inside(a: Columns, b: Columns) -> np.ndarray:
    axmin, aymin, axmax, aymax = a
    bxmin, bymin, bxmax, bymax = b
    return (bxmin <= axmin) & (bymin <= aymin) & (axmax <= bxmax) & (aymax <= bymax)


def _contains(a: Columns, b: Columns) -> np.ndarray:
    return _inside(b, a)


def _northeast(a: Columns, b: Columns) -> np.ndarray:
    axmin, aymin, _axmax, _aymax = a
    _bxmin, _bymin, bxmax, bymax = b
    return (axmin >= bxmax) & (aymin >= bymax)


def _southwest(a: Columns, b: Columns) -> np.ndarray:
    _axmin, _aymin, axmax, aymax = a
    bxmin, bymin, _bxmax, _bymax = b
    return (axmax <= bxmin) & (aymax <= bymin)


def _within_distance(a: Columns, b: Columns, distance: float) -> np.ndarray:
    axmin, aymin, axmax, aymax = a
    bxmin, bymin, bxmax, bymax = b
    dx = np.maximum(np.maximum(bxmin - axmax, axmin - bxmax), 0.0)
    dy = np.maximum(np.maximum(bymin - aymax, aymin - bymax), 0.0)
    return np.hypot(dx, dy) <= distance


def test_pairs(
    predicate: SpatialPredicate, a: Columns, b: Columns
) -> np.ndarray | None:
    """Batched :meth:`SpatialPredicate.test` — ``predicate.test(a_row, b_row)``.

    Operands broadcast like NumPy arrays, so ``b`` may be a single window
    (scalars), an equal-length row set (elementwise) or a reshaped column set
    (cross product).  Returns ``None`` for predicate types without a kernel;
    callers then fall back to the scalar path.
    """
    kind = type(predicate)
    if kind is Intersects:
        return _intersects(a, b)
    if kind is Inside:
        return _inside(a, b)
    if kind is Contains:
        return _contains(a, b)
    if kind is Northeast:
        return _northeast(a, b)
    if kind is Southwest:
        return _southwest(a, b)
    if kind is WithinDistance:
        return _within_distance(a, b, predicate.distance)
    return None


def filter_pairs(
    predicate: SpatialPredicate, a: Columns, b: Columns
) -> np.ndarray | None:
    """Batched :meth:`SpatialPredicate.node_may_satisfy` over node MBR rows.

    ``a`` holds node MBRs, ``b`` the window(s).  Must never be ``False`` for
    a node containing a qualifying rectangle (the same admissibility contract
    as the scalar method).  Returns ``None`` for unknown predicate types.
    """
    kind = type(predicate)
    if kind is Intersects or kind is Inside:
        return _intersects(a, b)
    if kind is Contains:
        return _contains(a, b)
    if kind is Northeast:
        _axmin, _aymin, axmax, aymax = a
        _bxmin, _bymin, bxmax, bymax = b
        return (axmax >= bxmax) & (aymax >= bymax)
    if kind is Southwest:
        axmin, aymin, _axmax, _aymax = a
        bxmin, bymin, _bxmax, _bymax = b
        return (axmin <= bxmin) & (aymin <= bymin)
    if kind is WithinDistance:
        return _within_distance(a, b, predicate.distance)
    return None


def pair_matrix(
    predicate: SpatialPredicate, a: RectColumns | Columns, b: RectColumns | Columns
) -> np.ndarray:
    """Full ``(len(a), len(b))`` boolean predicate matrix (broadcast join).

    Row ``i``, column ``j`` answers ``predicate.test(a[i], b[j])``.
    """
    a = a.as_tuple() if isinstance(a, RectColumns) else a
    b = b.as_tuple() if isinstance(b, RectColumns) else b
    a_rows = tuple(np.asarray(c).reshape(-1, 1) for c in a)
    mask = test_pairs(predicate, a_rows, b)
    if mask is not None:
        return mask
    # scalar fallback for exotic predicate types: row-by-row
    obs = current()
    if obs.enabled:
        obs.counter("kernels.scalar_pair_matrices").inc()
    rect_a = [Rect(*map(float, row)) for row in zip(*a)]
    rect_b = [Rect(*map(float, row)) for row in zip(*b)]
    out = np.empty((len(rect_a), len(rect_b)), dtype=bool)
    for i, ra in enumerate(rect_a):
        out[i] = [predicate.test(ra, rb) for rb in rect_b]
    return out


# ----------------------------------------------------------------------
# constraint counting
# ----------------------------------------------------------------------
def _scalar_count(
    rows: Columns,
    constraints: Sequence[tuple[SpatialPredicate, Rect]],
    counts: np.ndarray,
    method: str,
) -> None:
    """Row-by-row fallback for predicates without a vector kernel."""
    rects = [Rect(*map(float, row)) for row in zip(*rows)]
    obs = current()
    if obs.enabled:
        obs.counter("kernels.scalar_fallback_rows").inc(len(rects))
    for predicate, window in constraints:
        check = getattr(predicate, method)
        for position, rect in enumerate(rects):
            if check(rect, window):
                counts[position] += 1


def _count(
    rows: RectColumns | Columns | np.ndarray,
    constraints: Sequence[tuple[SpatialPredicate, Rect]],
    method: str,
) -> np.ndarray:
    if constraints and all(
        type(predicate) is Intersects for predicate, _window in constraints
    ):
        # test and node_may_satisfy coincide for intersects
        return make_count_scorer(constraints)(rows)
    if isinstance(rows, np.ndarray):
        rows = split_columns(rows)
    elif isinstance(rows, RectColumns):
        rows = rows.as_tuple()
    counts = np.zeros(len(rows[0]), dtype=np.intp)
    kernel = test_pairs if method == "test" else filter_pairs
    slow: list[tuple[SpatialPredicate, Rect]] = []
    for predicate, window in constraints:
        mask = kernel(predicate, rows, window_columns(window))
        if mask is None:
            slow.append((predicate, window))
        else:
            counts += mask
    if slow:
        scalar_method = "test" if method == "test" else "node_may_satisfy"
        _scalar_count(rows, slow, counts, scalar_method)
    return counts


def count_satisfied(
    rows: RectColumns | Columns | np.ndarray,
    constraints: Sequence[tuple[SpatialPredicate, Rect]],
) -> np.ndarray:
    """Per-row number of constraints whose ``test`` passes.

    ``rows`` may be a :class:`RectColumns`, a 4-tuple of column arrays or a
    packed ``(n, 4)`` bounds array (a node's cached array, typically).
    """
    return _count(rows, constraints, "test")


def count_may_satisfy(
    rows: RectColumns | Columns | np.ndarray,
    constraints: Sequence[tuple[SpatialPredicate, Rect]],
) -> np.ndarray:
    """Per-row number of constraints whose ``node_may_satisfy`` passes."""
    return _count(rows, constraints, "filter")


def make_count_scorer(
    constraints: Sequence[tuple[SpatialPredicate, Rect]],
    method: str = "test",
) -> Callable[[RectColumns | Columns | np.ndarray], np.ndarray]:
    """Pre-compiled counting kernel for a fixed constraint list.

    :func:`count_satisfied` re-packs the constraint windows on every call —
    negligible for one-shot scans, but measurable when the same constraints
    score thousands of tree nodes (``find_best_value``).  This returns a
    ``scorer(rows) -> counts`` closure with the windows packed once.  For
    the all-``intersects`` case (the paper's default: every experiment uses
    ``overlap`` queries) the scorer is a single ``(n, m)`` broadcast, which
    beats ``m`` per-constraint kernel calls because the NumPy dispatch
    overhead is paid once instead of per window; other predicate mixes
    defer to the generic kernels.
    ``method`` selects ``"test"`` (leaf semantics) or ``"filter"``
    (intermediate-node admissible semantics).
    """
    if constraints and all(
        type(predicate) is Intersects for predicate, _window in constraints
    ):
        windows = pack_bounds([window for _predicate, window in constraints])
        wxmin, wymin, wxmax, wymax = (windows[:, k] for k in range(4))

        def scorer(rows: RectColumns | Columns | np.ndarray) -> np.ndarray:
            if isinstance(rows, np.ndarray):
                xmin, ymin, xmax, ymax = (rows[:, k : k + 1] for k in range(4))
            else:
                if isinstance(rows, RectColumns):
                    rows = rows.as_tuple()
                xmin, ymin, xmax, ymax = (
                    np.asarray(c).reshape(-1, 1) for c in rows
                )
            return (
                (xmin <= wxmax)
                & (wxmin <= xmax)
                & (ymin <= wymax)
                & (wymin <= ymax)
            ).sum(axis=1, dtype=np.intp)

        return scorer
    counter = count_satisfied if method == "test" else count_may_satisfy
    return lambda rows: counter(rows, constraints)
