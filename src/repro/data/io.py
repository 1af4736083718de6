"""Dataset persistence.

Two formats:

* ``.npz`` (numpy) — compact binary, preserves float64 coordinates exactly;
  the natural choice for benchmark reruns over identical data.
* ``.csv`` — one rectangle per line (``xmin,ymin,xmax,ymax``), interoperable
  with spreadsheets and external tools.

Both move the table as one ``(N, 4)`` array — no per-row object in either
direction — and every loader rejects non-finite or inverted rows (the
dataset validates its columns).  Indexes are rebuilt on load by STR bulk
loading, which is fast and a function of the rows and the node capacity
alone; ``.npz`` files therefore store the capacity (``max_entries``) next to
the rows, so a reloaded dataset gets the same tree — the same node reads
and, at ties, the same answers.  Files written without it, and ``.csv``
files, load with the default capacity.
"""

from __future__ import annotations

import csv
from pathlib import Path

import numpy as np

from ..geometry import Rect, RectColumns
from .datasets import UNIT_WORKSPACE, SpatialDataset

__all__ = ["save_npz", "load_npz", "save_csv", "load_csv"]


def _dataset_of(
    path: str | Path,
    coordinates: np.ndarray,
    name: str,
    workspace: Rect,
    max_entries: int | None = None,
) -> SpatialDataset:
    """A dataset over loaded ``(N, 4)`` rows; a bad row is reported with its file."""
    try:
        return SpatialDataset(
            RectColumns.from_bounds(coordinates),
            name=name,
            workspace=workspace,
            max_entries=max_entries,
        )
    except ValueError as error:
        raise ValueError(f"{path}: {error}") from None


def save_npz(dataset: SpatialDataset, path: str | Path) -> None:
    """Write a dataset (rects + workspace + name + node capacity) to a ``.npz`` file."""
    np.savez_compressed(
        Path(path),
        coordinates=np.asarray(dataset.columns),
        workspace=np.array(dataset.workspace, dtype=np.float64),
        name=np.array(dataset.name),
        max_entries=np.array(dataset.tree.max_entries, dtype=np.int64),
    )


def load_npz(path: str | Path) -> SpatialDataset:
    """Load a dataset written by :func:`save_npz`; rebuilds the index."""
    with np.load(Path(path), allow_pickle=False) as archive:
        coordinates = archive["coordinates"]
        workspace = Rect(*(float(c) for c in archive["workspace"]))
        name = str(archive["name"])
        # files written before the capacity was stored: the default
        max_entries = int(archive["max_entries"]) if "max_entries" in archive else None
    return _dataset_of(path, coordinates, name, workspace, max_entries)


def save_csv(dataset: SpatialDataset, path: str | Path) -> None:
    """Write ``xmin,ymin,xmax,ymax`` rows with a header line."""
    with open(Path(path), "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(["xmin", "ymin", "xmax", "ymax"])
        for rect in dataset.rects:
            writer.writerow([repr(c) for c in rect])


def load_csv(
    path: str | Path,
    name: str | None = None,
    workspace: Rect = UNIT_WORKSPACE,
) -> SpatialDataset:
    """Load a dataset written by :func:`save_csv` (header optional)."""
    path = Path(path)
    rows = []
    with open(path, newline="") as handle:
        for row in csv.reader(handle):
            if not row or row[0].strip().lower() == "xmin":
                continue
            if len(row) != 4:
                raise ValueError(f"{path}: expected 4 columns, got {len(row)}: {row}")
            rows.append([float(cell) for cell in row])
    if not rows:
        raise ValueError(f"{path}: no rectangles found")
    return _dataset_of(path, np.array(rows), name or path.stem, workspace)
