"""Per-machine warm plane: publish datasets once, attach them everywhere.

A :class:`WarmPlane` lives in the publishing process (typically the query
server).  ``publish`` packs one :class:`~repro.data.datasets.SpatialDataset`
into five shared-memory segments — the ``(4, n)`` columnar object table
plus the four packed R*-tree arrays of
:func:`repro.index.bulk.pack_tree` — and returns a picklable
:class:`WarmDatasetSpec`.  Worker processes call :func:`attach_dataset`
with that spec: the columns are zero-copy views over the shared pages and
the four tree arrays are wrapped, as they are, as the tree's packed
read-side form — no node is built unless a request later walks or mutates
the tree — so attaching costs milliseconds and no per-worker memory for
the payload.

Attachments are cached per process (keyed by the columns segment name), so
a long-lived worker attaches each dataset at most once and every
subsequent request reuses the warm copy — pool rebuilds after faults
re-attach to the *existing* segments; nothing is ever re-published.

``shutdown`` unlinks everything the plane published and reports leaked
segments (anything published but still open), which callers treat as a
bug.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

import numpy as np

from ..data.datasets import SpatialDataset
from ..geometry import Rect
from ..geometry.kernels import RectColumns
from ..index.bulk import pack_tree, tree_from_packed
from ..obs import current
from ..query.hardness import ProblemInstance
from ..query.io import query_from_dict, query_to_dict
from .segments import DuplicateSegmentError, SegmentManager, SegmentSpec

__all__ = [
    "WarmDatasetSpec",
    "WarmInstanceSpec",
    "WarmPlane",
    "attach_dataset",
    "attach_instance",
    "process_manager",
]


@dataclass(frozen=True)
class WarmDatasetSpec:
    """Everything a worker needs to attach one published dataset."""

    name: str
    count: int
    workspace: tuple[float, float, float, float]
    #: ``(4, n)`` C-contiguous float64: rows are xmin / ymin / xmax / ymax
    columns: SegmentSpec
    tree_bounds: SegmentSpec
    tree_children: SegmentSpec
    tree_offsets: SegmentSpec
    tree_levels: SegmentSpec
    #: ``(max_entries, min_entries, reinsert_count, size)``
    tree_meta: tuple[int, int, int, int]

    def segment_specs(self) -> tuple[SegmentSpec, ...]:
        return (
            self.columns,
            self.tree_bounds,
            self.tree_children,
            self.tree_offsets,
            self.tree_levels,
        )


@dataclass(frozen=True)
class WarmInstanceSpec:
    """A whole problem instance by reference: query dict + dataset specs."""

    name: str
    query: dict[str, Any]
    datasets: tuple[WarmDatasetSpec, ...]


class WarmPlane:
    """Registry name → published shared-memory dataset, for one machine."""

    def __init__(self, manager: SegmentManager | None = None) -> None:
        self._manager = manager if manager is not None else SegmentManager()
        self._published: dict[str, WarmDatasetSpec] = {}
        #: publish operations actually performed (re-attach paths must not
        #: move this counter — the fault tests pin it)
        self.publishes = 0

    @property
    def published(self) -> dict[str, WarmDatasetSpec]:
        """Snapshot of the registry-name → spec mapping."""
        return dict(self._published)

    # ------------------------------------------------------------------
    # publishing
    # ------------------------------------------------------------------
    def publish(self, name: str, dataset: SpatialDataset) -> WarmDatasetSpec:
        """Publish ``dataset`` under registry name ``name`` (exactly once)."""
        if name in self._published:
            raise DuplicateSegmentError(
                f"dataset {name!r} is already published on this plane"
            )
        obs = current()
        with obs.span("warm.publish"):
            table = np.stack(dataset.columns.as_tuple())
            packed = pack_tree(dataset.tree)
            # OS names come from the manager (pid + counter); the registry
            # name only tags the payload, so "a/b"-style names are fine
            published: list[SegmentSpec] = []
            try:
                specs = {
                    "columns": self._manager.publish(table),
                    "tree_bounds": self._manager.publish(packed["entry_bounds"]),
                    "tree_children": self._manager.publish(packed["entry_children"]),
                    "tree_offsets": self._manager.publish(packed["node_offsets"]),
                    "tree_levels": self._manager.publish(packed["node_levels"]),
                }
                published.extend(specs.values())
            except BaseException:
                for spec in published:
                    self._manager.unlink(spec.name)
                raise
        spec_out = WarmDatasetSpec(
            name=name,
            count=len(dataset),
            workspace=(
                dataset.workspace.xmin,
                dataset.workspace.ymin,
                dataset.workspace.xmax,
                dataset.workspace.ymax,
            ),
            tree_meta=tuple(int(value) for value in packed["meta"]),  # type: ignore[arg-type]
            **specs,
        )
        self._published[name] = spec_out
        self.publishes += 1
        obs.counter("warm.publishes").inc()
        return spec_out

    def ensure_published(self, name: str, dataset: SpatialDataset) -> WarmDatasetSpec:
        """Idempotent :meth:`publish` — the pool-rebuild entry point."""
        spec = self._published.get(name)
        if spec is not None:
            return spec
        return self.publish(name, dataset)

    def instance_spec(
        self,
        name: str,
        instance: ProblemInstance,
        labels: list[str] | None = None,
    ) -> WarmInstanceSpec:
        """Publish (idempotently) an instance's datasets; returns the spec.

        ``labels`` are the registry names for the member datasets and
        default to the ``{name}/{index}`` convention of
        :class:`~repro.service.registry.DatasetRegistry`.
        """
        if labels is None:
            labels = [f"{name}/{index}" for index in range(len(instance.datasets))]
        if len(labels) != len(instance.datasets):
            raise ValueError(
                f"{len(instance.datasets)} datasets but {len(labels)} labels"
            )
        members = tuple(
            self.ensure_published(label, dataset)
            for label, dataset in zip(labels, instance.datasets)
        )
        return WarmInstanceSpec(
            name=name, query=query_to_dict(instance.query), datasets=members
        )

    # ------------------------------------------------------------------
    # teardown
    # ------------------------------------------------------------------
    def shutdown(self) -> dict[str, Any]:
        """Unlink every published segment; returns the lifecycle report.

        ``leaked`` lists OS segment names that were still open beyond the
        plane's own publications — with disciplined use it is empty.
        """
        datasets = len(self._published)
        unlinked = 0
        for spec in self._published.values():
            for segment in spec.segment_specs():
                if self._manager.is_open(segment.name):
                    self._manager.unlink(segment.name)
                    unlinked += 1
        self._published.clear()
        report = self._manager.shutdown()
        report["unlinked"] += unlinked
        report["datasets"] = datasets
        return report


# ----------------------------------------------------------------------
# attach side (worker processes)
# ----------------------------------------------------------------------

#: the manager tracking this process's attachments
_PROCESS_MANAGER = SegmentManager()

#: columns-segment name → attached dataset, so long-lived workers attach
#: each published dataset at most once
_ATTACH_CACHE: dict[str, SpatialDataset] = {}


def process_manager() -> SegmentManager:
    """This process's default attach-side segment manager."""
    return _PROCESS_MANAGER


def attach_dataset(
    spec: WarmDatasetSpec, manager: SegmentManager | None = None
) -> SpatialDataset:
    """Materialise a published dataset from shared memory, zero-copy.

    With the default ``manager`` the result is cached per process; passing
    an explicit manager bypasses the cache (tests use this to exercise the
    attach path repeatedly).
    """
    cache = manager is None
    if cache and spec.columns.name in _ATTACH_CACHE:
        return _ATTACH_CACHE[spec.columns.name]
    active = _PROCESS_MANAGER if manager is None else manager
    obs = current()
    with obs.span("warm.attach"):
        table = active.attach(spec.columns)
        tree = tree_from_packed(
            active.attach(spec.tree_bounds),
            active.attach(spec.tree_children),
            active.attach(spec.tree_offsets),
            active.attach(spec.tree_levels),
            spec.tree_meta,
        )
        dataset = SpatialDataset(
            RectColumns(table[0], table[1], table[2], table[3]),
            name=spec.name,
            workspace=Rect(*spec.workspace),
            tree=tree,
        )
    obs.counter("warm.attaches").inc()
    if cache:
        _ATTACH_CACHE[spec.columns.name] = dataset
    return dataset


def attach_instance(spec: WarmInstanceSpec) -> ProblemInstance:
    """Rebuild a whole problem instance from its warm spec."""
    return ProblemInstance(
        query=query_from_dict(spec.query),
        datasets=[attach_dataset(member) for member in spec.datasets],
    )
