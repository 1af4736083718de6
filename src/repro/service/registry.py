"""Named dataset and instance registry with lazy loading and warm-up.

The server process owns one :class:`DatasetRegistry`; worker processes
rebuild an equivalent one from :meth:`DatasetRegistry.spec` (a picklable
``{kind, name, path}`` listing) so each worker loads a dataset at most
once and then serves every subsequent request from its warm copy — the
dispatch-overhead discipline that in-memory parallel joins need
(Tsitsigkos et al.).

Two kinds of entries:

* *datasets* — one ``.npz``/``.csv`` file (:mod:`repro.data.io`), usable
  as the relations of any ad-hoc query;
* *instances* — a persisted :class:`~repro.query.hardness.ProblemInstance`
  directory (:func:`repro.query.io.load_instance`), bundling datasets with
  their query graph for one-name solve requests.

Loading is lazy (a registration is a few strings) and cached; indexes are
rebuilt on first load.  :meth:`warm` forces loading plus touches the
R*-tree root and the columnar arrays so the first query pays no
index-build latency.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Any

from ..data.datasets import SpatialDataset
from ..data.io import load_csv, load_npz
from ..query.hardness import ProblemInstance
from ..query.io import load_instance

__all__ = ["DatasetRegistry"]

#: file suffix → loader kind for :meth:`DatasetRegistry.register_path`
_SUFFIX_FORMATS = {".npz": "npz", ".csv": "csv"}


@dataclass
class _Entry:
    """One registration: where the payload lives and its cached value."""

    kind: str  # "npz" | "csv" | "instance" | "memory" | "warm"
    path: str | None = None
    value: Any = None  # SpatialDataset or ProblemInstance once loaded
    #: warm entries: the picklable WarmDatasetSpec / WarmInstanceSpec to
    #: attach from shared memory on first use
    payload: Any = None


class DatasetRegistry:
    """Name → lazily loaded dataset or problem instance."""

    def __init__(self) -> None:
        self._datasets: dict[str, _Entry] = {}
        self._instances: dict[str, _Entry] = {}

    # ------------------------------------------------------------------
    # registration
    # ------------------------------------------------------------------
    def register_path(
        self, name: str, path: str | Path, format: str | None = None
    ) -> None:
        """Register a dataset file (``.npz``/``.csv``) under ``name``.

        The file is not read until the first :meth:`dataset` call, but its
        existence is checked now so typos fail at registration time.
        """
        path = Path(path)
        if format is None:
            format = _SUFFIX_FORMATS.get(path.suffix.lower())
            if format is None:
                raise ValueError(
                    f"cannot infer format of {path}; pass format='npz' or 'csv'"
                )
        if format not in ("npz", "csv"):
            raise ValueError(f"unknown dataset format {format!r}")
        if not path.is_file():
            raise FileNotFoundError(f"dataset file not found: {path}")
        self._datasets[name] = _Entry(kind=format, path=str(path))

    def register_dataset(self, name: str, dataset: SpatialDataset) -> None:
        """Register an in-memory dataset (no file backing; ships by pickle)."""
        self._datasets[name] = _Entry(kind="memory", value=dataset)

    def register_instance_dir(self, name: str, directory: str | Path) -> None:
        """Register a persisted instance directory under ``name``.

        The instance's datasets also become addressable as
        ``{name}/{index}`` once the instance is loaded.
        """
        directory = Path(directory)
        if not (directory / "instance.json").is_file():
            raise FileNotFoundError(f"no instance manifest under {directory}")
        self._instances[name] = _Entry(kind="instance", path=str(directory))

    def register_instance(self, name: str, instance: ProblemInstance) -> None:
        """Register an in-memory problem instance."""
        self._instances[name] = _Entry(kind="memory", value=instance)

    def register_warm_dataset(self, name: str, spec: Any) -> None:
        """Register a shared-memory dataset by its ``WarmDatasetSpec``.

        The dataset attaches (zero-copy) on first :meth:`dataset` call;
        warm entries survive :meth:`spec`/:meth:`from_spec`, which is how
        the server hands published segments to its pool workers.
        """
        self._datasets[name] = _Entry(kind="warm", payload=spec)

    def register_warm_instance(self, name: str, spec: Any) -> None:
        """Register a shared-memory instance by its ``WarmInstanceSpec``."""
        self._instances[name] = _Entry(kind="warm", payload=spec)

    # ------------------------------------------------------------------
    # resolution
    # ------------------------------------------------------------------
    def dataset(self, name: str) -> SpatialDataset:
        """The dataset registered as ``name``, loading (and caching) it."""
        entry = self._datasets.get(name)
        if entry is None:
            raise KeyError(
                f"unknown dataset {name!r}; known: {sorted(self._datasets)}"
            )
        if entry.value is None:
            if entry.kind == "warm":
                from ..warm.plane import attach_dataset  # local: optional dep

                entry.value = attach_dataset(entry.payload)
            else:
                assert entry.path is not None
                if entry.kind == "npz":
                    entry.value = load_npz(entry.path)
                else:
                    entry.value = load_csv(entry.path, name=name)
        return entry.value

    def instance(self, name: str) -> ProblemInstance:
        """The problem instance registered as ``name``, loading it lazily."""
        entry = self._instances.get(name)
        if entry is None:
            raise KeyError(
                f"unknown instance {name!r}; known: {sorted(self._instances)}"
            )
        if entry.value is None:
            if entry.kind == "warm":
                from ..warm.plane import attach_instance  # local: optional dep

                entry.value = attach_instance(entry.payload)
            else:
                assert entry.path is not None
                entry.value = load_instance(entry.path)
            for index, dataset in enumerate(entry.value.datasets):
                self._datasets.setdefault(
                    f"{name}/{index}", _Entry(kind="memory", value=dataset)
                )
        return entry.value

    def dataset_names(self) -> list[str]:
        return sorted(self._datasets)

    def instance_names(self) -> list[str]:
        return sorted(self._instances)

    def is_loaded(self, name: str) -> bool:
        """True when dataset ``name`` is already materialised in memory."""
        entry = self._datasets.get(name)
        return entry is not None and entry.value is not None

    # ------------------------------------------------------------------
    # warm-up and worker transfer
    # ------------------------------------------------------------------
    def warm(self, name: str | None = None) -> int:
        """Force-load entries and touch their indexes; returns objects warmed.

        ``None`` warms everything.  "Touching" means reading the R*-tree
        root MBR and building the columnar arrays, so the first real query
        hits a fully materialised index.
        """
        warmed = 0
        dataset_names = [name] if name in self._datasets else None
        instance_names = [name] if name in self._instances else None
        if name is not None and dataset_names is None and instance_names is None:
            raise KeyError(f"unknown dataset or instance {name!r}")
        for dataset_name in dataset_names or (
            list(self._datasets) if name is None else []
        ):
            warmed += _touch(self.dataset(dataset_name))
        for instance_name in instance_names or (
            list(self._instances) if name is None else []
        ):
            for dataset in self.instance(instance_name).datasets:
                warmed += _touch(dataset)
        return warmed

    def attach_warm(self) -> int:
        """Force-attach every warm entry; returns datasets materialised.

        Called by pool-worker initializers so the first request finds the
        shared-memory datasets already attached (attaching is cheap, but
        doing it during a deadline-bounded solve is still wasted budget).
        """
        attached = 0
        for name, entry in list(self._instances.items()):
            if entry.kind == "warm":
                attached += len(self.instance(name).datasets)
        for name, entry in list(self._datasets.items()):
            if entry.kind == "warm" and entry.value is None:
                self.dataset(name)
                attached += 1
        return attached

    def spec(self) -> dict[str, Any]:
        """A picklable description workers rebuild the registry from.

        Path-backed entries transfer as paths (workers re-load lazily from
        disk); warm entries transfer as their shared-memory specs (workers
        attach, never re-load).  Plain in-memory entries are listed by
        neither — callers ship those instances inline with the request.
        """
        return {
            "datasets": {
                name: {"kind": entry.kind, "path": entry.path, "payload": entry.payload}
                for name, entry in self._datasets.items()
                if entry.path is not None or entry.kind == "warm"
            },
            "instances": {
                name: {"kind": entry.kind, "path": entry.path, "payload": entry.payload}
                for name, entry in self._instances.items()
                if entry.path is not None or entry.kind == "warm"
            },
        }

    def has_path(self, name: str) -> bool:
        """True when dataset/instance ``name`` is file-backed (worker-loadable)."""
        entry = self._datasets.get(name) or self._instances.get(name)
        return entry is not None and entry.path is not None

    @classmethod
    def from_spec(cls, spec: dict[str, Any]) -> "DatasetRegistry":
        """Rebuild a lazy registry from :meth:`spec` (worker initializer)."""
        registry = cls()
        for name, entry in spec.get("datasets", {}).items():
            registry._datasets[name] = _Entry(
                kind=entry["kind"], path=entry["path"], payload=entry.get("payload")
            )
        for name, entry in spec.get("instances", {}).items():
            registry._instances[name] = _Entry(
                kind=entry["kind"], path=entry["path"], payload=entry.get("payload")
            )
        return registry


def _touch(dataset: SpatialDataset) -> int:
    """Materialise one dataset's query structures; returns 1."""
    dataset.tree.packed()
    _ = dataset.columns
    return 1
