"""Hard-region problem-instance generation (§6 of the paper).

Phase-transition studies ([CA93], [CFG+98]) show that the hardest instances
of a constraint problem occur where the expected number of exact solutions is
small — the paper targets ``Sol ∈ [1, 10]`` and usually exactly 1.  This
module packages the recipe used throughout the experimental evaluation:

1. pick a query topology and size,
2. solve the selectivity formula for the density that yields the target
   ``Sol``,
3. generate one uniform dataset of that density per join variable.

:func:`hard_instance` returns a :class:`ProblemInstance`, the bundle every
search algorithm in :mod:`repro.core` consumes.
"""

from __future__ import annotations

import gc
import random
from dataclasses import dataclass, field

from ..data import SpatialDataset, plant_clique_solution, uniform_dataset, uniform_rects
from .graph import QueryGraph
from .selectivity import (
    density_for_solutions,
    expected_solutions,
    problem_size_bits,
)

__all__ = ["ProblemInstance", "hard_instance", "planted_instance"]


@dataclass
class ProblemInstance:
    """A multiway spatial join problem: query graph + one dataset per variable."""

    query: QueryGraph
    datasets: list[SpatialDataset]
    #: density used for generation (None for hand-built instances)
    density: float | None = None
    #: expected number of exact solutions under the generation model
    expected_solutions: float | None = None
    #: ids of a planted exact solution, when one was injected
    planted: tuple[int, ...] | None = None
    metadata: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        if len(self.datasets) != self.query.num_variables:
            raise ValueError(
                f"{self.query.num_variables} variables but "
                f"{len(self.datasets)} datasets"
            )

    @property
    def num_variables(self) -> int:
        return self.query.num_variables

    @property
    def cardinalities(self) -> tuple[int, ...]:
        return tuple(len(dataset) for dataset in self.datasets)

    def problem_size(self) -> float:
        """``s = log₂ Π Nᵢ`` — drives SEA's parameter schedule and GILS's λ."""
        return problem_size_bits(self.cardinalities)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"ProblemInstance(n={self.num_variables}, "
            f"N={self.cardinalities[0] if self.datasets else 0}, "
            f"density={self.density})"
        )


def _pace_collector() -> None:
    """One young-generation pass of the cyclic collector per instance built.

    CPython paces that collector by the number of container objects
    allocated, not by bytes.  An instance used to be ``n·N`` ``Rect`` tuples,
    whose allocation alone ran it hundreds of times; as columns it is a few
    dozen objects owning megabytes, so a process that builds instance after
    instance (a sweep, a benchmark's repeated set-up) would never trigger a
    pass, and array-holding garbage that is only cyclically dead — a
    closure over the previous instance's matrices, a traceback — would pile
    up.  A young pass costs microseconds.
    """
    gc.collect(0)


def hard_instance(
    query: QueryGraph,
    cardinality: int,
    seed: int | random.Random,
    target_solutions: float = 1.0,
    extent_jitter: float = 0.0,
    max_entries: int | None = None,
) -> ProblemInstance:
    """Generate a phase-transition instance for ``query``.

    Density is chosen so that the expected number of exact solutions equals
    ``target_solutions`` (1 = the paper's hardest setting); one uniform
    dataset of ``cardinality`` objects is generated per variable.
    """
    _pace_collector()
    rng = seed if isinstance(seed, random.Random) else random.Random(seed)
    density = density_for_solutions(query, cardinality, target_solutions)
    datasets = [
        uniform_dataset(
            cardinality,
            density,
            rng,
            name=f"D{index}",
            extent_jitter=extent_jitter,
            max_entries=max_entries,
        )
        for index in range(query.num_variables)
    ]
    return ProblemInstance(
        query=query,
        datasets=datasets,
        density=density,
        expected_solutions=expected_solutions(query, cardinality, density),
    )


def planted_instance(
    query: QueryGraph,
    cardinality: int,
    seed: int | random.Random,
    target_solutions: float = 1.0,
    max_entries: int | None = None,
) -> ProblemInstance:
    """A hard instance that *provably* contains an exact solution.

    Figure 11 measures time-to-exact-solution, which requires one to exist:
    after generating the hard-region datasets, one object per dataset is
    re-centred onto a common anchor point so the planted tuple mutually
    overlaps (satisfying any all-``intersects`` query).  Densities are
    preserved because extents are untouched.
    """
    if not query.all_intersects():
        raise ValueError("planting currently supports all-intersects queries only")
    _pace_collector()
    rng = seed if isinstance(seed, random.Random) else random.Random(seed)
    density = density_for_solutions(query, cardinality, target_solutions)
    # raw tables first; trees are built after planting
    tables = [uniform_rects(cardinality, density, rng) for _ in range(query.num_variables)]
    planted = plant_clique_solution(tables, rng)
    datasets = [
        SpatialDataset(table, name=f"D{index}", max_entries=max_entries)
        for index, table in enumerate(tables)
    ]
    return ProblemInstance(
        query=query,
        datasets=datasets,
        density=density,
        expected_solutions=expected_solutions(query, cardinality, density),
        planted=planted,
    )
