"""Query evaluation: violation counting over candidate solutions.

Bridges the query model and the search algorithms: given a
:class:`~repro.query.hardness.ProblemInstance`, the evaluator answers "how
many join conditions does this tuple violate?" — the *inconsistency degree*
that all of the paper's heuristics minimise — and produces the mutable
:class:`~repro.core.solution.SolutionState` objects they climb on.

Single-assignment checks (``count_violations``) stay scalar — an assignment
touches only ``E`` edges and NumPy dispatch would cost more than it saves —
but everything population-shaped is vectorized through the columnar kernels:
:meth:`QueryEvaluator.count_violations_batch` and
:meth:`QueryEvaluator.satisfied_counts_batch` evaluate a whole matrix of
assignments with one gather + one predicate kernel per query edge, which is
what SEA's population construction and the benchmark suite use.  The
scalar methods are the reference the batched ones are tested against.
"""

from __future__ import annotations

import random
from typing import Sequence

import numpy as np

from ..geometry import Rect, RectColumns, SpatialPredicate
from ..geometry.kernels import test_pairs
from ..index import RStarTree
from ..obs import current
from ..query import ProblemInstance
from .solution import SolutionState

__all__ = ["QueryEvaluator"]


class QueryEvaluator:
    """Precomputed adjacency + rectangle tables for fast violation counting."""

    def __init__(self, instance: ProblemInstance):
        if not instance.query.is_connected():
            raise ValueError(
                "disconnected query graphs are Cartesian products; "
                "join each connected component separately"
            )
        self.instance = instance
        self.query = instance.query
        self.num_variables = instance.query.num_variables
        self.num_constraints = instance.query.num_edges
        self.trees: list[RStarTree] = [dataset.tree for dataset in instance.datasets]
        #: columns[i] — the object table of dataset ``i`` (the dataset's own)
        self.columns: list[RectColumns] = [
            dataset.columns for dataset in instance.datasets
        ]
        #: rects[i][oid] — the MBR of object ``oid`` of dataset ``i``: the same
        #: tables read as sequences, one row fetch per index (the searches
        #: read the rectangles their :class:`SolutionState` carries instead)
        self.rects = self.columns
        #: neighbors[i] — list of ``(j, predicate oriented from i)``
        self.neighbors: list[list[tuple[int, SpatialPredicate]]] = [
            sorted(instance.query.neighbors(i).items())
            for i in range(self.num_variables)
        ]
        self.degrees = [len(adjacent) for adjacent in self.neighbors]

    # ------------------------------------------------------------------
    # pointwise checks
    # ------------------------------------------------------------------
    def pair_satisfied(self, i: int, object_i: int, j: int, object_j: int) -> bool:
        """Does the join condition between ``i`` and ``j`` hold for these objects?"""
        predicate = self.query.predicate(i, j)
        return predicate.test(self.columns[i].rect(object_i), self.columns[j].rect(object_j))

    def rects_of(self, values: Sequence[int]) -> list[Rect]:
        """The rectangle each variable is assigned: one row fetch per variable."""
        return [columns.rect(value) for columns, value in zip(self.columns, values)]

    def count_violations(self, values: list[int] | tuple[int, ...]) -> int:
        """Inconsistency degree: number of violated join conditions."""
        obs = current()
        if obs.enabled:  # one attribute check when observation is off
            obs.counter("eval.violation_checks").inc()
        violations = 0
        rects = self.rects_of(values)
        for i, j, predicate in self.query.edges():
            if not predicate.test(rects[i], rects[j]):
                violations += 1
        return violations

    def satisfied_counts(self, values: list[int] | tuple[int, ...]) -> list[int]:
        """Per-variable count of *satisfied* incident join conditions."""
        return self.satisfied_counts_of(self.rects_of(values))

    def satisfied_counts_of(self, rects: Sequence[Rect]) -> list[int]:
        """:meth:`satisfied_counts` of an assignment given as its rectangles."""
        counts = [0] * self.num_variables
        for i, j, predicate in self.query.edges():
            if predicate.test(rects[i], rects[j]):
                counts[i] += 1
                counts[j] += 1
        return counts

    def similarity(self, violations: int) -> float:
        """The paper's normalised measure: ``1 − violated / total``."""
        return 1.0 - violations / self.num_constraints

    # ------------------------------------------------------------------
    # batched checks (columnar kernels)
    # ------------------------------------------------------------------
    def _edge_masks(self, values: np.ndarray):
        """Per query edge, the satisfied mask over a ``(k, n)`` value matrix."""
        columns = self.columns
        for i, j, predicate in self.query.edges():
            rows_i = columns[i].take(values[:, i])
            rows_j = columns[j].take(values[:, j])
            mask = test_pairs(predicate, rows_i, rows_j)
            if mask is None:  # exotic predicate: scalar fallback per row
                rects_i, rects_j = self.rects[i], self.rects[j]
                mask = np.fromiter(
                    (
                        predicate.test(rects_i[int(a)], rects_j[int(b)])
                        for a, b in zip(values[:, i], values[:, j])
                    ),
                    dtype=bool,
                    count=len(values),
                )
            yield i, j, mask

    def count_violations_batch(
        self, values: Sequence[Sequence[int]] | np.ndarray
    ) -> np.ndarray:
        """Inconsistency degree of every row of a ``(k, n)`` value matrix.

        Vectorized per edge: one fancy-indexed gather of both endpoint
        columns and one predicate kernel over all ``k`` assignments.
        Equals ``[count_violations(row) for row in values]`` exactly.
        """
        matrix = np.asarray(values, dtype=np.intp)
        if matrix.ndim != 2 or matrix.shape[1] != self.num_variables:
            raise ValueError(
                f"expected a (k, {self.num_variables}) value matrix, "
                f"got shape {matrix.shape}"
            )
        obs = current()
        if obs.enabled:
            obs.counter("eval.batch_rows").inc(len(matrix))
        violations = np.zeros(len(matrix), dtype=np.intp)
        for _i, _j, mask in self._edge_masks(matrix):
            violations += ~mask
        return violations

    def satisfied_counts_batch(
        self, values: Sequence[Sequence[int]] | np.ndarray
    ) -> np.ndarray:
        """Per-variable satisfied counts for every row: shape ``(k, n)``."""
        matrix = np.asarray(values, dtype=np.intp)
        if matrix.ndim != 2 or matrix.shape[1] != self.num_variables:
            raise ValueError(
                f"expected a (k, {self.num_variables}) value matrix, "
                f"got shape {matrix.shape}"
            )
        counts = np.zeros(matrix.shape, dtype=np.intp)
        for i, j, mask in self._edge_masks(matrix):
            counts[:, i] += mask
            counts[:, j] += mask
        return counts

    # ------------------------------------------------------------------
    # solution construction
    # ------------------------------------------------------------------
    def random_values(self, rng: random.Random) -> list[int]:
        """A uniformly random assignment (the *seed* of local search)."""
        return [rng.randrange(len(columns)) for columns in self.columns]

    def make_state(self, values: list[int]) -> SolutionState:
        """Wrap an assignment in an incrementally-maintained state."""
        return SolutionState(self, list(values))

    def make_states(self, values_list: Sequence[Sequence[int]]) -> list[SolutionState]:
        """Wrap many assignments at once, sharing one batched count pass."""
        values_list = [list(values) for values in values_list]
        if not values_list:
            return []
        matrix = np.asarray(values_list, dtype=np.intp)
        counts = self.satisfied_counts_batch(matrix)
        # the states' rectangles, one gather per variable: rows[v][k]
        rows = [
            np.stack(columns.take(matrix[:, v]), axis=1).tolist()
            for v, columns in enumerate(self.columns)
        ]
        return [
            SolutionState.from_counts(self, values, sat, list(map(Rect._make, rects)))
            for values, sat, rects in zip(values_list, counts.tolist(), zip(*rows))
        ]

    def validated_warm_start(
        self, warm_start: Sequence[int] | None
    ) -> list[int] | None:
        """``warm_start`` as a checked value list, or ``None``.

        A warm start is an ordinary assignment handed in from outside the
        search (a translated cache entry, a prior incumbent); it must have
        one in-domain object id per query variable.
        """
        if warm_start is None:
            return None
        values = [int(value) for value in warm_start]
        if len(values) != self.num_variables:
            raise ValueError(
                f"warm start has {len(values)} values for "
                f"{self.num_variables} variables"
            )
        for variable, value in enumerate(values):
            domain = len(self.columns[variable])
            if not 0 <= value < domain:
                raise ValueError(
                    f"warm start value {value} outside domain of variable "
                    f"{variable} (size {domain})"
                )
        return values

    def random_state(self, rng: random.Random) -> SolutionState:
        return self.make_state(self.random_values(rng))

    def random_states(self, rng: random.Random, count: int) -> list[SolutionState]:
        """``count`` random states, batch-evaluated.

        Draws from ``rng`` in exactly the same order as ``count`` successive
        :meth:`random_state` calls, so a seeded population equals the one
        built state by state.
        """
        values_list = [self.random_values(rng) for _ in range(count)]
        return self.make_states(values_list)
