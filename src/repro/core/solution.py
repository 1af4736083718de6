"""Mutable solution state with incremental inconsistency maintenance.

A *solution* of an ``n``-way join is one object id per variable.  Search
moves change a single variable at a time, so re-counting all ``E`` join
conditions per move would waste a factor ``E / degree``; ``SolutionState``
maintains per-variable satisfied-condition counts and updates only the
``degree(v)`` conditions incident to a re-instantiated variable.

The class also implements the two solution-level policies the paper's
algorithms share:

* the **worst variable** rule (conflict minimisation [MJP+92]): most
  violated conditions first, ties broken by fewest satisfied conditions;
* the constraint *windows* handed to ``find_best_value`` — the current
  rectangles of a variable's join partners.

A state carries the current rectangle of every variable beside its object
id.  The datasets store their objects as columns, where reading one row
costs an order of magnitude more than a list index; a move re-reads
``degree(v)`` partner rectangles twice (the windows, then the recount), so
the state keeps them — fetched once at construction, replaced in
:meth:`SolutionState.set_value` by the rectangle ``find_best_value`` returns.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from ..geometry import Rect, SpatialPredicate

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, types only
    from .evaluator import QueryEvaluator

__all__ = ["SolutionState"]


class SolutionState:
    """An assignment plus cached per-variable satisfaction counts."""

    __slots__ = ("evaluator", "values", "rects", "sat", "satisfied_edges")

    evaluator: "QueryEvaluator"
    values: list[int]
    #: rects[v] — the rectangle of object ``values[v]`` of dataset ``v``
    rects: list[Rect]
    sat: list[int]
    satisfied_edges: int

    def __init__(self, evaluator: "QueryEvaluator", values: list[int]) -> None:
        if len(values) != evaluator.num_variables:
            raise ValueError(
                f"expected {evaluator.num_variables} values, got {len(values)}"
            )
        self.evaluator = evaluator
        self.values = values
        self.rects = evaluator.rects_of(values)
        self.sat = evaluator.satisfied_counts_of(self.rects)
        self.satisfied_edges = sum(self.sat) // 2

    # ------------------------------------------------------------------
    # measures
    # ------------------------------------------------------------------
    @property
    def violations(self) -> int:
        """Inconsistency degree of the current assignment."""
        return self.evaluator.num_constraints - self.satisfied_edges

    @property
    def similarity(self) -> float:
        return self.evaluator.similarity(self.violations)

    @property
    def is_exact(self) -> bool:
        return self.satisfied_edges == self.evaluator.num_constraints

    def violated_count(self, variable: int) -> int:
        """Number of violated conditions incident to ``variable``."""
        return self.evaluator.degrees[variable] - self.sat[variable]

    def as_tuple(self) -> tuple[int, ...]:
        return tuple(self.values)

    # ------------------------------------------------------------------
    # mutation
    # ------------------------------------------------------------------
    def set_value(self, variable: int, object_id: int, rect: Rect | None = None) -> None:
        """Re-instantiate ``variable``; updates counts in O(degree).

        ``rect`` is the object's rectangle when the caller already holds it
        (``find_best_value`` returns it, a crossover donor carries it);
        otherwise it is fetched from the dataset.
        """
        if self.values[variable] == object_id:
            return
        evaluator = self.evaluator
        rects = self.rects
        old_rect = rects[variable]
        new_rect = evaluator.columns[variable].rect(object_id) if rect is None else rect
        sat_delta = 0
        for j, predicate in evaluator.neighbors[variable]:
            partner_rect = rects[j]
            old_ok = predicate.test(old_rect, partner_rect)
            new_ok = predicate.test(new_rect, partner_rect)
            if old_ok == new_ok:
                continue
            step = 1 if new_ok else -1
            self.sat[j] += step
            sat_delta += step
        self.sat[variable] += sat_delta
        self.satisfied_edges += sat_delta
        self.values[variable] = object_id
        rects[variable] = new_rect

    def copy(self) -> "SolutionState":
        """An independent copy (used by SEA's offspring allocation)."""
        clone = SolutionState.__new__(SolutionState)
        clone.evaluator = self.evaluator
        clone.values = list(self.values)
        clone.rects = list(self.rects)
        clone.sat = list(self.sat)
        clone.satisfied_edges = self.satisfied_edges
        return clone

    @classmethod
    def from_counts(
        cls, evaluator: "QueryEvaluator", values: list[int], sat: list[int], rects: list[Rect]
    ) -> "SolutionState":
        """Build a state from pre-computed satisfied counts and rectangles.

        Used by :meth:`QueryEvaluator.make_states`, which evaluates a whole
        population of assignments with the batched kernels and must not pay
        the per-state edge recount of ``__init__``.
        """
        state = cls.__new__(cls)
        state.evaluator = evaluator
        state.values = list(values)
        state.rects = rects
        state.sat = [int(count) for count in sat]
        state.satisfied_edges = sum(state.sat) // 2
        return state

    # ------------------------------------------------------------------
    # search policies
    # ------------------------------------------------------------------
    def worst_variable_order(self) -> list[int]:
        """Variables sorted worst-first (most violations, then fewest
        satisfied conditions, then index for determinism)."""
        return sorted(
            range(self.evaluator.num_variables),
            key=lambda v: (-self.violated_count(v), self.sat[v], v),
        )

    def constraint_windows(
        self, variable: int
    ) -> list[tuple[SpatialPredicate, Rect]]:
        """The *windows* of ``find_best_value``: for each join partner of
        ``variable``, the predicate (oriented candidate→partner) and the
        partner's current rectangle."""
        rects = self.rects
        return [(predicate, rects[j]) for j, predicate in self.evaluator.neighbors[variable]]

    # ------------------------------------------------------------------
    # diagnostics
    # ------------------------------------------------------------------
    def check_consistency(self) -> None:
        """Verify the incremental counters and the carried rectangles against
        a full recount from the datasets."""
        fetched = self.evaluator.rects_of(self.values)
        assert self.rects == fetched, f"stale rects: {self.rects} != {fetched}"
        expected = self.evaluator.satisfied_counts(self.values)
        assert self.sat == expected, f"stale sat counts: {self.sat} != {expected}"
        assert self.satisfied_edges == sum(expected) // 2, "stale edge count"

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"SolutionState(values={self.values}, violations={self.violations})"
        )
