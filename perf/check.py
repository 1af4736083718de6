"""Answer verification on the benchmark's own copy of each instance.

Nothing here calls into ``repro``: a :class:`Mirror` holds the coordinates
the benchmark generated, and every answer the program returns is recomputed
from them with four float comparisons per join condition (the paper's
*intersects* on closed rectangles — the only predicate the workloads use).
An answer is correct when the violations it reports equal the recomputation,
its similarity is ``1 − violations / edges``, and it claims ``exact`` only
with zero violations.  The exact joins are compared with
:meth:`Mirror.exact_solutions`, an independent backtracking join over
boolean pair matrices.
"""

from __future__ import annotations

from typing import Any, Iterable, Mapping, Sequence

import numpy as np

__all__ = ["Mirror", "answer_ok", "response_ok", "hit_matches_miss", "join_ok"]

_SIMILARITY_TOLERANCE = 1e-9


class Mirror:
    """The benchmark's copy of one instance: coordinates plus query edges."""

    def __init__(
        self, coordinates: Sequence[np.ndarray], edges: Iterable[tuple[int, int]]
    ) -> None:
        #: one ``(N, 4)`` float64 array per variable: xmin, ymin, xmax, ymax
        self.coordinates = [np.asarray(c, dtype=np.float64) for c in coordinates]
        self.edges = [(int(i), int(j)) for i, j in edges]

    @classmethod
    def of(cls, instance: Any) -> "Mirror":
        """Copy an instance's rectangles and edge list out of the program."""
        return cls(
            [np.array(dataset.rects, dtype=np.float64) for dataset in instance.datasets],
            [(i, j) for i, j, _predicate in instance.query.edges()],
        )

    def relabelled(self, order: Sequence[int]) -> "Mirror":
        """The same data seen by a requester whose variable ``k`` is ours ``order[k]``.

        Only meaningful for queries the relabelling maps onto themselves
        (cliques under any permutation), which is what the workloads send.
        """
        return Mirror([self.coordinates[v] for v in order], self.edges)

    def violations(self, assignment: Sequence[int]) -> int:
        """Number of join conditions the tuple violates."""
        if len(assignment) != len(self.coordinates):
            raise ValueError("assignment length differs from the variable count")
        count = 0
        for i, j in self.edges:
            a = self.coordinates[i][assignment[i]]
            b = self.coordinates[j][assignment[j]]
            if not (a[0] <= b[2] and b[0] <= a[2] and a[1] <= b[3] and b[1] <= a[3]):
                count += 1
        return count

    def similarity(self, violations: int) -> float:
        return 1.0 - violations / len(self.edges)

    def _pair_matrix(self, i: int, j: int) -> np.ndarray:
        a = self.coordinates[i][:, None, :]
        b = self.coordinates[j][None, :, :]
        return (
            (a[..., 0] <= b[..., 2])
            & (b[..., 0] <= a[..., 2])
            & (a[..., 1] <= b[..., 3])
            & (b[..., 1] <= a[..., 3])
        )

    def exact_solutions(self) -> set[tuple[int, ...]]:
        """Every tuple violating nothing (small instances only: O(N²) memory)."""
        matrices = {edge: self._pair_matrix(*edge) for edge in self.edges}
        n = len(self.coordinates)
        solutions: set[tuple[int, ...]] = set()

        def extend(prefix: tuple[int, ...]) -> None:
            variable = len(prefix)
            if variable == n:
                solutions.add(prefix)
                return
            mask = np.ones(len(self.coordinates[variable]), dtype=bool)
            for (i, j), matrix in matrices.items():
                if j == variable and i < variable:
                    mask &= matrix[prefix[i]]
                elif i == variable and j < variable:
                    mask &= matrix[:, prefix[j]]
            for value in np.flatnonzero(mask):
                extend(prefix + (int(value),))

        extend(())
        return solutions


def answer_ok(
    mirror: Mirror,
    assignment: Sequence[int],
    violations: int,
    similarity: float,
    exact: bool,
) -> bool:
    """Is a reported (assignment, violations, similarity, exact) truthful?"""
    try:
        recomputed = mirror.violations([int(v) for v in assignment])
    except (IndexError, ValueError, TypeError):
        return False
    return (
        recomputed == violations
        and abs(mirror.similarity(recomputed) - similarity) <= _SIMILARITY_TOLERANCE
        and exact == (recomputed == 0)
    )


def response_ok(
    mirror: Mirror, response: Mapping[str, Any], exact_iff_zero: bool = True
) -> bool:
    """Check one ``solve`` response of the service or the fleet router.

    A fleet answer may be exact-in-its-tile yet flagged approximate when a
    shard was not covered, so the router only owes ``exact ⇒ 0 violations``
    (``exact_iff_zero=False``); a single server owes the equivalence.
    """
    if response.get("status") != "ok":
        return False
    try:
        assignment = response["assignment"]
        violations = response["violations"]
        similarity = response["similarity"]
        exact = bool(response["exact"])
        approximate = bool(response["approximate"])
    except KeyError:
        return False
    if exact == approximate:
        return False
    if not exact_iff_zero and not exact:
        exact = violations == 0  # only the implication is owed
    return answer_ok(mirror, assignment, violations, similarity, exact)


def hit_matches_miss(
    hit: Mapping[str, Any],
    hit_order: Sequence[int],
    miss: Mapping[str, Any],
    miss_order: Sequence[int],
) -> bool:
    """A cache hit must return the stored miss, translated between numberings.

    ``order[k]`` is the data variable the requester called ``k``; position
    ``k`` of each assignment therefore names an object of data variable
    ``order[k]``, and the two answers must agree per data variable.
    """
    if hit.get("violations") != miss.get("violations"):
        return False
    by_variable_hit = dict(zip(hit_order, hit.get("assignment", ())))
    by_variable_miss = dict(zip(miss_order, miss.get("assignment", ())))
    return by_variable_hit == by_variable_miss


def join_ok(result: Iterable[Sequence[int]], oracle: set) -> bool:
    """An exact join must return exactly the oracle's solution set."""
    tuples = [tuple(int(v) for v in row) for row in result]
    return len(tuples) == len(set(tuples)) and set(tuples) == oracle
