"""Brute-force multiway join — the test oracle.

Enumerates the full Cartesian product, so it is only usable on tiny
instances; every other join algorithm in the library is validated against
it.  Also provides the exhaustive *best-approximate* search used as the
oracle for IBB.

The execution plan is a *broadcast join* over the columnar kernels: each
query edge is materialised once as a boolean predicate matrix
(:func:`repro.geometry.kernels.pair_matrix`, itself parity-tested against
``predicate.test``), prefixes over the first ``n − 1`` variables are
enumerated in lexicographic order with O(1) matrix lookups, and the last
variable is resolved for a whole prefix in one vectorized conjunction.
"""

from __future__ import annotations

import itertools
from typing import Iterator

import numpy as np

from ..core.evaluator import QueryEvaluator
from ..geometry.kernels import pair_matrix
from ..query import ProblemInstance

__all__ = ["brute_force_join", "brute_force_best", "count_exact_solutions"]

#: refuse Cartesian products beyond this size (oracle misuse guard)
_MAX_TUPLES = 50_000_000


def _check_size(instance: ProblemInstance) -> None:
    total = 1
    for dataset in instance.datasets:
        total *= len(dataset)
        if total > _MAX_TUPLES:
            raise ValueError(
                f"brute force over > {_MAX_TUPLES} tuples; "
                "use WR/ST/PJM for instances this large"
            )


def _edge_matrices(instance: ProblemInstance) -> dict[tuple[int, int], np.ndarray]:
    """One boolean ``(Nᵢ, Nⱼ)`` predicate matrix per query edge, ``i < j``."""
    columns = [dataset.columns for dataset in instance.datasets]
    return {
        (i, j): pair_matrix(predicate, columns[i], columns[j])
        for i, j, predicate in instance.query.edges()
    }


def brute_force_join(
    instance: ProblemInstance,
    evaluator: QueryEvaluator | None = None,
) -> Iterator[tuple[int, ...]]:
    """Yield every exact solution of the join, in lexicographic order."""
    _check_size(instance)
    if evaluator is None:
        QueryEvaluator(instance)  # rejects disconnected query graphs
    matrices = _edge_matrices(instance)
    last = instance.num_variables - 1
    prefix_edges = [pair for pair in matrices if pair[1] < last]
    last_edges = [(i, matrices[(i, j)]) for (i, j) in matrices if j == last]
    prefix_domains = [range(len(dataset)) for dataset in instance.datasets[:-1]]
    for prefix in itertools.product(*prefix_domains):
        if any(not matrices[(i, j)][prefix[i], prefix[j]] for i, j in prefix_edges):
            continue
        if last_edges:
            mask = last_edges[0][1][prefix[last_edges[0][0]]]
            for i, matrix in last_edges[1:]:
                mask = mask & matrix[prefix[i]]
            for value in np.flatnonzero(mask):
                yield prefix + (int(value),)
        else:  # pragma: no cover - connected queries always reach the last var
            for value in range(len(instance.datasets[-1])):
                yield prefix + (value,)


def count_exact_solutions(
    instance: ProblemInstance,
    evaluator: QueryEvaluator | None = None,
) -> int:
    """Number of exact solutions (used to verify hard-region generation)."""
    return sum(1 for _ in brute_force_join(instance, evaluator))


def brute_force_best(
    instance: ProblemInstance,
    evaluator: QueryEvaluator | None = None,
) -> tuple[tuple[int, ...], int]:
    """The (lexicographically first) solution with minimum violations.

    The oracle for approximate retrieval: IBB run to exhaustion must match
    this violation count.
    """
    _check_size(instance)
    evaluator = evaluator or QueryEvaluator(instance)
    matrices = _edge_matrices(instance)
    last = instance.num_variables - 1
    prefix_edges = [pair for pair in matrices if pair[1] < last]
    last_edges = [(i, matrices[(i, j)]) for (i, j) in matrices if j == last]
    prefix_domains = [range(len(dataset)) for dataset in instance.datasets[:-1]]
    best_values: tuple[int, ...] | None = None
    best_violations = evaluator.num_constraints + 1
    for prefix in itertools.product(*prefix_domains):
        prefix_violations = sum(
            1 for i, j in prefix_edges if not matrices[(i, j)][prefix[i], prefix[j]]
        )
        if prefix_violations >= best_violations:
            continue  # the last variable can only add violations
        violations = np.full(
            len(instance.datasets[-1]), prefix_violations, dtype=np.intp
        )
        for i, matrix in last_edges:
            violations += ~matrix[prefix[i]]
        candidate = int(violations.min())
        if candidate < best_violations:
            best_violations = candidate
            best_values = prefix + (int(violations.argmin()),)
            if candidate == 0:
                break
    assert best_values is not None
    return best_values, best_violations
