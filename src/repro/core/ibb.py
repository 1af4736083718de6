"""Indexed Branch and Bound (IBB) — the systematic algorithm of §6.

A Window-Reduction [PMT99] variant that retrieves the *best* (not only
exact) solutions: variables are instantiated depth-first; candidate values
for each variable are enumerated through index window queries (a window
already asked in the run is answered by :class:`WindowMemo`) in decreasing
order of the number of join conditions they satisfy with respect to the
already-instantiated variables; a partial solution is abandoned only when
its accumulated violations can no longer lead to a solution strictly better
than the incumbent (optimistically assuming zero future violations).

IBB is complete: run to exhaustion it provably returns an optimal solution.
Its practical role in the paper is the *two-step* methods — seeding the
incumbent with a heuristic's solution (ILS or SEA) shrinks the search space
by orders of magnitude (Figure 11).
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import mul
from typing import Iterator

import numpy as np

from ..index.queries import search_windows
from ..index.stats import index_work_since, node_reads_probe, snapshot_trees
from ..obs import current
from ..query import ProblemInstance
from .budget import Budget
from .evaluator import QueryEvaluator
from .result import RunResult

__all__ = [
    "IBBConfig",
    "WindowMemo",
    "indexed_branch_and_bound",
    "connectivity_order",
    "neighbors_earlier_in",
]

#: window hit lists one memo keeps; the oldest is forgotten first, so a long
#: run stays flat in memory
WINDOW_KEYS = 4096


@dataclass
class IBBConfig:
    """IBB knobs.

    ``stop_at_violations`` ends the search as soon as the incumbent is at
    least this good — 0 (the default) stops at the first exact solution,
    which is also the provable optimum.  Set it to -1 to force exhaustion
    even after an exact solution is found (useful to prove uniqueness).
    """

    stop_at_violations: int = 0
    use_connectivity_order: bool = True


def indexed_branch_and_bound(
    instance: ProblemInstance,
    budget: Budget | None = None,
    initial_bound: int | None = None,
    initial_assignment: tuple[int, ...] | None = None,
    config: IBBConfig | None = None,
    evaluator: QueryEvaluator | None = None,
) -> RunResult:
    """Run IBB; one budget *iteration* = one search-node expansion.

    Parameters
    ----------
    initial_bound:
        Incumbent violation count to start from — the "target similarity"
        the two-step methods obtain from a heuristic.  ``None`` starts
        unbounded (the paper's plain-IBB baseline).
    initial_assignment:
        The solution realising ``initial_bound`` (returned unchanged if
        nothing better is found).

    The result's ``stats['proven_optimal']`` is True when the search space
    was exhausted or an exact solution was found.
    """
    config = config or IBBConfig()
    evaluator = evaluator or QueryEvaluator(instance)
    budget = budget or Budget.iterations(10**12)
    obs = current()
    tree_baseline = snapshot_trees(evaluator.trees)
    probe = node_reads_probe(evaluator.trees)
    budget.start()

    num_variables = evaluator.num_variables
    if config.use_connectivity_order:
        order = connectivity_order(evaluator)
    else:
        order = list(range(num_variables))

    # incumbent: strictly fewer violations than this are searched for
    if initial_bound is not None:
        if initial_assignment is None or len(initial_assignment) != num_variables:
            raise ValueError("initial_bound requires a matching initial_assignment")
        incumbent_violations = initial_bound
        incumbent_values: tuple[int, ...] | None = tuple(initial_assignment)
    else:
        incumbent_violations = evaluator.num_constraints + 1
        incumbent_values = None

    trace = obs.convergence_trace()
    nodes_expanded = 0
    exhausted_cleanly = True
    values = [0] * num_variables
    memo = WindowMemo(evaluator, order)

    def record_incumbent(violations: int) -> None:
        nonlocal incumbent_violations, incumbent_values
        incumbent_violations = violations
        incumbent_values = tuple(values)
        trace.record(
            budget.elapsed(),
            nodes_expanded,
            violations,
            evaluator.similarity(violations),
        )

    class _Stop(Exception):
        pass

    def descend(depth: int, partial_violations: int) -> None:
        nonlocal nodes_expanded, exhausted_cleanly
        if partial_violations >= incumbent_violations:
            return
        if depth == num_variables:
            record_incumbent(partial_violations)
            if incumbent_violations <= config.stop_at_violations:
                raise _Stop
            return
        variable = order[depth]
        edges = memo.edges[depth]
        for object_id, satisfied in memo.candidates(depth, values):
            # check before counting: the k-th counted candidate is expanded
            if budget.exhausted():
                exhausted_cleanly = False
                raise _Stop
            nodes_expanded += 1
            budget.tick()
            added_violations = len(edges) - satisfied
            if partial_violations + added_violations >= incumbent_violations:
                # candidates come in decreasing-satisfied order: stop here
                return
            values[variable] = object_id
            descend(depth + 1, partial_violations + added_violations)

    with obs.span("ibb.run", io=probe):
        try:
            descend(0, 0)
        except _Stop:
            pass
    obs.counter("ibb.nodes_expanded").inc(nodes_expanded)
    index_work = index_work_since(evaluator.trees, tree_baseline)
    obs.absorb_index_work(index_work)

    proven = exhausted_cleanly or incumbent_violations == 0
    if incumbent_values is None:
        # nothing completed within the budget; fall back to a trivial tuple
        incumbent_values = tuple(0 for _ in range(num_variables))
        incumbent_violations = evaluator.count_violations(incumbent_values)
        proven = False
    return RunResult(
        algorithm="IBB",
        best_assignment=incumbent_values,
        best_violations=incumbent_violations,
        best_similarity=evaluator.similarity(incumbent_violations),
        elapsed=budget.elapsed(),
        iterations=nodes_expanded,
        milestones=nodes_expanded,
        trace=trace,
        stats={
            "nodes_expanded": nodes_expanded,
            "proven_optimal": proven,
            "index": index_work,
            "windows": memo.stats(),
        },
    )


class WindowMemo:
    """What one IBB run's window queries have answered.

    Depth ``d`` of the search asks, for its variable ``v = order[d]``, which
    objects each instantiated partner's window hits, and counts the hits per
    object.  The hits of "``v``'s tree under the window of partner ``j``
    holding object ``o``" are the same every time they are asked, so each is
    one real single-window query the first time and a memo lookup after (an
    empty hit list is kept too: a certificate that the window holds nothing).
    Siblings — the calls of one depth while only the parent ``order[d - 1]``
    changes value — share every other edge, so each depth also keeps the
    summed counts of its shared edges, valid while their partners' objects
    stay put.  A sibling then costs its parent edge's lookup, or one
    single-window query, instead of a ``len(edges)``-window descent.

    The candidate sequence depends on the per-object counts alone, so it is
    the one a fresh descent over all windows gives; only the index work
    charged falls.  ``asked`` counts the windows a fresh enumeration would
    query, ``answered`` those served without a query.

    The memo lives for one run and keeps at most ``WINDOW_KEYS`` hit lists.
    It stores numbers only — int keys, int64 hit arrays, int → int count
    dicts — so it holds nothing the cyclic garbage collector tracks.
    """

    __slots__ = (
        "order", "edges", "_trees", "_columns", "_sizes", "_num_variables",
        "_parents", "_shared", "_shared_partners", "_strides",
        "_hits", "_shared_keys", "_shared_counts", "asked", "answered",
    )

    def __init__(self, evaluator: QueryEvaluator, order: list[int]) -> None:
        self.order = order
        #: per depth: the ``(j, predicate)`` partners instantiated before it
        self.edges = neighbors_earlier_in(order, evaluator)
        self._trees = evaluator.trees
        self._columns = evaluator.columns
        self._sizes = [len(evaluator.columns[variable]) for variable in order]
        self._num_variables = evaluator.num_variables
        #: per depth: the parent's edge (the one siblings differ in), if any,
        #: and the shared edges — with mixed-radix strides (digit base: the
        #: partner's dataset size) making their partners' objects one int key
        self._parents: list[tuple | None] = []
        self._shared: list[list[tuple]] = []
        self._shared_partners: list[tuple[int, ...]] = []
        self._strides: list[tuple[int, ...]] = []
        for depth, edges in enumerate(self.edges):
            parent = order[depth - 1] if depth else -1
            self._parents.append(next((edge for edge in edges if edge[0] == parent), None))
            shared = [edge for edge in edges if edge[0] != parent]
            strides, stride = [], 1
            for j, _predicate in shared:
                strides.append(stride)
                stride *= len(evaluator.columns[j])
            self._shared.append(shared)
            self._shared_partners.append(tuple(j for j, _predicate in shared))
            self._strides.append(tuple(strides))
        #: ``variable + V·(j + V·o)`` → the objects ``variable``'s tree holds
        #: under partner ``j``'s window when ``j`` holds object ``o``
        self._hits: dict[int, np.ndarray] = {}
        #: per depth: the key of the shared partners' objects its counts are for
        self._shared_keys = [-1] * len(order)
        #: per depth: object id → number of shared edges it satisfies
        self._shared_counts: list[dict[int, int]] = [{} for _ in order]
        self.asked = 0
        self.answered = 0

    def candidates(self, depth: int, values: list[int]) -> Iterator[tuple[int, int]]:
        """Candidate values for ``order[depth]`` under the instantiated
        prefix ``values``, best first.

        Yields ``(object_id, satisfied)`` in decreasing ``satisfied`` order,
        ties by object id, where ``satisfied`` counts the conditions held
        against the partners in ``edges[depth]``; objects matching no window
        form the implicit 0-bucket and are enumerated last (they are reached
        only when the bound still allows ``len(edges)`` extra violations).
        """
        edges = self.edges[depth]
        dataset_size = self._sizes[depth]
        if not edges:
            for object_id in range(dataset_size):
                yield object_id, 0
            return
        self.asked += len(edges)
        counts = self._shared_counts_at(depth, values)
        parent = self._parents[depth]
        if parent is not None:
            counts = dict(counts)
            j, predicate = parent
            for object_id in self._hits_of(depth, j, predicate, values[j]).tolist():
                counts[object_id] = counts.get(object_id, 0) + 1
        # rank by (missed edges, object id), packed into one int per object
        top = len(edges)
        for rank in sorted([(top - satisfied) * dataset_size + object_id
                            for object_id, satisfied in counts.items()]):
            missed, object_id = divmod(rank, dataset_size)
            yield object_id, top - missed
        # 0-bucket: everything the windows never hit
        for object_id in range(dataset_size):
            if object_id not in counts:
                yield object_id, 0

    def _shared_counts_at(self, depth: int, values: list[int]) -> dict[int, int]:
        """The summed hits of ``depth``'s shared edges under ``values``."""
        shared = self._shared[depth]
        partners = self._shared_partners[depth]
        key = sum(map(mul, map(values.__getitem__, partners), self._strides[depth]))
        if key == self._shared_keys[depth]:
            self.answered += len(shared)
            return self._shared_counts[depth]
        counts: dict[int, int] = {}
        for j, predicate in shared:
            for object_id in self._hits_of(depth, j, predicate, values[j]).tolist():
                counts[object_id] = counts.get(object_id, 0) + 1
        self._shared_keys[depth] = key
        self._shared_counts[depth] = counts
        return counts

    def _hits_of(self, depth: int, j: int, predicate, object_id: int) -> np.ndarray:
        """The objects of ``order[depth]`` that ``predicate`` holds against
        partner ``j``'s object ``object_id``: from the memo, or one query."""
        variable = self.order[depth]
        key = variable + self._num_variables * (j + self._num_variables * object_id)
        hits = self._hits.get(key)
        if hits is not None:
            self.answered += 1
            return hits
        items, _satisfied = search_windows(
            self._trees[variable], [(predicate, self._columns[j].rect(object_id))]
        )
        hits = np.array(items, dtype=np.int64)
        if len(self._hits) >= WINDOW_KEYS:
            del self._hits[next(iter(self._hits))]
        self._hits[key] = hits
        return hits

    def stats(self) -> dict[str, int]:
        """Windows asked, and answered without a query."""
        return {"asked": self.asked, "answered": self.answered}


def neighbors_earlier_in(order: list[int], evaluator: QueryEvaluator) -> list[list[tuple]]:
    """Per depth ``d``: the ``(j, predicate)`` join partners of ``order[d]``
    that come before it in ``order`` — instantiated when it gets its value."""
    position_of = {variable: depth for depth, variable in enumerate(order)}
    return [
        [
            (j, predicate)
            for j, predicate in evaluator.neighbors[variable]
            if position_of[j] < position_of[variable]
        ]
        for variable in order
    ]


def connectivity_order(evaluator: QueryEvaluator) -> list[int]:
    """Static variable order maximising early constraint propagation.

    Greedy: start from the highest-degree variable, then repeatedly append
    the unordered variable with the most edges into the ordered prefix
    (ties by total degree, then index).  For cliques any order is
    equivalent; for chains this yields an end-to-end sweep.
    """
    num_variables = evaluator.num_variables
    degrees = evaluator.degrees
    first = max(range(num_variables), key=lambda v: (degrees[v], -v))
    order = [first]
    chosen = {first}
    while len(order) < num_variables:
        best_variable = -1
        best_key: tuple[int, int, int] | None = None
        for variable in range(num_variables):
            if variable in chosen:
                continue
            into_prefix = sum(
                1 for j, _p in evaluator.neighbors[variable] if j in chosen
            )
            key = (-into_prefix, -degrees[variable], variable)
            if best_key is None or key < best_key:
                best_key = key
                best_variable = variable
        order.append(best_variable)
        chosen.add(best_variable)
    return order
