"""Query graphs for multiway spatial joins.

A multiway spatial join over ``n`` datasets is a graph whose nodes are the
join variables (one per dataset) and whose edges carry binary spatial
predicates — equivalently, a binary constraint network [DM94].  The paper's
experiments use the two extremes of constrainedness: *chains* (acyclic, most
under-constrained) and *cliques* (most over-constrained); this module also
provides cycles, stars and random connected graphs for the wider test suite.

Edges may be asymmetric (e.g. ``inside``): ``add_edge(i, j, p)`` records that
``p.test(r_i, r_j)`` must hold; the view from ``j`` uses ``p.inverse()``.
"""

from __future__ import annotations

import itertools
import random
from typing import Callable, Iterator

from ..geometry import INTERSECTS, SpatialPredicate

__all__ = ["QueryGraph", "QUERY_BUILDERS"]


class QueryGraph:
    """An undirected, predicate-labelled query graph on ``n`` variables."""

    def __init__(self, num_variables: int) -> None:
        if num_variables < 2:
            raise ValueError(
                f"a join needs at least 2 variables, got {num_variables}"
            )
        self.num_variables = num_variables
        # canonical storage: key (i, j) with i < j, value = predicate oriented
        # such that predicate.test(r_i, r_j) must hold
        self._edges: dict[tuple[int, int], SpatialPredicate] = {}
        # adjacency: _neighbors[i] = {j: predicate oriented from i}
        self._neighbors: list[dict[int, SpatialPredicate]] = [
            {} for _ in range(num_variables)
        ]

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    def add_edge(
        self, i: int, j: int, predicate: SpatialPredicate = INTERSECTS
    ) -> "QueryGraph":
        """Add the join condition ``predicate(r_i, r_j)``; returns ``self``.

        Re-adding an existing edge overwrites its predicate.
        """
        self._check_variable(i)
        self._check_variable(j)
        if i == j:
            raise ValueError(f"self-loop on variable {i} is not a join condition")
        if i < j:
            self._edges[(i, j)] = predicate
        else:
            self._edges[(j, i)] = predicate.inverse()
        self._neighbors[i][j] = predicate
        self._neighbors[j][i] = predicate.inverse()
        return self

    def _check_variable(self, index: int) -> None:
        if not 0 <= index < self.num_variables:
            raise ValueError(
                f"variable {index} out of range [0, {self.num_variables})"
            )

    # ------------------------------------------------------------------
    # named topologies
    # ------------------------------------------------------------------
    @classmethod
    def chain(
        cls, num_variables: int, predicate: SpatialPredicate = INTERSECTS
    ) -> "QueryGraph":
        """``v0 — v1 — … — v(n-1)``: the paper's under-constrained extreme."""
        graph = cls(num_variables)
        for i in range(num_variables - 1):
            graph.add_edge(i, i + 1, predicate)
        return graph

    @classmethod
    def cycle(
        cls, num_variables: int, predicate: SpatialPredicate = INTERSECTS
    ) -> "QueryGraph":
        """A chain closed back onto its first variable."""
        if num_variables < 3:
            raise ValueError(f"a cycle needs at least 3 variables, got {num_variables}")
        graph = cls.chain(num_variables, predicate)
        graph.add_edge(num_variables - 1, 0, predicate)
        return graph

    @classmethod
    def clique(
        cls, num_variables: int, predicate: SpatialPredicate = INTERSECTS
    ) -> "QueryGraph":
        """All pairs joined: the paper's over-constrained extreme."""
        graph = cls(num_variables)
        for i, j in itertools.combinations(range(num_variables), 2):
            graph.add_edge(i, j, predicate)
        return graph

    @classmethod
    def star(
        cls,
        num_variables: int,
        center: int = 0,
        predicate: SpatialPredicate = INTERSECTS,
    ) -> "QueryGraph":
        """All variables joined to one hub (an acyclic topology)."""
        graph = cls(num_variables)
        graph._check_variable(center)
        for i in range(num_variables):
            if i != center:
                graph.add_edge(center, i, predicate)
        return graph

    @classmethod
    def random_connected(
        cls,
        num_variables: int,
        num_edges: int,
        rng: random.Random,
        predicate: SpatialPredicate = INTERSECTS,
    ) -> "QueryGraph":
        """A uniformly random connected graph with exactly ``num_edges`` edges.

        Built from a random spanning tree (guaranteeing connectivity) plus
        random extra edges.  ``num_edges`` must lie in
        ``[n-1, n·(n-1)/2]``.
        """
        minimum = num_variables - 1
        maximum = num_variables * (num_variables - 1) // 2
        if not minimum <= num_edges <= maximum:
            raise ValueError(
                f"num_edges must be in [{minimum}, {maximum}], got {num_edges}"
            )
        graph = cls(num_variables)
        order = list(range(num_variables))
        rng.shuffle(order)
        for position in range(1, num_variables):
            attach_to = order[rng.randrange(position)]
            graph.add_edge(order[position], attach_to, predicate)
        remaining = [
            (i, j)
            for i, j in itertools.combinations(range(num_variables), 2)
            if (i, j) not in graph._edges
        ]
        rng.shuffle(remaining)
        for i, j in remaining[: num_edges - minimum]:
            graph.add_edge(i, j, predicate)
        return graph

    # ------------------------------------------------------------------
    # inspection
    # ------------------------------------------------------------------
    @property
    def num_edges(self) -> int:
        return len(self._edges)

    def edges(self) -> Iterator[tuple[int, int, SpatialPredicate]]:
        """All join conditions as ``(i, j, predicate)`` with ``i < j``."""
        for (i, j), predicate in sorted(self._edges.items()):
            yield i, j, predicate

    def has_edge(self, i: int, j: int) -> bool:
        return j in self._neighbors[i]

    def predicate(self, i: int, j: int) -> SpatialPredicate:
        """The predicate oriented from ``i`` to ``j`` (KeyError when absent)."""
        return self._neighbors[i][j]

    def neighbors(self, i: int) -> dict[int, SpatialPredicate]:
        """``{j: predicate oriented from i}`` for all join partners of ``i``."""
        return self._neighbors[i]

    def degree(self, i: int) -> int:
        return len(self._neighbors[i])

    def is_connected(self) -> bool:
        """Connectivity check (disconnected queries are Cartesian products)."""
        seen = {0}
        frontier = [0]
        while frontier:
            node = frontier.pop()
            for neighbor in self._neighbors[node]:
                if neighbor not in seen:
                    seen.add(neighbor)
                    frontier.append(neighbor)
        return len(seen) == self.num_variables

    def is_acyclic(self) -> bool:
        """True for trees (and forests): ``E = n - #components`` and no cycle."""
        parent = list(range(self.num_variables))

        def find(x: int) -> int:
            while parent[x] != x:
                parent[x] = parent[parent[x]]
                x = parent[x]
            return x

        for i, j, _predicate in self.edges():
            root_i, root_j = find(i), find(j)
            if root_i == root_j:
                return False
            parent[root_i] = root_j
        return True

    def is_clique(self) -> bool:
        return self.num_edges == self.num_variables * (self.num_variables - 1) // 2

    def all_intersects(self) -> bool:
        """True when every predicate is plain ``intersects`` (the default)."""
        return all(p == INTERSECTS for _i, _j, p in self.edges())

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"QueryGraph(n={self.num_variables}, edges={self.num_edges})"


#: the named topologies, keyed by the name the CLI's ``--query`` takes
QUERY_BUILDERS: dict[str, Callable[[int], QueryGraph]] = {
    "chain": QueryGraph.chain,
    "clique": QueryGraph.clique,
    "cycle": QueryGraph.cycle,
    "star": QueryGraph.star,
}
