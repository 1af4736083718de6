"""LRU solution cache keyed by a canonical query signature.

Two solve requests deserve the same cached answer whenever their labelled
query graphs are *isomorphic*: the same datasets joined by the same
predicates, regardless of how the client numbered its variables.  A chain
``A–B–C`` submitted as variables ``(0,1,2)`` or ``(2,1,0)`` is one query.

:func:`canonical_query_key` computes a canonical serialisation of the
labelled graph plus the variable *order* that produced it, by colour
refinement (labels + degrees, iterated over neighbour multisets) followed
by a bounded brute-force minimisation inside the remaining colour classes.
When the ambiguity exceeds :data:`MAX_ORDERINGS` permutations, the
function falls back to a deterministic-but-not-canonical order — the key
is then still *sound* (equal keys always describe isomorphic queries,
because the key serialises the full relabelled graph) but isomorphic
requests submitted under different numberings may miss.

The cache stores assignments in canonical variable order, so a hit under a
different numbering is translated back through the requester's order — the
cached tuple is never returned raw.
"""

from __future__ import annotations

import itertools
import json
from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Any, Callable, Sequence

from ..core.budget import Stopwatch
from ..query.graph import QueryGraph
from .protocol import ok_response

__all__ = [
    "MAX_ORDERINGS",
    "canonical_query_key",
    "solve_cache_key",
    "CacheEntry",
    "SolutionCache",
]

#: cap on permutations tried when colour refinement leaves ambiguity
MAX_ORDERINGS = 720


def _predicate_token(predicate: Any) -> str:
    """A stable string for one predicate, including parameters."""
    distance = getattr(predicate, "distance", None)
    if distance is not None:
        return f"{predicate.name}:{distance!r}"
    return str(predicate.name)


def _refine_colors(query: QueryGraph, labels: Sequence[str]) -> list[int]:
    """Stable colour classes from labels, degrees and neighbour multisets."""
    n = query.num_variables
    signatures: list[Any] = [(labels[i], query.degree(i)) for i in range(n)]
    ranking = {s: r for r, s in enumerate(sorted(set(signatures)))}
    colors = [ranking[s] for s in signatures]
    for _ in range(n):
        signatures = [
            (
                colors[i],
                tuple(
                    sorted(
                        (_predicate_token(predicate), colors[j])
                        for j, predicate in query.neighbors(i).items()
                    )
                ),
            )
            for i in range(n)
        ]
        ranking = {s: r for r, s in enumerate(sorted(set(signatures)))}
        refined = [ranking[s] for s in signatures]
        if refined == colors:
            break
        colors = refined
    return colors


def _serialize(
    query: QueryGraph, labels: Sequence[str], order: Sequence[int]
) -> str:
    """The labelled graph relabelled through ``order``, as a JSON string.

    ``order[k]`` is the original variable at canonical position ``k``.
    Equal serialisations imply isomorphism: the composed permutation of the
    two orders maps one query onto the other, labels and predicates intact.
    """
    position = {variable: k for k, variable in enumerate(order)}
    edges = []
    for i, j, _predicate in query.edges():
        a, b = position[i], position[j]
        if a > b:
            a, b = b, a
        # predicate oriented from canonical position a to canonical position b
        oriented = query.predicate(order[a], order[b])
        edges.append((a, b, _predicate_token(oriented)))
    payload = {
        "labels": [labels[variable] for variable in order],
        "edges": sorted(edges),
    }
    return json.dumps(payload, separators=(",", ":"))


def canonical_query_key(
    query: QueryGraph,
    labels: Sequence[str],
    max_orderings: int = MAX_ORDERINGS,
) -> tuple[str, tuple[int, ...]]:
    """``(signature, order)`` for a labelled query graph.

    ``signature`` is identical for isomorphic ``(query, labels)`` pairs
    (within the :data:`MAX_ORDERINGS` search bound) and never identical for
    non-isomorphic ones.  ``order`` maps canonical position → original
    variable; cached assignments are stored in canonical order and
    translated through it on both store and hit.
    """
    if len(labels) != query.num_variables:
        raise ValueError(
            f"{query.num_variables} variables but {len(labels)} labels"
        )
    if len(set(labels)) == len(labels):
        # distinct labels leave no ambiguity: refinement would rank the
        # variables by label and stop, so that order is taken directly
        order = tuple(sorted(range(len(labels)), key=labels.__getitem__))
        return _serialize(query, labels, order), order
    colors = _refine_colors(query, labels)
    groups: dict[int, list[int]] = {}
    for variable, color in enumerate(colors):
        groups.setdefault(color, []).append(variable)
    ordered_groups = [groups[color] for color in sorted(groups)]
    ambiguity = 1
    for group in ordered_groups:
        for k in range(2, len(group) + 1):
            ambiguity *= k
            if ambiguity > max_orderings:
                break
        if ambiguity > max_orderings:
            break
    if ambiguity > max_orderings:
        # sound fallback: deterministic order, exact-resubmission hits only
        order = tuple(
            variable
            for group in ordered_groups
            for variable in group
        )
        return _serialize(query, labels, order), order
    best_order: tuple[int, ...] | None = None
    best_signature: str | None = None
    for arrangement in itertools.product(
        *(itertools.permutations(group) for group in ordered_groups)
    ):
        order = tuple(itertools.chain.from_iterable(arrangement))
        signature = _serialize(query, labels, order)
        if best_signature is None or signature < best_signature:
            best_signature = signature
            best_order = order
    assert best_signature is not None and best_order is not None
    return best_signature, best_order


def solve_cache_key(
    signature: str,
    algorithm: str,
    seed: int,
    restarts: int,
    deadline: float | None,
    max_iterations: int | None,
) -> str:
    """The full cache key: query signature plus every result-shaping knob."""
    return json.dumps(
        {
            "q": signature,
            "alg": algorithm,
            "seed": seed,
            "restarts": restarts,
            "deadline": deadline,
            "iters": max_iterations,
        },
        separators=(",", ":"),
        sort_keys=True,
    )


@dataclass
class CacheEntry:
    """One cached solve outcome, assignment in canonical variable order."""

    assignment: tuple[int, ...]
    violations: int
    similarity: float
    iterations: int
    elapsed: float
    algorithm: str
    stored_at: float = 0.0
    hits: int = field(default=0)
    #: canonical query signature, for the near-miss warm-start tier
    signature: str = ""
    #: the exactness the miss reported, replayed by every hit; ``None``
    #: means the single-server reading, ``violations == 0``
    exact: bool | None = None

    def __post_init__(self) -> None:
        if self.exact is None:
            self.exact = self.violations == 0

    def assignment_for(self, order: Sequence[int]) -> list[int]:
        """The assignment translated into a requester's variable numbering.

        ``order[k]`` is the requester's variable at canonical position
        ``k``; position ``k`` of the cached assignment therefore lands on
        requester variable ``order[k]``.
        """
        assignment = [0] * len(self.assignment)
        for position, variable in enumerate(order):
            assignment[variable] = self.assignment[position]
        return assignment

    def hit_response(
        self,
        request_id: str,
        order: Sequence[int],
        *,
        seed: int,
        restarts: int,
        **extra: Any,
    ) -> dict[str, Any]:
        """The ``solve`` reply a cache hit sends, in the requester's numbering.

        ``extra`` carries endpoint-specific blocks (the router's ``fleet``).
        """
        return ok_response(
            request_id,
            "solve",
            cached=True,
            assignment=self.assignment_for(order),
            violations=self.violations,
            similarity=self.similarity,
            exact=self.exact,
            approximate=not self.exact,
            iterations=self.iterations,
            elapsed=self.elapsed,
            algorithm=self.algorithm,
            seed=seed,
            restarts=restarts,
            recovered=False,
            **extra,
        )

    @classmethod
    def from_result(
        cls,
        assignment: Sequence[int],
        order: Sequence[int],
        violations: int,
        similarity: float,
        iterations: int,
        elapsed: float,
        algorithm: str,
        signature: str = "",
        exact: bool | None = None,
    ) -> "CacheEntry":
        """Build an entry from a result in the requester's numbering.

        ``exact`` is the flag the miss reported; it defaults to
        ``violations == 0``, which is what a single server reports.  A
        fleet merge can find a zero-violation tuple yet stay approximate.
        """
        canonical = tuple(assignment[variable] for variable in order)
        return cls(
            assignment=canonical,
            violations=violations,
            similarity=similarity,
            iterations=iterations,
            elapsed=elapsed,
            algorithm=algorithm,
            signature=signature,
            exact=exact,
        )


class SolutionCache:
    """An LRU cache with hit/miss accounting.

    ``clock`` is any monotonic ``() -> float`` stamping stores (the
    near-miss tier breaks ties to the newest); tests inject a fake,
    production uses a :class:`~repro.core.budget.Stopwatch` started at
    construction.
    """

    def __init__(
        self,
        capacity: int = 256,
        clock: Callable[[], float] | None = None,
    ) -> None:
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        self.capacity = capacity
        self._clock = clock if clock is not None else Stopwatch().elapsed
        self._entries: OrderedDict[str, CacheEntry] = OrderedDict()
        #: signature → keys of live entries carrying it (near-miss tier)
        self._by_signature: dict[str, set[str]] = {}
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self.near_hits = 0
        self.near_misses = 0

    def __len__(self) -> int:
        return len(self._entries)

    def _forget_signature(self, key: str, entry: CacheEntry) -> None:
        keys = self._by_signature.get(entry.signature)
        if keys is not None:
            keys.discard(key)
            if not keys:
                del self._by_signature[entry.signature]

    def get(self, key: str) -> CacheEntry | None:
        """The entry under ``key`` or ``None``."""
        entry = self._entries.get(key)
        if entry is None:
            self.misses += 1
            return None
        self._entries.move_to_end(key)
        self.hits += 1
        entry.hits += 1
        return entry

    def get_near(self, signature: str) -> CacheEntry | None:
        """The best live entry for an isomorphic query, regardless of knobs.

        This is the warm-start tier: an exact miss whose canonical
        *signature* matches a cached solve (same labelled query graph up to
        variable renumbering, but a different seed / budget / algorithm)
        returns that entry so its assignment can seed the new search.  Best
        = fewest violations, ties to the most recently stored.  Tracked by
        ``near_hits``/``near_misses``, separate from the exact counters.
        """
        best_entry: CacheEntry | None = None
        for key in sorted(self._by_signature.get(signature, ())):
            entry = self._entries.get(key)
            if entry is None:
                continue
            if (
                best_entry is None
                or entry.violations < best_entry.violations
                or (
                    entry.violations == best_entry.violations
                    and entry.stored_at > best_entry.stored_at
                )
            ):
                best_entry = entry
        if best_entry is None:
            self.near_misses += 1
            return None
        self.near_hits += 1
        return best_entry

    def put(self, key: str, entry: CacheEntry) -> None:
        """Insert (or refresh) ``entry`` under ``key``; evicts the LRU tail."""
        entry.stored_at = self._clock()
        previous = self._entries.get(key)
        if previous is not None:
            self._forget_signature(key, previous)
        self._entries[key] = entry
        self._entries.move_to_end(key)
        if entry.signature:
            self._by_signature.setdefault(entry.signature, set()).add(key)
        while len(self._entries) > self.capacity:
            evicted_key, evicted = self._entries.popitem(last=False)
            self._forget_signature(evicted_key, evicted)
            self.evictions += 1

    def clear(self) -> None:
        self._entries.clear()
        self._by_signature.clear()

    def stats(self) -> dict[str, int]:
        """Counter snapshot for the server's ``stats`` op."""
        return {
            "size": len(self._entries),
            "capacity": self.capacity,
            "hits": self.hits,
            "misses": self.misses,
            "evictions": self.evictions,
            "near_hits": self.near_hits,
            "near_misses": self.near_misses,
        }

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"SolutionCache(size={len(self)}/{self.capacity}, "
            f"hits={self.hits}, misses={self.misses})"
        )
