"""*Find best value* — the multi-window branch-and-bound of Figure 5.

Given the variable being re-instantiated, the current rectangles of its join
partners act as query *windows*; the goal is the object in the variable's
R*-tree that satisfies the most join conditions (intersects the most
windows, for the default predicate).  The search descends the tree visiting
entries in decreasing order of the number of windows they (may) satisfy and
prunes any subtree whose count cannot strictly beat the best leaf score
found so far — "if an intermediate node satisfies the same or a smaller
number of conditions than maxConditions, it cannot contain any better
solution and is not visited".

This single routine powers all three heuristics:

* **ILS** re-instantiates its worst variable with the result,
* **GILS** does the same but scores leaves with the *effective* value
  ``satisfied − λ·penalty`` (the intermediate-node bound stays admissible
  because penalties are non-negative),
* **SEA** uses it as its mutation operator.

Since it is *the* hot loop of the whole library, it never touches a node
object: it descends the tree's packed read-side arrays
(:class:`~repro.index.packed.PackedTree`), scoring a node's entries — a
slice of one flat array — in one vectorized call, and the small upper levels
all at once.  :func:`brute_force_best_value` — a scalar scan through
``predicate.test`` that shares no code with the search — is the oracle the
property suite checks it against.

A search run asks the same probe many times — GILS re-asks after every
penalty step, SEA's members share values — so the heuristics send their
probes through one :class:`ProbeMemo` per run, which answers a probe
without a descent whenever an earlier one already proved the answer.
"""

from __future__ import annotations

import math
from operator import mul
from typing import TYPE_CHECKING, Any, Callable, Sequence

import numpy as np

from ..geometry import Rect, SpatialPredicate
from ..index import RStarTree
from ..obs import current

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, types only
    from .evaluator import QueryEvaluator
    from .penalties import PenaltyTable
    from .solution import SolutionState

__all__ = ["BestValue", "ProbeMemo", "find_best_value", "brute_force_best_value"]

#: probe keys one memo keeps; the oldest is forgotten first, so a long
#: time-budgeted run stays flat in memory
MEMO_KEYS = 4096
#: longest plateau list kept; a failed descent that scored more entries
#: than this leaves only its failure certificate
PLATEAU_LIMIT = 64


class BestValue:
    """Outcome of a successful search: the new object and its scores."""

    __slots__ = ("item", "rect", "satisfied", "score")

    def __init__(self, item: Any, rect: Rect, satisfied: int, score: float):
        self.item = item
        self.rect = rect
        #: number of join conditions the object satisfies
        self.satisfied = satisfied
        #: effective score (``satisfied`` minus any penalty contribution)
        self.score = score

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"BestValue(item={self.item!r}, satisfied={self.satisfied}, "
            f"score={self.score})"
        )


def find_best_value(
    tree: RStarTree,
    constraints: list[tuple[SpatialPredicate, Rect]],
    floor_score: float,
    penalty: Callable[[Any], float] | None = None,
) -> BestValue | None:
    """Best object of ``tree`` under the multi-window criterion.

    Branch-and-bound over the packed arrays: one kernel call scores a whole
    node (an entry range).  Entries are visited in decreasing count order,
    ties in entry order, and a subtree is entered only while its count
    strictly beats the best leaf score so far — re-checked when its turn
    comes, because a sibling may have raised the bound meanwhile.  Scoring
    does not depend on the bound, so the BFS prefix of small upper levels is
    scored in a single call up front and the descent replays from those
    counts; ``node_reads`` / ``leaf_reads`` and buffer-pool accesses are
    charged per node *visited*, exactly as a node-at-a-time walk would.

    Parameters
    ----------
    constraints:
        ``(predicate, window)`` pairs: the join conditions incident to the
        variable being re-instantiated, with predicates oriented
        candidate→window.
    floor_score:
        Only results with ``score > floor_score`` are returned — callers
        pass the current assignment's (effective) score, so ``None`` means
        "no strictly better value exists" and the variable keeps its value.
    penalty:
        Optional GILS hook mapping an object id to its penalty contribution
        ``λ·penalty(v←r)``; leaf scores become ``satisfied − penalty(item)``.

    Returns ``None`` when no object beats ``floor_score`` (in particular
    when ``constraints`` is empty, since no object can then improve
    anything).
    """
    if not constraints:
        return None
    won = _descend(tree, constraints, floor_score, penalty, None)
    return None if won is None else _best_value(tree, *won)


def _best_value(tree: RStarTree, entry: int, satisfied: int, score: float) -> BestValue:
    """The :class:`BestValue` of the leaf entry at packed position ``entry``."""
    rect, item = tree.packed().entry(entry)
    return BestValue(item, rect, satisfied, score)


def _descend(
    tree: RStarTree,
    constraints: list[tuple[SpatialPredicate, Rect]],
    floor_score: float,
    penalty: Callable[[Any], float] | None,
    plateau: list[int] | None,
) -> tuple[int, int, float] | None:
    """The descent of :func:`find_best_value` (``constraints`` non-empty):
    the winner's packed entry position, satisfied count and score.

    With a penalty and a ``plateau`` list, every leaf entry the descent
    scores is appended to it as ``count, entry`` in visit order until the
    first one beats the floor.  So when the descent fails, the list holds
    every entry whose count exceeds ``floor_score``, in the order any later
    descent on the same windows would score them.
    """
    stats = tree.stats
    stats.best_value_searches += 1
    packed = tree.packed()
    offsets = packed.offsets
    if not offsets[1]:
        return None
    leaf_score, inner_score = packed.scorers(constraints)
    levels = packed.levels
    first_child = packed.first_child
    prefix_nodes = packed.prefix_nodes
    prefix_counts: list[int] = []
    if prefix_nodes:
        prefix_counts = packed.prefix_counts(leaf_score, inner_score).tolist()
    pager = tree.pager
    if pager is not None:
        obs = current()
        buffer_hits = obs.counter("index.buffer.hit")
        buffer_misses = obs.counter("index.buffer.miss")
        page_base = id(packed)

    best_entry = -1
    best_satisfied = 0
    best_score = floor_score
    node_reads = leaf_reads = 0
    # depth-first with an explicit stack of (count, −node): a node's entries
    # are pushed in increasing count order, equal counts last-entry-first, so
    # they pop highest count first and equal counts in entry order — the
    # first-found winner is deterministic
    stack: list[tuple[float, int]] = [(float("inf"), 0)]
    while stack:
        bound, node = stack.pop()
        if bound <= best_score:
            continue  # a sibling raised the bound since this one was pushed
        node = -node
        node_reads += 1
        if pager is not None:
            if pager.access((page_base, node)):
                buffer_hits.inc()
            else:
                buffer_misses.inc()
        start, stop = offsets[node], offsets[node + 1]
        internal = levels[node] > 0
        if node < prefix_nodes:
            counts = prefix_counts[start:stop]
        else:
            counts = (inner_score if internal else leaf_score)(start, stop).tolist()
        if internal:
            child = -first_child[node]
            stack.extend(
                sorted(
                    [
                        (count, child - position)
                        for position, count in enumerate(counts)
                        if count > best_score
                    ]
                )
            )
            continue
        leaf_reads += 1
        if penalty is None:
            # the first entry with the highest count is the only possible winner
            satisfied = max(counts)
            if satisfied > best_score:
                best_score = float(satisfied)
                best_satisfied = satisfied
                best_entry = start + counts.index(satisfied)
            continue
        for negated, position in sorted(
            [(-count, position) for position, count in enumerate(counts) if count > best_score]
        ):
            if -negated <= best_score:
                break  # sorted: the rest are no better
            if plateau is not None:
                plateau.append(-negated)
                plateau.append(start + position)
            score = -negated - penalty(packed.entry_item(start + position))
            if score > best_score:
                best_score = score
                best_satisfied = -negated
                best_entry = start + position
                plateau = None  # the descent succeeds: the caller drops the list
    stats.node_reads += node_reads
    stats.leaf_reads += leaf_reads
    if best_entry < 0:
        return None
    return best_entry, int(best_satisfied), best_score


class ProbeMemo:
    """What one search run's ``find_best_value`` probes have proved.

    A probe asks for ``variable``'s best object given the objects its join
    partners hold.  Those objects fix the windows, so the key
    ``(variable, partner object ids)`` fixes every candidate's satisfied
    count and the order a descent visits the candidates in.  Three facts,
    each true for the rest of the run, let the memo answer a probe with no
    descent — exactly as the descent would, item included:

    * **failure certificate** — a failed probe at floor ``f`` proves no
      object scores above ``f``; penalties only grow, so scores only fall,
      and a later probe with floor ``>= f`` fails too;
    * **known maximum** (no penalty) — a successful probe returns the
      tree's highest count and the first object in visit order holding it,
      which is every later probe's answer if it beats the floor;
    * **plateau list** (with a penalty) — a failed descent at ``f`` scored
      every entry whose count exceeds ``f``, in visit order, and kept them.
      Any later floor ``>= ⌊f⌋`` admits only counts ``> ⌊f⌋``, i.e. entries
      of that list, so scanning it against the current penalties (first
      highest score wins) answers the probe — for any λ.

    The memo lives for one run; it keeps at most ``MEMO_KEYS`` keys.  It
    stores numbers only — int keys, float ceilings, int positions, int64
    plateau arrays — so it holds no object the cyclic garbage collector
    tracks: however many keys a run gathers, the collector's young
    generation fills (and its next pass comes) as if there were no memo.
    """

    __slots__ = (
        "_trees", "_partners", "_strides", "_penalties",
        "_ceilings", "_maxima", "_plateaus",
        "asked", "answered", "plateau_lists", "plateau_entries",
    )

    def __init__(
        self, evaluator: "QueryEvaluator", penalties: "PenaltyTable | None" = None
    ) -> None:
        self._trees = evaluator.trees
        # a probe's key is one exact int: the variable, plus the partners'
        # object ids as mixed-radix digits above it (digit base: the
        # partner's dataset size)
        sizes = [len(columns) for columns in evaluator.columns]
        self._partners: list[tuple[int, ...]] = []
        self._strides: list[tuple[int, ...]] = []
        for adjacent in evaluator.neighbors:
            partners = [j for j, _ in adjacent]
            strides, stride = [], len(sizes)
            for j in reversed(partners):
                strides.append(stride)
                stride *= sizes[j]
            self._partners.append(tuple(partners))
            self._strides.append(tuple(reversed(strides)))
        self._penalties = penalties
        #: key → a score no object beats: the lowest failed floor or, with no
        #: penalty, the known maximum's count; every key known has one
        self._ceilings: dict[int, float] = {}
        #: key → packed position of the known maximum (no penalty)
        self._maxima: dict[int, int] = {}
        #: key → plateau list (with a penalty): ``[⌊f⌋, count, entry, …]``
        self._plateaus: dict[int, np.ndarray] = {}
        #: probes asked / answered without a descent
        self.asked = 0
        self.answered = 0
        #: plateau lists kept and their total length
        self.plateau_lists = 0
        self.plateau_entries = 0

    def improve(self, state: "SolutionState", variable: int) -> bool:
        """Re-instantiate ``variable`` with its best value if that strictly
        beats its current (effective) score; ``False`` when nothing does."""
        floor = float(state.sat[variable])
        if self._penalties is not None:
            floor -= self._penalties.weighted(variable, state.values[variable])
        found = self.probe(state, variable, floor)
        if found is None:
            return False
        state.set_value(variable, found.item, found.rect)
        return True

    def probe(
        self, state: "SolutionState", variable: int, floor: float
    ) -> BestValue | None:
        """``find_best_value`` over ``variable``'s windows in ``state``, scored
        with the run's penalties — from the memo when already proven."""
        self.asked += 1
        values = state.values
        key = variable + sum(
            map(mul, map(values.__getitem__, self._partners[variable]), self._strides[variable])
        )
        ceiling = self._ceilings.get(key)
        if ceiling is not None and floor >= ceiling:
            self.answered += 1
            return None
        tree = self._trees[variable]
        penalties = self._penalties
        if penalties is None:
            if ceiling is not None:
                entry = self._maxima.get(key)
                if entry is not None:
                    self.answered += 1
                    return _best_value(tree, entry, int(ceiling), ceiling)
            won = _descend(tree, state.constraint_windows(variable), floor, None, None)
            if won is None:
                self._remember(key, floor)
                return None
            self._remember(key, won[2])
            self._maxima[key] = won[0]
            return _best_value(tree, *won)

        weighted = penalties.weighted
        kept = self._plateaus.get(key)
        if kept is not None:
            listed = kept.tolist()
            if floor >= listed[0]:
                self.answered += 1
                won = _scan(listed, tree, variable, floor, weighted)
                if won is None:
                    self._ceilings[key] = floor
                    return None
                return _best_value(tree, *won)
        plateau: list[int] = []
        won = _descend(
            tree,
            state.constraint_windows(variable),
            floor,
            lambda item: weighted(variable, item),
            plateau,
        )
        if won is not None:
            return _best_value(tree, *won)
        self._remember(key, floor)
        if len(plateau) <= 2 * PLATEAU_LIMIT:
            self._plateaus[key] = np.array([math.floor(floor), *plateau], dtype=np.int64)
            self.plateau_lists += 1
            self.plateau_entries += len(plateau) // 2
        return None

    def _remember(self, key: int, ceiling: float) -> None:
        ceilings = self._ceilings
        if key not in ceilings and len(ceilings) >= MEMO_KEYS:
            oldest = next(iter(ceilings))
            del ceilings[oldest]
            self._maxima.pop(oldest, None)
            self._plateaus.pop(oldest, None)
        ceilings[key] = ceiling

    def stats(self) -> dict[str, int]:
        """Probes asked and answered without a descent (with penalties also
        the plateau lists kept and their total length)."""
        stats = {"asked": self.asked, "answered": self.answered}
        if self._penalties is not None:
            stats["plateau_lists"] = self.plateau_lists
            stats["plateau_entries"] = self.plateau_entries
        return stats


def _scan(
    listed: list[int],
    tree: RStarTree,
    variable: int,
    floor: float,
    weighted: Callable[[int, Any], float],
) -> tuple[int, int, float] | None:
    """The descent's answer, read off a plateau list ``[⌊f⌋, count, entry,
    …]``: the first entry in visit order with the highest score above
    ``floor``."""
    packed = tree.packed()
    best: tuple[int, int] | None = None
    best_score = floor
    for count, entry in zip(listed[1::2], listed[2::2]):
        if count > best_score:
            score = count - weighted(variable, packed.entry_item(entry))
            if score > best_score:
                best_score = score
                best = (entry, count)
    if best is None:
        return None
    return best[0], best[1], best_score


def brute_force_best_value(
    rects: Sequence[Rect],
    constraints: list[tuple[SpatialPredicate, Rect]],
    floor_score: float,
    penalty: Callable[[Any], float] | None = None,
) -> BestValue | None:
    """Reference implementation scanning every object; the test oracle for
    :func:`find_best_value` (identical contract, no index, no kernels —
    every condition goes through ``predicate.test``).
    """
    if not constraints:
        return None
    best: BestValue | None = None
    best_score = floor_score
    for item, rect in enumerate(rects):
        satisfied = sum(
            1 for predicate, window in constraints if predicate.test(rect, window)
        )
        score = float(satisfied)
        if penalty is not None:
            score -= penalty(item)
        if score > best_score:
            best_score = score
            best = BestValue(item, rect, satisfied, score)
    return best
