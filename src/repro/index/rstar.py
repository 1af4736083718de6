"""Dynamic R*-tree [BKSS90].

This is the index the paper assumes for every dataset ("we consider that all
datasets are indexed by R*-trees on minimum bounding rectangles").  The
implementation follows the original publication:

* *choose subtree*: minimum overlap enlargement at the level above the
  leaves, minimum area enlargement above that (ties broken by area),
* *overflow treatment*: forced reinsertion of the ``reinsert_fraction``
  entries whose centers lie farthest from the node center, farthest first
  ([BKSS90]'s *far reinsert*) — once per level per insertion — before
  resorting to a split,
* *split*: axis chosen by minimum total margin over all candidate
  distributions, distribution chosen by minimum overlap (ties by area).

Deletion uses the classic condense-tree strategy (underfull nodes are
dissolved and their entries reinserted at their original level).

Each decision scores a whole node at once: the node's bounds are packed
into a ``(4, k)`` array and every candidate is scored in a few NumPy calls.
The arithmetic is the scalar procedures' own, operation for operation —
sums accumulate in entry order, ties go to the first candidate — so the
trees are bit-identical to the one-``Rect``-at-a-time code, which
``tests/test_rstar.py`` keeps as the oracle.

A tree has two forms.  The :class:`~repro.index.node.Node` graph is the
write side: inserts and deletes work on it (and ``validate()`` and k-NN walk
it).  The :class:`~repro.index.packed.PackedTree` arrays are the read side:
window queries, ``find_best_value`` and the traversal joins descend them.
Each is derived from the other on demand — ``packed()`` flattens the graph
on first read, ``root`` inflates a graph for the first caller that walks
nodes — and every mutator drops the packed form, so a bulk-loaded or
warm-attached tree that is only read never builds a node at all.
"""

from __future__ import annotations

from typing import Any, Iterable, Iterator, Sequence

import numpy as np

from ..geometry import Rect
from ..geometry.kernels import pack_bounds
from .buffer import BufferPool
from .node import Node
from .packed import PackedTree
from .stats import TreeStats

__all__ = ["RStarTree", "DEFAULT_MAX_ENTRIES"]

DEFAULT_MAX_ENTRIES = 40


class RStarTree:
    """An R*-tree over ``(Rect, item)`` entries.

    Parameters
    ----------
    max_entries:
        Node capacity ``M``.  The paper's Figure 1 uses 3 for illustration;
        realistic page sizes give 40-100.
    min_fill:
        Minimum fill factor; ``m = max(1, int(min_fill * M))``.  [BKSS90]
        recommends 0.4.
    reinsert_fraction:
        Share of entries removed during forced reinsertion (0 disables the
        mechanism entirely, turning the structure into a plain R-tree with
        R*-style splits).
    """

    def __init__(
        self,
        max_entries: int = DEFAULT_MAX_ENTRIES,
        min_fill: float = 0.4,
        reinsert_fraction: float = 0.3,
    ):
        if max_entries < 2:
            raise ValueError(f"max_entries must be >= 2, got {max_entries}")
        if not 0.0 < min_fill <= 0.5:
            raise ValueError(f"min_fill must be in (0, 0.5], got {min_fill}")
        if not 0.0 <= reinsert_fraction < 1.0:
            raise ValueError(
                f"reinsert_fraction must be in [0, 1), got {reinsert_fraction}"
            )
        self.max_entries = max_entries
        self.min_entries = max(1, int(min_fill * max_entries))
        self.reinsert_count = int(reinsert_fraction * max_entries)
        self._root: Node | None = Node(level=0)
        self._packed: PackedTree | None = None
        self.stats = TreeStats()
        #: optional BufferPool; when set, read traversals report page accesses
        self.pager: BufferPool | None = None
        self._size = 0
        # levels that already received forced reinsertion in the current
        # top-level insert (the "first overflow per level" rule of [BKSS90])
        self._reinserted_levels: set[int] = set()

    @classmethod
    def from_packed(cls, packed: PackedTree, meta: Sequence[int]) -> "RStarTree":
        """Wrap packed arrays as a tree without building a single node.

        ``meta`` is ``(max_entries, min_entries, reinsert_count, size)``.
        """
        max_entries, min_entries, reinsert_count, size = (int(value) for value in meta)
        tree = cls(max_entries=max_entries)
        tree.min_entries = min_entries
        tree.reinsert_count = reinsert_count
        tree._root = None
        tree._packed = packed
        tree._size = size
        return tree

    # ------------------------------------------------------------------
    # the two forms
    # ------------------------------------------------------------------
    @property
    def root(self) -> Node:
        """The node graph's root, inflated from the packed form if need be."""
        if self._root is None:
            assert self._packed is not None
            self._root = self._packed.inflate()
        return self._root

    @root.setter
    def root(self, node: Node) -> None:
        self._root = node
        self._packed = None

    def packed(self) -> PackedTree:
        """The read-side arrays, flattened from the node graph if need be."""
        if self._packed is None:
            assert self._root is not None
            self._packed = PackedTree.from_root(self._root)
        return self._packed

    # ------------------------------------------------------------------
    # basic accessors
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return self._size

    @property
    def height(self) -> int:
        """Number of levels; an empty tree has height 1 (the empty leaf root)."""
        if self._root is None:
            return self.packed().height
        return self._root.level + 1

    def bounds(self) -> Rect | None:
        """MBR of the whole tree, ``None`` when empty."""
        if self._root is None:
            return self.packed().bounds()
        return self._root.mbr

    def items(self) -> Iterator[tuple[Rect, Any]]:
        """All ``(rect, item)`` leaf entries, in storage order."""
        return self.packed().leaf_entries()

    # ------------------------------------------------------------------
    # insertion
    # ------------------------------------------------------------------
    def insert(self, rect: Rect, item: Any) -> None:
        """Insert one object; ``item`` is opaque (object ids in this library)."""
        rect.validate()
        self.stats.inserts += 1
        self._reinserted_levels = set()
        _ = self.root  # the graph must exist before its packed source goes
        self._packed = None
        self._insert_at_level(rect, item, level=0)
        self._size += 1

    def extend(self, entries: Iterable[tuple[Rect, Any]]) -> None:
        for rect, item in entries:
            self.insert(rect, item)

    def _insert_at_level(self, rect: Rect, child: Any, level: int) -> None:
        node = self._choose_subtree(rect, level)
        node.add(rect, child)
        self._propagate_growth(node)
        if len(node) > self.max_entries:
            self._handle_overflow(node)

    def _choose_subtree(self, rect: Rect, level: int) -> Node:
        node = self.root
        while node.level > level:
            if node.level == level + 1 and node.children and node.children[0].is_leaf:
                index = self._pick_min_overlap_child(node, rect)
            else:
                index = self._pick_min_enlargement_child(node, rect)
            node = node.children[index]
        return node

    @staticmethod
    def _pick_min_enlargement_child(node: Node, rect: Rect) -> int:
        """Least area enlargement, ties broken by least area."""
        bounds = _coordinates(node.bounds)
        area = _areas(bounds)
        return _first_minimum(_areas(_enlarged(bounds, rect)) - area, area)

    @staticmethod
    def _pick_min_overlap_child(node: Node, rect: Rect) -> int:
        """[BKSS90] leaf-level criterion: least overlap enlargement.

        Entry ``i``'s overlap enlargement is the sum, over every other entry
        ``j`` in entry order, of ``area(enlarged_i ∩ bound_j)`` minus
        ``area(bound_i ∩ bound_j)``.  Column ``i`` of the term matrix holds
        those terms interleaved, with zeros for ``j == i``, and ``cumsum``
        adds them top to bottom: the rounding of the sequential sum, which the
        pairwise order of ``np.sum`` would not reproduce.  Ties go to least
        area enlargement, then least area, then the first entry.
        """
        bounds = _coordinates(node.bounds)
        count = bounds.shape[1]
        enlarged = _enlarged(bounds, rect)
        area = _areas(bounds)
        # terms[j, i] scores enlarged entry i against entry j, and
        # terms[j, count + i] entry i itself, negated
        terms = _overlap_areas(
            bounds[:, :, None], np.concatenate((enlarged, bounds), axis=1)[:, None, :]
        )
        np.negative(terms[:, count:], out=terms[:, count:])
        # [j, j] and [j, count + j]: every (2·count + 1)-th element from 0 and count
        flat = terms.reshape(-1)
        flat[:: 2 * count + 1] = 0.0
        flat[count :: 2 * count + 1] = 0.0
        # row 2j + side of the reshaped matrix is every entry's summand 2j + side
        overlap_delta = np.cumsum(terms.reshape(2 * count, count), axis=0)[-1]
        return _first_minimum(overlap_delta, _areas(enlarged) - area, area)

    def _propagate_growth(self, node: Node) -> None:
        """Refresh cached bounds on the path from ``node`` to the root.

        Stops at the first ancestor whose entry already equals its child's
        MBR: that ancestor is unchanged, and so is every one above it.
        """
        while node.parent is not None:
            parent = node.parent
            position = parent.children.index(node)
            grown = node.mbr
            if grown is None:
                raise AssertionError("growth propagation reached an empty node")
            if parent.bounds[position] == grown:
                return
            parent.set_bound(position, grown)
            node = parent

    # ------------------------------------------------------------------
    # overflow treatment
    # ------------------------------------------------------------------
    def _handle_overflow(self, node: Node) -> None:
        can_reinsert = (
            node.parent is not None
            and self.reinsert_count > 0
            and node.level not in self._reinserted_levels
        )
        if can_reinsert:
            self._reinserted_levels.add(node.level)
            self._force_reinsert(node)
        else:
            self._split(node)

    def _force_reinsert(self, node: Node) -> None:
        """Remove the entries farthest from the node center and re-add them."""
        self.stats.reinserts += 1
        assert node.mbr is not None
        cx, cy = node.mbr.center()

        def distance_sq(entry: tuple[Rect, Any]) -> float:
            ex, ey = entry[0].center()
            return (ex - cx) ** 2 + (ey - cy) ** 2

        order = sorted(node.entries(), key=distance_sq, reverse=True)
        evicted = order[: self.reinsert_count]
        kept = order[self.reinsert_count:]
        node.replace_entries([r for r, _ in kept], [c for _, c in kept])
        self._propagate_growth(node)
        # farthest first: [BKSS90]'s "far reinsert" (its "close reinsert"
        # would start from the evicted entry nearest the center)
        for rect, child in evicted:
            self._insert_at_level(rect, child, node.level)

    def _split(self, node: Node) -> None:
        self.stats.splits += 1
        group_a, group_b = self._split_groups(list(node.entries()), self.min_entries)
        sibling = Node(level=node.level)
        node.replace_entries([r for r, _ in group_a], [c for _, c in group_a])
        sibling.replace_entries([r for r, _ in group_b], [c for _, c in group_b])

        parent = node.parent
        if parent is None:
            new_root = Node(level=node.level + 1)
            assert node.mbr is not None and sibling.mbr is not None
            new_root.add(node.mbr, node)
            new_root.add(sibling.mbr, sibling)
            self.root = new_root
            return
        parent.update_child_bound(node)
        assert sibling.mbr is not None
        parent.add(sibling.mbr, sibling)
        self._propagate_growth(parent)
        if len(parent) > self.max_entries:
            self._handle_overflow(parent)

    @staticmethod
    def _split_groups(
        entries: list[tuple[Rect, Any]], min_entries: int
    ) -> tuple[list[tuple[Rect, Any]], list[tuple[Rect, Any]]]:
        """Split an overfull node's entries into two groups per [BKSS90].

        The candidate distributions cut four stable sorts — by
        ``(xmin, xmax)``, ``(xmax, xmin)``, ``(ymin, ymax)``, ``(ymax, ymin)``
        — at every position leaving ``min_entries`` on each side, so their
        group MBRs are running minima/maxima from either end.  The axis whose
        two sorts have the least total margin wins (x on a tie; each sort's
        margins summed in cut order); along it, the first cut of least group
        overlap, then least total area.
        """
        bounds = _coordinates([rect for rect, _ in entries])
        xmin, ymin, xmax, ymax = bounds
        orders = np.stack(
            (
                np.lexsort((xmax, xmin)),
                np.lexsort((xmin, xmax)),
                np.lexsort((ymax, ymin)),
                np.lexsort((ymin, ymax)),
            )
        )
        ordered = bounds[:, orders]
        count = len(entries)
        cuts = np.arange(min_entries, count - min_entries + 1)
        left = _prefix_mbrs(ordered)[:, :, cuts - 1]
        right = _prefix_mbrs(ordered[:, :, ::-1])[:, :, count - cuts - 1]
        left_w, left_h = left[2] - left[0], left[3] - left[1]
        right_w, right_h = right[2] - right[0], right[3] - right[1]

        margins = np.cumsum((left_w + left_h) + (right_w + right_h), axis=1)[:, -1]
        first = 0 if margins[0] + margins[1] <= margins[2] + margins[3] else 2
        axis = slice(first, first + 2)
        overlap = _overlap_areas(left[:, axis], right[:, axis])
        area = left_w[axis] * left_h[axis] + right_w[axis] * right_h[axis]
        sort, cut = divmod(_first_minimum(overlap.ravel(), area.ravel()), len(cuts))
        order = orders[first + sort].tolist()
        split_at = int(cuts[cut])
        return [entries[i] for i in order[:split_at]], [entries[i] for i in order[split_at:]]

    # ------------------------------------------------------------------
    # deletion
    # ------------------------------------------------------------------
    def delete(self, rect: Rect, item: Any) -> bool:
        """Remove one ``(rect, item)`` entry; returns False when absent."""
        found = self._find_leaf(self.root, rect, item)
        if found is None:
            return False
        self._packed = None
        leaf, position = found
        leaf.remove_at(position)
        self.stats.deletes += 1
        self._size -= 1
        self._condense(leaf)
        return True

    def _find_leaf(self, node: Node, rect: Rect, item: Any) -> tuple[Node, int] | None:
        if node.is_leaf:
            for position, (bound, child) in enumerate(node.entries()):
                if bound == rect and child == item:
                    return node, position
            return None
        for bound, child in node.entries():
            if bound.intersects(rect):
                found = self._find_leaf(child, rect, item)
                if found is not None:
                    return found
        return None

    def _condense(self, node: Node) -> None:
        orphans: list[tuple[int, Rect, Any]] = []
        while node.parent is not None:
            parent = node.parent
            if len(node) < self.min_entries:
                position = parent.children.index(node)
                parent.remove_at(position)
                for rect, child in node.entries():
                    if isinstance(child, Node):
                        child.parent = None
                    orphans.append((node.level, rect, child))
            else:
                parent.update_child_bound(node)
            node = parent
        self.root.recompute_mbr()
        # shrink the root while it is an internal node with a single child
        while not self.root.is_leaf and len(self.root) == 1:
            only_child = self.root.children[0]
            only_child.parent = None
            self.root = only_child
        if not self.root.is_leaf and len(self.root) == 0:
            self.root = Node(level=0)
        for level, rect, child in orphans:
            self._reinserted_levels = set()
            if level > self.root.level:
                # the tree shrank below the orphan's level; graft node trees
                # back by reinserting their leaf entries instead
                for leaf_rect, leaf_item in _collect_leaf_entries(child):
                    self._insert_at_level(leaf_rect, leaf_item, 0)
            else:
                self._insert_at_level(rect, child, level)

    # ------------------------------------------------------------------
    # diagnostics
    # ------------------------------------------------------------------
    def validate(self) -> None:
        """Check every structural invariant; raises AssertionError on failure."""
        assert self.root.parent is None
        leaf_count = 0
        stack = [self.root]
        while stack:
            node = stack.pop()
            node.check_invariants(
                self.max_entries, self.min_entries, is_root=node is self.root
            )
            if node.is_leaf:
                leaf_count += len(node)
            else:
                stack.extend(node.children)
        assert leaf_count == self._size, (
            f"size mismatch: counted {leaf_count}, recorded {self._size}"
        )

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"RStarTree(size={self._size}, height={self.height}, "
            f"max_entries={self.max_entries})"
        )


# The helpers below take bounds coordinate-major: ``bounds[0..3]`` are the
# ``xmin, ymin, xmax, ymax`` arrays, so each NumPy call runs over entries.
def _coordinates(rects: Sequence[Rect]) -> np.ndarray:
    """The contiguous ``(4, k)`` coordinate-major array of ``rects``."""
    return pack_bounds(rects).T.copy()


def _areas(bounds: np.ndarray) -> np.ndarray:
    """``Rect.area`` of every rectangle."""
    return (bounds[2] - bounds[0]) * (bounds[3] - bounds[1])


def _enlarged(bounds: np.ndarray, rect: Rect) -> np.ndarray:
    """``Rect.union`` of every rectangle with ``rect``."""
    corners = np.array(rect)[:, None]
    grown = np.minimum(bounds, corners)
    np.maximum(bounds[2:], corners[2:], out=grown[2:])
    return grown


def _overlap_areas(bounds: np.ndarray, others: np.ndarray) -> np.ndarray:
    """``Rect.intersection_area`` of broadcast rectangle pairs."""
    dx, dy = np.minimum(bounds[2:], others[2:]) - np.maximum(bounds[:2], others[:2])
    return np.where((dx > 0.0) & (dy > 0.0), dx * dy, 0.0)


def _prefix_mbrs(ordered: np.ndarray) -> np.ndarray:
    """Position ``i`` of each sort: the MBR of its entries ``0..i``."""
    return np.concatenate(
        (
            np.minimum.accumulate(ordered[:2], axis=-1),
            np.maximum.accumulate(ordered[2:], axis=-1),
        )
    )


def _first_minimum(*keys: np.ndarray) -> int:
    """Index of the first entry minimal in ``keys``, most significant first:
    the scalar loop's "replace the best on a strictly smaller key tuple"."""
    return int(np.lexsort(keys[::-1])[0])


def _collect_leaf_entries(node: Node) -> Iterator[tuple[Rect, Any]]:
    stack = [node]
    while stack:
        current = stack.pop()
        if current.is_leaf:
            yield from current.entries()
        else:
            stack.extend(current.children)
