"""Dynamic R*-tree [BKSS90].

This is the index the paper assumes for every dataset ("we consider that all
datasets are indexed by R*-trees on minimum bounding rectangles").  The
implementation follows the original publication:

* *choose subtree*: minimum overlap enlargement at the level above the
  leaves, minimum area enlargement above that (ties broken by area),
* *overflow treatment*: forced reinsertion of the ``reinsert_fraction``
  entries whose centers lie farthest from the node center — once per level
  per insertion — before resorting to a split,
* *split*: axis chosen by minimum total margin over all candidate
  distributions, distribution chosen by minimum overlap (ties by area).

Deletion uses the classic condense-tree strategy (underfull nodes are
dissolved and their entries reinserted at their original level).

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

from typing import Any, Callable, Iterable, Iterator, Sequence

from ..geometry import Rect, union_all
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
        best_index = 0
        best_key: tuple[float, float] | None = None
        for index, bound in enumerate(node.bounds):
            key = (bound.enlargement(rect), bound.area())
            if best_key is None or key < best_key:
                best_key = key
                best_index = index
        return best_index

    @staticmethod
    def _pick_min_overlap_child(node: Node, rect: Rect) -> int:
        """[BKSS90] leaf-level criterion: least overlap enlargement."""
        best_index = 0
        best_key: tuple[float, float, float] | None = None
        for index, bound in enumerate(node.bounds):
            enlarged = bound.union(rect)
            overlap_delta = 0.0
            for other_index, other in enumerate(node.bounds):
                if other_index == index:
                    continue
                overlap_delta += enlarged.intersection_area(other)
                overlap_delta -= bound.intersection_area(other)
            key = (overlap_delta, bound.enlargement(rect), bound.area())
            if best_key is None or key < best_key:
                best_key = key
                best_index = index
        return best_index

    def _propagate_growth(self, node: Node) -> None:
        """Refresh cached bounds on the path from ``node`` to the root."""
        while node.parent is not None:
            parent = node.parent
            position = parent.children.index(node)
            grown = node.mbr
            if grown is None:
                raise AssertionError("growth propagation reached an empty node")
            if parent.bounds[position] != grown:
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
        # [BKSS90] "close reinsert": farthest entries first.
        for rect, child in evicted:
            self._insert_at_level(rect, child, node.level)

    def _split(self, node: Node) -> None:
        self.stats.splits += 1
        group_a, group_b = _rstar_split(
            list(node.entries()), self.min_entries, self.max_entries
        )
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


# ----------------------------------------------------------------------
# split machinery (module-level so the bulk loader can reuse it in tests)
# ----------------------------------------------------------------------
def _rstar_split(
    entries: list[tuple[Rect, Any]], min_entries: int, max_entries: int
) -> tuple[list[tuple[Rect, Any]], list[tuple[Rect, Any]]]:
    """Split ``max_entries + 1`` entries into two groups per [BKSS90]."""
    axis_sorts = _choose_split_axis(entries, min_entries)
    return _choose_split_index(axis_sorts, min_entries)


def _sorted_by(
    entries: list[tuple[Rect, Any]], key: Callable[[Rect], tuple[float, float]]
) -> list[tuple[Rect, Any]]:
    return sorted(entries, key=lambda entry: key(entry[0]))


def _choose_split_axis(
    entries: list[tuple[Rect, Any]], min_entries: int
) -> list[list[tuple[Rect, Any]]]:
    """Return the candidate sorts (by min and max) of the best split axis."""
    x_sorts = [
        _sorted_by(entries, lambda r: (r.xmin, r.xmax)),
        _sorted_by(entries, lambda r: (r.xmax, r.xmin)),
    ]
    y_sorts = [
        _sorted_by(entries, lambda r: (r.ymin, r.ymax)),
        _sorted_by(entries, lambda r: (r.ymax, r.ymin)),
    ]
    x_margin = sum(_distribution_margins(s, min_entries) for s in x_sorts)
    y_margin = sum(_distribution_margins(s, min_entries) for s in y_sorts)
    return x_sorts if x_margin <= y_margin else y_sorts


def _distribution_margins(ordered: list[tuple[Rect, Any]], min_entries: int) -> float:
    total = 0.0
    for split_at in _split_positions(len(ordered), min_entries):
        left = union_all(r for r, _ in ordered[:split_at])
        right = union_all(r for r, _ in ordered[split_at:])
        total += left.margin() + right.margin()
    return total


def _split_positions(count: int, min_entries: int) -> range:
    return range(min_entries, count - min_entries + 1)


def _choose_split_index(
    sorts: list[list[tuple[Rect, Any]]], min_entries: int
) -> tuple[list[tuple[Rect, Any]], list[tuple[Rect, Any]]]:
    best: tuple[float, float] | None = None
    best_groups: tuple[list[tuple[Rect, Any]], list[tuple[Rect, Any]]] | None = None
    for ordered in sorts:
        for split_at in _split_positions(len(ordered), min_entries):
            left = ordered[:split_at]
            right = ordered[split_at:]
            left_mbr = union_all(r for r, _ in left)
            right_mbr = union_all(r for r, _ in right)
            key = (
                left_mbr.intersection_area(right_mbr),
                left_mbr.area() + right_mbr.area(),
            )
            if best is None or key < best:
                best = key
                best_groups = (left, right)
    assert best_groups is not None
    return best_groups


def _collect_leaf_entries(node: Node) -> Iterator[tuple[Rect, Any]]:
    stack = [node]
    while stack:
        current = stack.pop()
        if current.is_leaf:
            yield from current.entries()
        else:
            stack.extend(current.children)
