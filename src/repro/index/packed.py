"""The packed, read-side form of an R*-tree: four flat BFS-ordered arrays.

Nodes are numbered in BFS order (root = 0), children in entry order — so a
node's children carry consecutive numbers — and the arrays preserve
traversal order exactly: every query answers from them byte-identically to
a walk over the :class:`~repro.index.node.Node` graph.  Layout:

``entry_bounds``
    ``(m, 4)`` float64 — every entry MBR of every node, concatenated.
``entry_children``
    ``(m,)`` int64 — the BFS index of the child node (internal levels) or
    the integer item id (leaves), parallel to ``entry_bounds``.
``node_offsets``
    ``(n + 1,)`` int64 — node ``k`` owns entries
    ``node_offsets[k]:node_offsets[k + 1]``.
``node_levels``
    ``(n,)`` int64 — each node's level (0 = leaf); non-increasing, because
    the tree is balanced and the numbering is breadth-first.

The arrays are plain NumPy and therefore mmap-able: the warm plane ships
exactly these four, and a worker wraps the shared pages without copying.
:func:`~repro.index.bulk.bulk_load` builds them directly; a tree grown by
inserts packs itself on first read (:meth:`PackedTree.from_root`); callers
that still walk nodes get a graph back through :meth:`PackedTree.inflate`.

The searches compare against ``keys`` — the same bounds, one coordinate per
row with the upper corner negated (see :meth:`PackedTree.scorers`).  Keys
and ``entry_bounds`` determine each other exactly, so a tree holds whichever
it was given and derives the other only for the first caller that needs it:
a bulk-loaded tree that only answers ``intersects`` queries never
materialises ``entry_bounds``, a warm-attached one keeps it in shared pages.
"""

from __future__ import annotations

from typing import Any, Callable, Iterator, Sequence

import numpy as np

from ..geometry import Intersects, Rect, SpatialPredicate
from ..geometry.kernels import Columns, make_count_scorer, pack_bounds
from .node import Node

__all__ = ["PackedTree", "RangeScorer", "bounds_keys", "columns_keys"]

#: ``scorer(start, stop)`` → per-entry constraint counts of that entry range
RangeScorer = Callable[[int, int], np.ndarray]

#: the top levels are scored in one kernel call while together they hold at
#: most this many entries: root + level 2 of a paper-scale tree (81), the
#: whole of a 400-object tree (412)
PREFIX_ENTRIES = 512

_KEY_SIGNS = np.array([1.0, 1.0, -1.0, -1.0])


def _intersects_window_keys(
    constraints: Sequence[tuple[SpatialPredicate, Rect]]
) -> list[float] | None:
    """``[wxmax, wymax, −wxmin, −wymin]`` of every window, flat — or ``None``
    unless every predicate is plain ``intersects`` (see :meth:`PackedTree.scorers`)."""
    window_keys: list[float] = []
    for predicate, (wxmin, wymin, wxmax, wymax) in constraints:
        if type(predicate) is not Intersects:
            return None
        window_keys += (wxmax, wymax, -wxmin, -wymin)
    return window_keys


def bounds_keys(entry_bounds: np.ndarray) -> np.ndarray:
    """``(m, 4)`` bounds → C-contiguous ``(4, m)`` keys
    ``[xmin; ymin; −xmax; −ymax]`` (negation is exact, so this loses nothing)."""
    return np.ascontiguousarray((entry_bounds * _KEY_SIGNS).T)


def columns_keys(parts: Sequence[Columns]) -> np.ndarray:
    """The :func:`bounds_keys` of the rows of several ``(xmin, ymin, xmax,
    ymax)`` column tuples, one after the other — written coordinate by
    coordinate, so no row is formed."""
    keys = np.empty((4, sum(len(columns[0]) for columns in parts)))
    for row, coordinate in enumerate(zip(*parts)):
        np.concatenate(coordinate, out=keys[row])
    keys *= _KEY_SIGNS[:, None]
    return keys


class PackedTree:
    """Flat arrays plus the small per-process state the searches index."""

    __slots__ = (
        "_entry_bounds",
        "_keys",
        "entry_children",
        "node_offsets",
        "node_levels",
        "items",
        "offsets",
        "levels",
        "first_child",
        "prefix_nodes",
        "prefix_stop",
        "prefix_inner_stop",
    )

    def __init__(
        self,
        entry_bounds: np.ndarray | None,
        entry_children: np.ndarray,
        node_offsets: np.ndarray,
        node_levels: np.ndarray,
        items: list[Any] | None = None,
        keys: np.ndarray | None = None,
    ) -> None:
        if entry_bounds is None and keys is None:
            raise ValueError("a packed tree needs its entry bounds or their keys")
        self._entry_bounds = entry_bounds
        self._keys = keys
        self.entry_children = entry_children
        self.node_offsets = node_offsets
        self.node_levels = node_levels
        #: leaf payloads when they are not plain integers: a leaf's
        #: ``entry_children`` then index this list (insert-built trees may
        #: hold any object; only integer ids survive serialisation)
        self.items = items
        #: Python-int copies of the per-node arrays for the search loops
        self.offsets: list[int] = node_offsets.tolist()
        self.levels: list[int] = node_levels.tolist()
        first_leaf = self.levels.index(0)
        #: an internal node's children are numbered consecutively from here
        self.first_child: list[int] = entry_children[node_offsets[:first_leaf]].tolist()
        # the BFS prefix of whole levels small enough to score in one call;
        # ``prefix_inner_stop`` is where its internal entries end
        prefix_nodes = 0
        for level in range(self.levels[0], -1, -1):
            stop = prefix_nodes + self.levels[prefix_nodes:].count(level)
            if self.offsets[stop] > PREFIX_ENTRIES:
                break
            prefix_nodes = stop
        self.prefix_nodes = prefix_nodes
        self.prefix_stop = self.offsets[prefix_nodes]
        self.prefix_inner_stop = self.offsets[min(prefix_nodes, first_leaf)]

    @property
    def entry_bounds(self) -> np.ndarray:
        if self._entry_bounds is None:
            self._entry_bounds = np.ascontiguousarray(self._keys.T * _KEY_SIGNS)
        return self._entry_bounds

    @property
    def keys(self) -> np.ndarray:
        if self._keys is None:
            self._keys = bounds_keys(self._entry_bounds)
        return self._keys

    # ------------------------------------------------------------------
    # the two conversions to and from the node graph
    # ------------------------------------------------------------------
    @classmethod
    def from_root(cls, root: Node) -> "PackedTree":
        """Flatten a node graph (what an insert-built tree does on first read)."""
        nodes: list[Node] = [root]
        all_bounds: list[Rect] = []
        children: list[Any] = []
        offsets: list[int] = [0]
        first_leaf_entry = 0
        for node in nodes:  # grows while it is walked: breadth-first order
            all_bounds.extend(node.bounds)
            if node.is_leaf:
                children.extend(node.children)
            else:
                children.extend(range(len(nodes), len(nodes) + len(node)))
                nodes.extend(node.children)
                first_leaf_entry = len(children)
            offsets.append(len(all_bounds))
        items = None
        if not all(isinstance(item, int) for item in children[first_leaf_entry:]):
            items = children[first_leaf_entry:]
            children[first_leaf_entry:] = range(len(items))
        return cls(
            pack_bounds(all_bounds),
            np.asarray(children, dtype=np.int64),
            np.asarray(offsets, dtype=np.int64),
            np.asarray([node.level for node in nodes], dtype=np.int64),
            items,
        )

    def inflate(self) -> Node:
        """Build the node graph of this tree; returns its root.

        Each node's packed-bounds cache is pointed at its slice of
        ``entry_bounds`` instead of a private copy.
        """
        nodes = [Node(level=level) for level in self.levels]
        offsets, items = self.offsets, self.items
        entry_bounds = self.entry_bounds
        for position, node in enumerate(nodes):
            start, stop = offsets[position], offsets[position + 1]
            rows = entry_bounds[start:stop]
            child_ids = self.entry_children[start:stop].tolist()
            children = child_ids
            if not node.is_leaf:
                children = [nodes[child] for child in child_ids]
            elif items is not None:
                children = [items[child] for child in child_ids]
            node.replace_entries([Rect._make(row) for row in rows.tolist()], children)
            # share the packed storage: a zero-copy view, not a rebuilt array
            node._bounds_array = rows
        return nodes[0]

    # ------------------------------------------------------------------
    # whole-tree answers
    # ------------------------------------------------------------------
    @property
    def height(self) -> int:
        return self.levels[0] + 1

    def bounds(self) -> Rect | None:
        """MBR of the whole tree (the union of the root's entries)."""
        root = self.keys[:, : self.offsets[1]]
        if not root.shape[1]:
            return None
        xmin, ymin, xmax, ymax = root.min(axis=1).tolist()
        return Rect(xmin, ymin, -xmax, -ymax)

    def entry_item(self, position: int) -> Any:
        """The item of one leaf entry."""
        item = int(self.entry_children[position])
        return item if self.items is None else self.items[item]

    def entry_items(self, positions: Any) -> list[Any]:
        """The items of several leaf entries."""
        items = self.entry_children[positions].tolist()
        return items if self.items is None else [self.items[item] for item in items]

    def entry(self, position: int) -> tuple[Rect, Any]:
        """The ``(rect, item)`` of one leaf entry."""
        xmin, ymin, xmax, ymax = self.keys[:, position].tolist()
        return Rect(xmin, ymin, -xmax, -ymax), self.entry_item(position)

    def leaf_entries(self) -> Iterator[tuple[Rect, Any]]:
        """All ``(rect, item)`` leaf entries, in storage order."""
        first = self.offsets[len(self.first_child)]
        items = self.entry_children[first:].tolist()
        if self.items is not None:
            items = self.items
        rows = (self.keys[:, first:].T * _KEY_SIGNS).tolist()  # no cached copy of the rows
        return zip(map(Rect._make, rows), items)

    # ------------------------------------------------------------------
    # scoring
    # ------------------------------------------------------------------
    def scorers(
        self, constraints: Sequence[tuple[SpatialPredicate, Rect]]
    ) -> tuple[RangeScorer, RangeScorer]:
        """``(leaf, inner)`` scorers over entry ranges for fixed constraints.

        ``leaf`` counts the constraints an entry *satisfies*, ``inner`` the
        ones a subtree *may* satisfy (the admissible filter).  For the
        all-``intersects`` case the two coincide and the test is a single
        comparison: with entries keyed ``[xmin, ymin, −xmax, −ymax]`` and
        windows ``[wxmax, wymax, −wxmin, −wymin]`` an entry intersects a
        window iff all four ``key <= window key`` hold.  Keys are stored one
        coordinate per row, so the comparison and the two reductions all run
        over contiguous entry ranges.
        """
        window_keys = _intersects_window_keys(constraints)
        if window_keys is not None:
            keys = self.keys
            all_four = np.logical_and.reduce
            if len(constraints) == 1:
                window = np.array(window_keys).reshape(4, 1)

                def score(start: int, stop: int) -> np.ndarray:
                    return all_four(keys[:, start:stop] <= window).view(np.uint8)

            else:
                windows = np.array(window_keys).reshape(-1, 4).T[:, :, None]
                count = np.add.reduce

                def score(start: int, stop: int) -> np.ndarray:
                    return count(all_four(keys[:, None, start:stop] <= windows))

            return score, score
        bounds = self.entry_bounds
        leaf_scorer = make_count_scorer(constraints, "test")
        inner_scorer = make_count_scorer(constraints, "filter")
        return (
            lambda start, stop: leaf_scorer(bounds[start:stop]),
            lambda start, stop: inner_scorer(bounds[start:stop]),
        )

    def window_hits(
        self, constraints: Sequence[tuple[SpatialPredicate, Rect]]
    ) -> tuple[RangeScorer, RangeScorer]:
        """``(leaf, inner)`` hit matrices: what :meth:`scorers` sums, unsummed.

        ``hits(start, stop)`` is a ``(len(constraints), stop − start)``
        boolean matrix — row ``w`` marks the entries of the range that
        satisfy (``leaf``) or whose subtree may satisfy (``inner``)
        constraint ``w``.  All-``intersects`` constraint lists are one keyed
        comparison; any other mix stacks the single-constraint scorers,
        which go through ``test_pairs`` / ``filter_pairs``.
        """
        window_keys = _intersects_window_keys(constraints)
        if window_keys is not None:
            keys = self.keys
            all_four = np.logical_and.reduce
            windows = np.array(window_keys).reshape(-1, 4).T[:, :, None]

            def hits(start: int, stop: int) -> np.ndarray:
                return all_four(keys[:, None, start:stop] <= windows)

            return hits, hits
        leaves, inners = zip(*[self.scorers([constraint]) for constraint in constraints])
        return (
            lambda start, stop: np.array([score(start, stop) for score in leaves], dtype=bool),
            lambda start, stop: np.array([score(start, stop) for score in inners], dtype=bool),
        )

    def prefix_counts(self, leaf_score: RangeScorer, inner_score: RangeScorer) -> np.ndarray:
        """The count (or hit-matrix column) of every entry of the BFS prefix."""
        if leaf_score is inner_score:
            return inner_score(0, self.prefix_stop)
        inner_stop = self.prefix_inner_stop
        return np.concatenate(
            [inner_score(0, inner_stop), leaf_score(inner_stop, self.prefix_stop)], axis=-1
        )
