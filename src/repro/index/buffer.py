"""Buffer-pool simulation: page-access accounting for index traversals.

The paper's systematic-join literature costs algorithms in *page accesses*
([MP99]: "a join order that is expected to result in the minimum cost (in
terms of page accesses)") under the classic assumption of one R-tree node
per disk page.  This module adds that measurement to the library without
changing any algorithm: attach a :class:`BufferPool` to a tree and every
traversal (window queries, ``find_best_value``, joins) reports LRU
hits/misses, i.e. simulated disk reads.

Usage::

    pool = BufferPool(capacity=128)
    dataset.tree.pager = pool
    ... run any workload ...
    print(pool.misses, pool.hit_ratio())

A single pool may be shared by several trees (a common buffer, the usual
DBMS setup): every reader of the packed arrays — window queries,
``find_best_value``, synchronous traversal, the pairwise join — names a page
``(id(packed), node index)``, so pages of distinct trees never alias and a
node touched by two readers is one page (k-NN, which still walks the node
graph, names ``id(node)``).
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Hashable

__all__ = ["BufferPool"]


class BufferPool:
    """An LRU page buffer with hit/miss accounting.

    Purely a *simulator*: nothing is stored, only residency is tracked.
    ``capacity`` is in pages (= R-tree nodes).
    """

    def __init__(self, capacity: int):
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        self.capacity = capacity
        self._resident: OrderedDict[Hashable, None] = OrderedDict()
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    def access(self, page_id: Hashable) -> bool:
        """Touch one page; returns True on a buffer hit."""
        if page_id in self._resident:
            self._resident.move_to_end(page_id)
            self.hits += 1
            return True
        self.misses += 1
        self._resident[page_id] = None
        if len(self._resident) > self.capacity:
            self._resident.popitem(last=False)
            self.evictions += 1
        return False

    def __len__(self) -> int:
        """Pages currently resident."""
        return len(self._resident)

    def __contains__(self, page_id: Hashable) -> bool:
        return page_id in self._resident

    @property
    def accesses(self) -> int:
        return self.hits + self.misses

    def hit_ratio(self) -> float:
        """Fraction of accesses served from the buffer (0.0 when idle)."""
        total = self.accesses
        return self.hits / total if total else 0.0

    def reset_counters(self) -> None:
        """Zero the counters but keep buffer contents (warm restart)."""
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    def clear(self) -> None:
        """Empty the buffer and zero the counters (cold restart)."""
        self._resident.clear()
        self.reset_counters()

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"BufferPool(capacity={self.capacity}, resident={len(self)}, "
            f"hits={self.hits}, misses={self.misses})"
        )
