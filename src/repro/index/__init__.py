"""R*-tree index substrate: nodes, dynamic tree, bulk loading, queries."""

from .node import Node
from .packed import PackedTree
from .rstar import DEFAULT_MAX_ENTRIES, RStarTree
from .bulk import bulk_load, bulk_load_bounds, pack_nodes
from .queries import (
    count,
    nearest_neighbors,
    search,
    search_items,
    search_predicate,
    search_windows,
)
from .stats import TreeStats
from .buffer import BufferPool
from .costmodel import LevelStats, predicted_node_accesses, tree_level_stats

__all__ = [
    "BufferPool",
    "LevelStats",
    "predicted_node_accesses",
    "tree_level_stats",
    "Node",
    "PackedTree",
    "RStarTree",
    "DEFAULT_MAX_ENTRIES",
    "bulk_load",
    "bulk_load_bounds",
    "pack_nodes",
    "search",
    "search_items",
    "search_predicate",
    "search_windows",
    "count",
    "nearest_neighbors",
    "TreeStats",
]
