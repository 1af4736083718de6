"""Shared fixtures and hypothesis strategies for the test suite."""

from __future__ import annotations

import os
import random

import pytest
from hypothesis import settings
from hypothesis import strategies as st

from repro import QueryGraph, Rect, RStarTree, bulk_load, hard_instance
from repro.geometry import INTERSECTS
from repro.index.bulk import pack_tree, tree_from_packed
from repro.index.queries import search_predicate

# ----------------------------------------------------------------------
# hypothesis profiles: HYPOTHESIS_PROFILE=deep runs every property that
# does not pin its own example count (CI runs the R*-tree oracle
# properties, tests/test_rstar.py -k MatchOracle, so)
# ----------------------------------------------------------------------
settings.register_profile("deep", max_examples=600, deadline=None)
settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "default"))

# ----------------------------------------------------------------------
# hypothesis strategies
# ----------------------------------------------------------------------
finite_coord = st.floats(
    min_value=-100.0, max_value=100.0, allow_nan=False, allow_infinity=False
)


@st.composite
def rects(draw, min_size: float = 0.0, max_size: float = 50.0):
    """A well-formed Rect with sides in [min_size, max_size]."""
    x = draw(finite_coord)
    y = draw(finite_coord)
    width = draw(st.floats(min_value=min_size, max_value=max_size))
    height = draw(st.floats(min_value=min_size, max_value=max_size))
    return Rect(x, y, x + width, y + height)


@st.composite
def rect_lists(draw, min_length: int = 1, max_length: int = 40):
    return draw(st.lists(rects(), min_size=min_length, max_size=max_length))


# ----------------------------------------------------------------------
# the ways a tree reaches a reader: ``builder(entries, max_entries)``
# (``bulk_load`` itself is the fifth)
# ----------------------------------------------------------------------
def _inserted(entries, max_entries):
    tree = RStarTree(max_entries=max_entries)
    for rect, item in entries:
        tree.insert(rect, item)
    return tree


def _unpacked(entries, max_entries):
    return tree_from_packed(**pack_tree(bulk_load(entries, max_entries=max_entries)))


def _never_inflated(entries, max_entries):
    """What a warm worker holds: read-only arrays, never asked for a node."""
    packed = pack_tree(_inserted(entries, max_entries))
    arrays = []
    for name in ("entry_bounds", "entry_children", "node_offsets", "node_levels"):
        frozen = packed[name].copy()
        frozen.flags.writeable = False
        arrays.append(frozen)
    return tree_from_packed(*arrays, packed["meta"])


def _remutated(entries, max_entries):
    """Inserted, packed by a read, mutated again: the second read must see a
    fresh packed form, not the dropped one."""
    half = len(entries) // 2
    tree = _inserted(entries[:half] + [(Rect(0, 0, 1, 1), -1)], max_entries)
    list(search_predicate(tree, INTERSECTS, Rect(0, 0, 1, 1)))
    assert tree.delete(Rect(0, 0, 1, 1), -1)
    for rect, item in entries[half:]:
        tree.insert(rect, item)
    return tree


# ----------------------------------------------------------------------
# fixtures
# ----------------------------------------------------------------------
@pytest.fixture
def rng():
    return random.Random(0xC0FFEE)


@pytest.fixture
def tiny_clique_instance():
    """4-variable clique over 60-object datasets: brute-forceable."""
    return hard_instance(QueryGraph.clique(4), cardinality=60, seed=42)


@pytest.fixture
def tiny_chain_instance():
    """4-variable chain over 60-object datasets: brute-forceable."""
    return hard_instance(QueryGraph.chain(4), cardinality=60, seed=43)


@pytest.fixture
def small_clique_instance():
    """5-variable clique over 400-object datasets: fast heuristics."""
    return hard_instance(QueryGraph.clique(5), cardinality=400, seed=7)
