"""Shared fixtures and hypothesis strategies for the test suite."""

from __future__ import annotations

import os
import random
from functools import partial

import pytest
from hypothesis import settings
from hypothesis import strategies as st

from repro import QueryGraph, Rect, RStarTree, bulk_load, hard_instance
from repro.core.best_value import ProbeMemo, find_best_value
from repro.core.ibb import WindowMemo
from repro.geometry import INTERSECTS
from repro.index.bulk import pack_tree, tree_from_packed
from repro.index.queries import search_predicate

# ----------------------------------------------------------------------
# hypothesis profiles: HYPOTHESIS_PROFILE=deep runs every property that
# does not pin its own example count (CI runs the R*-tree oracle
# properties, tests/test_rstar.py -k MatchOracle, the probe memo's,
# tests/test_best_value.py -k ProbeMemo, and the window memo's,
# tests/test_ibb.py -k WindowMemo, so)
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


@pytest.fixture
def without_memo(monkeypatch):
    """``without_memo(search, *args, **kwargs)`` runs a heuristic with its
    probe memo a pass-through: every probe is a fresh ``find_best_value``."""

    def descend_every_probe(memo, state, variable, floor):
        penalties = memo._penalties
        penalty = None if penalties is None else partial(penalties.weighted, variable)
        return find_best_value(
            memo._trees[variable], state.constraint_windows(variable), floor, penalty
        )

    def run(search, *args, **kwargs):
        with monkeypatch.context() as patch:
            patch.setattr(ProbeMemo, "probe", descend_every_probe)
            return search(*args, **kwargs)

    return run


@pytest.fixture
def without_window_memo(monkeypatch):
    """``without_window_memo(search, *args, **kwargs)`` runs IBB with its
    window memo a pass-through: every candidate list comes from fresh
    per-edge window queries, one per instantiated neighbour."""
    candidates = WindowMemo.candidates

    def query_every_edge(memo, depth, values):
        memo._hits.clear()
        memo._shared_keys[depth] = -1
        return candidates(memo, depth, values)

    def run(search, *args, **kwargs):
        with monkeypatch.context() as patch:
            patch.setattr(WindowMemo, "candidates", query_every_edge)
            return search(*args, **kwargs)

    return run


@pytest.fixture
def memo_ab(without_memo):
    """``memo_ab(search, instance, budget, **kwargs)`` → the run with its
    probe memo and the same run without it (each on a fresh copy of
    ``budget``)."""

    def run(search, instance, budget, **kwargs):
        memoised = search(instance, budget.spawn(), **kwargs)
        return memoised, without_memo(search, instance, budget.spawn(), **kwargs)

    return run


def assert_memo_changed_nothing(memoised, plain, *stats):
    """Same run with and without the memo; the memo only saved descents."""
    assert memoised.best_assignment == plain.best_assignment
    assert memoised.best_violations == plain.best_violations
    assert memoised.iterations == plain.iterations
    for key in stats:
        assert memoised.stats[key] == plain.stats[key], key
    probes = memoised.stats["probes"]
    assert probes["asked"] == plain.stats["index"]["best_value_searches"]
    assert memoised.stats["index"]["best_value_searches"] == (
        probes["asked"] - probes["answered"]
    )
