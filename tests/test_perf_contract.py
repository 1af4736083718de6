"""The ``repro`` surface the outside benchmark (``perf/``) stands on.

``perf/*.py`` may not change in a PR that claims a gain, so every name it
imports and every call shape it uses must keep working.  This test fails in
tier-1 what would otherwise fail only in the benchmark driver: it parses the
benchmark's sources for ``from repro… import name`` and resolves each, then
exercises the index call shapes ``perf/layers.py`` and ``perf/library.py``
rely on.
"""

import ast
import importlib
import random
from pathlib import Path

import numpy as np
import pytest

PERF = Path(__file__).resolve().parent.parent / "perf"


def repro_imports():
    found = set()
    for source in sorted(PERF.glob("*.py")):
        for node in ast.walk(ast.parse(source.read_text(), filename=str(source))):
            if isinstance(node, ast.ImportFrom) and node.level == 0 and node.module:
                if node.module == "repro" or node.module.startswith("repro."):
                    found.update((source.name, node.module, alias.name) for alias in node.names)
    return sorted(found)


def test_perf_sources_are_found():
    assert len(repro_imports()) > 30


@pytest.mark.parametrize("source,module,name", repro_imports())
def test_every_imported_name_resolves(source, module, name):
    assert hasattr(importlib.import_module(module), name), f"{source}: {module}.{name}"


def test_index_call_shapes():
    from repro import Rect, RStarTree, bulk_load, search
    from repro.index.bulk import pack_tree, tree_from_packed

    rng = random.Random(0)
    rects = [Rect.from_center(rng.random(), rng.random(), 0.05, 0.05) for _ in range(500)]
    entries = [(rect, object_id) for object_id, rect in enumerate(rects)]
    tree = bulk_load(entries)
    assert tree.height == 2 and len(tree) == 500

    packed = pack_tree(tree)
    assert len(packed["meta"]) == 4
    assert len(packed["node_levels"]) == len(packed["node_offsets"]) - 1
    arrays = (
        packed["entry_bounds"], packed["entry_children"],
        packed["node_offsets"], packed["node_levels"], packed["meta"],
    )
    window = rects[7]
    expected = sorted(item for item, rect in enumerate(rects) if rect.intersects(window))
    for rebuilt in (tree_from_packed(*arrays), tree_from_packed(**packed)):
        before = rebuilt.stats.node_reads
        hits = list(search(rebuilt, window))
        assert sorted(item for _rect, item in hits) == expected
        assert all(rect == rects[item] for rect, item in hits)
        assert rebuilt.stats.node_reads > before
        assert rebuilt.height == tree.height

    node_rows = tree.root.bounds_array()
    assert isinstance(node_rows, np.ndarray) and node_rows.shape == (len(tree.root), 4)

    grown = RStarTree()
    for rect, object_id in entries[:100]:
        grown.insert(rect, object_id)
    assert len(grown) == 100 and grown.stats.inserts == 100
    assert sorted(item for _rect, item in search(grown, window)) == [
        item for item in expected if item < 100
    ]


def test_insert_built_dataset_shape():
    """``perf/library.py`` hands ``SpatialDataset`` a tree grown by inserts."""
    from repro import Rect, RStarTree, SpatialDataset, find_best_value
    from repro.geometry import INTERSECTS

    rng = random.Random(1)
    rects = [Rect.from_center(rng.random(), rng.random(), 0.1, 0.1) for _ in range(120)]
    tree = RStarTree()
    for object_id, rect in enumerate(rects):
        tree.insert(rect, object_id)
    dataset = SpatialDataset(rects, name="grown", tree=tree)
    found = find_best_value(dataset.tree, [(INTERSECTS, rects[3])], floor_score=0.0)
    assert found is not None and rects[found.item].intersects(rects[3])
    assert dataset.tree.stats.best_value_searches == 1


def exact_side_sources():
    src = PERF.parent / "src" / "repro"
    return sorted(src.glob("core/*.py")) + sorted(src.glob("joins/*.py"))


@pytest.mark.parametrize(
    "source", exact_side_sources(), ids=lambda path: f"{path.parent.name}/{path.name}"
)
def test_core_and_joins_read_trees_through_packed_arrays(source):
    """No module of the engine or the join baselines walks the node graph:
    none imports ``repro.index.node`` or reads a tree's ``.root`` (which
    would inflate one).  ``RStarTree.root`` and ``Node.bounds_array()``
    themselves stay — ``perf/layers.py`` calls them."""
    for node in ast.walk(ast.parse(source.read_text(), filename=str(source))):
        if isinstance(node, ast.ImportFrom):
            module = node.module or ""
            names = {alias.name for alias in node.names}
            assert not module.endswith("index.node"), f"{source}:{node.lineno}"
            assert not (module.endswith("index") and names & {"node", "Node"}), f"{source}:{node.lineno}"
        elif isinstance(node, ast.Import):
            assert not any(alias.name.endswith("index.node") for alias in node.names)
        elif isinstance(node, ast.Attribute):
            assert node.attr != "root", f"{source}:{node.lineno} reads .root"


def test_the_guard_sees_the_sources():
    names = {path.name for path in exact_side_sources()}
    assert {"ibb.py", "best_value.py", "st.py", "pairwise.py", "wr.py", "pjm.py"} <= names


# ----------------------------------------------------------------------
# the object table is columns: what it may cost, and what the frozen
# harness still does with it
# ----------------------------------------------------------------------
def _retained_bytes(build):
    """Bytes still allocated after ``build()`` returns, and its result."""
    import tracemalloc

    tracemalloc.start()
    try:
        before, _peak = tracemalloc.get_traced_memory()
        result = build()
        after, _peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return after - before, result


def test_a_dataset_costs_under_120_bytes_per_object():
    """Columns (32 B) + the packed tree's keys and item ids (≈ 43 B); with a
    list of ``Rect`` as the table this window read ≈ 230 B, 265 B once the
    columns were packed beside it."""
    from repro import uniform_dataset

    count = 20_000
    retained, dataset = _retained_bytes(
        lambda: uniform_dataset(count, 0.3, random.Random(0), extent_jitter=0.2)
    )
    assert len(dataset) == count
    assert retained <= 120 * count


def test_rect_views_retain_nothing():
    from repro import QueryEvaluator, QueryGraph, hard_instance

    instance = hard_instance(QueryGraph.clique(3), 5_000, seed=1)
    evaluator = QueryEvaluator(instance)
    dataset = instance.datasets[0]

    def read_twice():
        for _ in range(2):
            rows = list(dataset.rects)
            assert rows[17] == dataset[17] == evaluator.rects[0][17]
            assert sum(1 for _rect in evaluator.rects[1]) == 5_000
            del rows

    retained, _ = _retained_bytes(read_twice)
    assert retained < 4_096


def test_harness_call_shapes_on_the_columnar_table():
    """``perf/check.py``, ``perf/layers.py``, ``perf/library.py`` and
    ``perf/serving.py`` read ``dataset.rects`` as a sequence of rectangles."""
    import sys

    from repro import QueryGraph, RStarTree, SpatialDataset, bulk_load, hard_instance, search

    sys.path.insert(0, str(PERF))
    try:
        from check import Mirror
    finally:
        sys.path.remove(str(PERF))

    instance = hard_instance(QueryGraph.clique(3), 300, seed=2)
    dataset = instance.datasets[0]
    entries = [(rect, object_id) for object_id, rect in enumerate(dataset.rects)]
    assert len(entries) == 300 and entries[5] == (dataset[5], 5)
    assert len(bulk_load(entries)) == 300
    assert np.array(dataset.rects, dtype=np.float64).shape == (300, 4)

    partner = instance.datasets[1].rects
    window = partner[len(partner) - 1]
    assert {item for _rect, item in search(dataset.tree, window)} == {
        item for item, rect in enumerate(dataset.rects) if rect.intersects(window)
    }

    tree = RStarTree()
    for object_id, rect in enumerate(dataset.rects):
        tree.insert(rect, object_id)
    grown = SpatialDataset(dataset.rects, name=dataset.name, tree=tree)
    assert grown.rects == dataset.rects and grown.tree is tree

    edges = [(i, j) for i, j, _predicate in instance.query.edges()]
    mirror = Mirror([d.rects for d in instance.datasets], edges)
    assert mirror.coordinates[2].shape == (300, 4)
    assert np.array_equal(mirror.coordinates[2], Mirror.of(instance).coordinates[2])
    assert mirror.coordinates[2][9].tolist() == list(instance.datasets[2][9])
