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
