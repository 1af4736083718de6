"""Query / instance serialisation round trips."""

import json

import pytest

from repro import Budget, QueryGraph, hard_instance, indexed_local_search, planted_instance
from repro.geometry import INSIDE, NORTHEAST, WithinDistance
from repro.query import (
    load_instance,
    query_from_dict,
    query_to_dict,
    save_instance,
)


class TestQueryDictRoundTrip:
    def test_plain_clique(self):
        query = QueryGraph.clique(4)
        restored = query_from_dict(query_to_dict(query))
        assert restored.num_variables == 4
        assert list(restored.edges()) == list(query.edges())

    def test_mixed_predicates(self):
        query = QueryGraph(4)
        query.add_edge(0, 1)
        query.add_edge(1, 2, INSIDE)
        query.add_edge(2, 3, WithinDistance(0.25))
        query.add_edge(0, 3, NORTHEAST)
        restored = query_from_dict(query_to_dict(query))
        assert list(restored.edges()) == list(query.edges())

    def test_dict_is_json_serialisable(self):
        query = QueryGraph(3).add_edge(0, 1, WithinDistance(0.1)).add_edge(1, 2)
        payload = json.dumps(query_to_dict(query))
        restored = query_from_dict(json.loads(payload))
        assert list(restored.edges()) == list(query.edges())


class TestInstanceRoundTrip:
    def test_hard_instance(self, tmp_path):
        instance = hard_instance(QueryGraph.clique(3), 80, seed=1)
        save_instance(instance, tmp_path / "inst")
        restored = load_instance(tmp_path / "inst")
        assert restored.num_variables == 3
        assert restored.density == pytest.approx(instance.density)
        assert restored.expected_solutions == pytest.approx(
            instance.expected_solutions
        )
        for original, loaded in zip(instance.datasets, restored.datasets):
            assert original.rects == loaded.rects

    def test_columns_and_packed_keys_round_trip_bit_for_bit(self, tmp_path):
        instance = hard_instance(QueryGraph.clique(3), 700, seed=5, extent_jitter=0.3)
        save_instance(instance, tmp_path / "inst")
        restored = load_instance(tmp_path / "inst")
        for original, loaded in zip(instance.datasets, restored.datasets):
            for mine, theirs in zip(original.columns.as_tuple(), loaded.columns.as_tuple()):
                assert mine.tobytes() == theirs.tobytes()
            built, rebuilt = original.tree.packed(), loaded.tree.packed()
            assert built.keys.tobytes() == rebuilt.keys.tobytes()
            assert built.entry_children.tobytes() == rebuilt.entry_children.tobytes()
            assert built.node_offsets.tobytes() == rebuilt.node_offsets.tobytes()

    def test_planted_instance_keeps_planted_tuple(self, tmp_path):
        instance = planted_instance(QueryGraph.clique(3), 60, seed=2)
        save_instance(instance, tmp_path / "inst")
        restored = load_instance(tmp_path / "inst")
        assert restored.planted == instance.planted

    def test_search_reproduces_on_loaded_instance(self, tmp_path):
        instance = hard_instance(QueryGraph.chain(4), 100, seed=3)
        save_instance(instance, tmp_path / "inst")
        restored = load_instance(tmp_path / "inst")
        a = indexed_local_search(instance, Budget.iterations(150), seed=9)
        b = indexed_local_search(restored, Budget.iterations(150), seed=9)
        assert a.best_assignment == b.best_assignment

    def test_unsupported_format_rejected(self, tmp_path):
        instance = hard_instance(QueryGraph.chain(3), 30, seed=4)
        manifest = save_instance(instance, tmp_path / "inst")
        payload = json.loads(manifest.read_text())
        payload["format"] = "repro-instance/999"
        manifest.write_text(json.dumps(payload))
        with pytest.raises(ValueError, match="unsupported format"):
            load_instance(tmp_path / "inst")

    def test_metadata_round_trip(self, tmp_path):
        instance = hard_instance(QueryGraph.chain(3), 30, seed=5)
        instance.metadata["note"] = "fig11 cell n=3"
        save_instance(instance, tmp_path / "inst")
        assert load_instance(tmp_path / "inst").metadata == {"note": "fig11 cell n=3"}
