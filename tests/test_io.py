"""Dataset persistence round-trip tests."""

import random

import numpy as np
import pytest

from repro import Rect, load_csv, load_npz, save_csv, save_npz, uniform_dataset
from repro.data import SpatialDataset
from repro.geometry import RectColumns
from repro.index.queries import search_items


@pytest.fixture
def dataset():
    return uniform_dataset(200, 0.15, random.Random(0), name="roundtrip")


class TestNpz:
    def test_roundtrip_exact(self, dataset, tmp_path):
        path = tmp_path / "data.npz"
        save_npz(dataset, path)
        loaded = load_npz(path)
        assert loaded.rects == dataset.rects
        assert loaded.name == dataset.name
        assert loaded.workspace == dataset.workspace

    def test_loaded_index_works(self, dataset, tmp_path):
        path = tmp_path / "data.npz"
        save_npz(dataset, path)
        loaded = load_npz(path)
        window = Rect(0.25, 0.25, 0.75, 0.75)
        assert set(search_items(loaded.tree, window)) == set(
            search_items(dataset.tree, window)
        )

    def test_custom_workspace_preserved(self, tmp_path):
        workspace = Rect(-5, -5, 5, 5)
        original = SpatialDataset(
            [Rect(-1, -1, 1, 1), Rect(0, 0, 2, 2)], workspace=workspace
        )
        path = tmp_path / "ws.npz"
        save_npz(original, path)
        assert load_npz(path).workspace == workspace


class TestCsv:
    def test_roundtrip_exact(self, dataset, tmp_path):
        path = tmp_path / "data.csv"
        save_csv(dataset, path)
        loaded = load_csv(path, name="roundtrip")
        assert loaded.rects == dataset.rects
        assert loaded.name == "roundtrip"

    def test_name_defaults_to_stem(self, dataset, tmp_path):
        path = tmp_path / "rivers.csv"
        save_csv(dataset, path)
        assert load_csv(path).name == "rivers"

    def test_header_is_optional(self, tmp_path):
        path = tmp_path / "raw.csv"
        path.write_text("0.0,0.0,1.0,1.0\n0.5,0.5,2.0,2.0\n")
        loaded = load_csv(path)
        assert loaded.rects == [Rect(0, 0, 1, 1), Rect(0.5, 0.5, 2, 2)]

    def test_rejects_wrong_column_count(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("0.0,0.0,1.0\n")
        with pytest.raises(ValueError, match="expected 4 columns"):
            load_csv(path)

    def test_rejects_malformed_rect(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("1.0,0.0,0.0,1.0\n")
        with pytest.raises(ValueError):
            load_csv(path)

    def test_rejects_empty_file(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("xmin,ymin,xmax,ymax\n")
        with pytest.raises(ValueError, match="no rectangles"):
            load_csv(path)


BAD_ROWS = {
    "nan": (float("nan"), 0.0, 1.0, 1.0),
    "infinite": (0.0, 0.0, float("inf"), 1.0),
    "inverted_x": (1.0, 0.0, 0.5, 1.0),
    "inverted_y": (0.0, 1.0, 1.0, 0.5),
}


@pytest.mark.parametrize("bad", sorted(BAD_ROWS))
class TestEveryLoaderValidates:
    """One vectorised check (``RectColumns.validate``) behind every way in;
    the message names the file and the first bad row."""

    ROWS = [(0.0, 0.0, 1.0, 1.0)] * 3

    def table(self, bad):
        return np.array(self.ROWS + [BAD_ROWS[bad]] + self.ROWS)

    def test_npz(self, bad, tmp_path):
        path = tmp_path / "bad.npz"
        np.savez_compressed(
            path, coordinates=self.table(bad), workspace=np.array([0.0, 0, 1, 1]),
            name=np.array("bad"),
        )
        with pytest.raises(ValueError, match=r"bad\.npz: row 3\b"):
            load_npz(path)

    def test_csv(self, bad, tmp_path):
        path = tmp_path / "bad.csv"
        lines = [",".join(repr(c) for c in row) for row in self.table(bad).tolist()]
        path.write_text("xmin,ymin,xmax,ymax\n" + "\n".join(lines) + "\n")
        with pytest.raises(ValueError, match=r"bad\.csv: row 3\b"):
            load_csv(path)

    def test_dataset(self, bad):
        with pytest.raises(ValueError, match=r"row 3\b"):
            SpatialDataset(RectColumns.from_bounds(self.table(bad)))
        with pytest.raises(ValueError, match=r"row 3\b"):
            SpatialDataset([Rect(*row) for row in self.table(bad).tolist()])


class TestRebuiltIndexEquivalence:
    """A reloaded dataset's rebuilt R*-tree answers queries identically.

    Persistence stores only the rectangles; the index is rebuilt on load.
    These tests pin down that the rebuild changes nothing observable: a
    fixed workload of window queries returns exactly the same item sets
    through the rebuilt tree as through the original, for every format
    (npz, csv with header, csv without header).
    """

    WINDOWS = [
        Rect(0.1 * k, 0.07 * k, 0.1 * k + 0.2, 0.07 * k + 0.3) for k in range(8)
    ] + [Rect(0.0, 0.0, 1.0, 1.0), Rect(0.45, 0.45, 0.55, 0.55)]

    def answers(self, dataset):
        return [
            sorted(search_items(dataset.tree, window)) for window in self.WINDOWS
        ]

    def test_npz_rebuild_answers_identically(self, dataset, tmp_path):
        path = tmp_path / "data.npz"
        save_npz(dataset, path)
        assert self.answers(load_npz(path)) == self.answers(dataset)

    def test_csv_rebuild_answers_identically(self, dataset, tmp_path):
        path = tmp_path / "data.csv"
        save_csv(dataset, path)
        assert self.answers(load_csv(path)) == self.answers(dataset)

    def test_headerless_csv_matches_header_csv(self, dataset, tmp_path):
        with_header = tmp_path / "header.csv"
        save_csv(dataset, with_header)
        lines = with_header.read_text().splitlines()
        headerless = tmp_path / "raw.csv"
        headerless.write_text("\n".join(lines[1:]) + "\n")
        assert self.answers(load_csv(headerless)) == self.answers(
            load_csv(with_header)
        )

    def test_npz_and_csv_agree(self, dataset, tmp_path):
        npz_path = tmp_path / "data.npz"
        csv_path = tmp_path / "data.csv"
        save_npz(dataset, npz_path)
        save_csv(dataset, csv_path)
        assert self.answers(load_npz(npz_path)) == self.answers(load_csv(csv_path))
