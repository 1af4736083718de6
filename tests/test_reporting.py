"""Benchmark table rendering tests."""

from repro.bench import format_table


class TestFormatTable:
    def test_alignment_and_precision(self):
        text = format_table(
            "Title",
            ["n", "sim"],
            [[5, 0.123456], [25, 1.0]],
            precision=3,
        )
        lines = text.splitlines()
        assert lines[0] == "Title"
        assert "n" in lines[1] and "sim" in lines[1]
        assert "0.123" in text
        assert "1.000" in text
        # header separator line present
        assert set(lines[2]) <= {"-", " "}

    def test_empty_rows(self):
        text = format_table("Empty", ["a", "b"], [])
        assert "Empty" in text
        assert "a" in text

    def test_strings_and_ints_pass_through(self):
        text = format_table("T", ["q", "k"], [["clique", 10]])
        assert "clique" in text
        assert "10" in text

    def test_columns_align(self):
        text = format_table("T", ["aaa", "b"], [[1, 2], [333, 4]])
        lines = text.splitlines()
        widths = {len(line) for line in lines[1:]}
        assert len(widths) == 1  # all rows padded to the same width


class TestWriteCsv:
    def test_roundtrip(self, tmp_path):
        import csv

        from repro.bench import write_csv

        path = tmp_path / "rows.csv"
        write_csv(path, ["n", "sim"], [[5, 0.5], [10, 0.75]])
        with open(path, newline="") as handle:
            rows = list(csv.reader(handle))
        assert rows == [["n", "sim"], ["5", "0.5"], ["10", "0.75"]]
