"""Experiment-driver and figure entry-point tests with tiny budgets."""

import functools
import importlib.util
import os

import pytest

from repro.bench import runner
from repro.bench.ledger import read_ledger
from repro.bench.runner import (
    Fig10aConfig,
    Fig10bConfig,
    Fig10cConfig,
    Fig11Config,
    default_heuristics,
    run_fig10a,
    run_fig10b,
    run_fig10c,
    run_fig11,
)


class TestFig10a:
    def test_grid_shape_and_ranges(self):
        config = Fig10aConfig(
            query_types=("chain", "clique"),
            variable_counts=(3, 4),
            cardinality=100,
            time_per_variable=0.05,
            repetitions=2,
            seed=1,
        )
        rows = run_fig10a(config)
        assert len(rows) == 4
        for row in rows:
            assert row["query"] in ("chain", "clique")
            assert row["n"] in (3, 4)
            assert row["density"] > 0
            for algorithm in ("ILS", "GILS", "SEA"):
                assert 0.0 <= row[algorithm] <= 1.0

    def test_time_limit_scales_with_n(self):
        config = Fig10aConfig(
            query_types=("chain",),
            variable_counts=(3, 5),
            cardinality=60,
            time_per_variable=0.02,
            repetitions=1,
        )
        rows = run_fig10a(config)
        assert rows[0]["time_limit"] == pytest.approx(0.06)
        assert rows[1]["time_limit"] == pytest.approx(0.10)


class TestFig10b:
    def test_staircases_are_monotone(self):
        config = Fig10bConfig(
            query_types=("chain",),
            num_variables=4,
            cardinality=100,
            time_limits={"chain": 0.3},
            grid_points=5,
            repetitions=2,
            seed=2,
        )
        output = run_fig10b(config)
        data = output["chain"]
        assert len(data["grid"]) == 5
        for name, series in data["series"].items():
            assert len(series) == 5
            assert series == sorted(series), f"{name} staircase not monotone"
            assert all(0.0 <= value <= 1.0 for value in series)


class TestFig10c:
    def test_rows_cover_solution_grid(self):
        config = Fig10cConfig(
            num_variables=4,
            cardinality=100,
            expected_solutions=(1.0, 100.0),
            time_limit=0.1,
            repetitions=1,
            seed=3,
        )
        rows = run_fig10c(config)
        assert [row["Sol"] for row in rows] == [1.0, 100.0]
        # density must grow with the solution target
        assert rows[1]["density"] > rows[0]["density"]

    def test_more_solutions_means_easier(self):
        config = Fig10cConfig(
            num_variables=4,
            cardinality=120,
            expected_solutions=(1.0, 1e4),
            time_limit=0.2,
            repetitions=2,
            seed=4,
        )
        rows = run_fig10c(config)
        # with 10⁴ expected solutions every heuristic should do at least as
        # well as in the 1-solution hard region
        assert rows[1]["ILS"] >= rows[0]["ILS"] - 0.15


class TestFig11:
    def test_rows_and_exactness(self):
        config = Fig11Config(
            variable_counts=(3,),
            cardinality=60,
            ils_time=0.05,
            sea_time_per_variable=0.05,
            ibb_time_cap=20.0,
            repetitions=2,
            seed=5,
        )
        rows = run_fig11(config)
        [row] = rows
        assert row["n"] == 3
        for label in ("IBB", "ILS+IBB", "SEA+IBB"):
            assert row[label] >= 0.0
            exact, total = row[f"{label} exact"].split("/")
            assert int(total) == 2
            assert int(exact) == 2  # planted instances must be solved exactly


class TestDefaults:
    def test_default_heuristics_names(self):
        assert set(default_heuristics()) == {"ILS", "GILS", "SEA"}


# ----------------------------------------------------------------------
# python -m repro.bench.runner FIG
# ----------------------------------------------------------------------
RUNS = os.path.join(os.path.dirname(__file__), os.pardir, "runs")

#: base values small enough for the entry point to run in about a second
TINY = {
    "fig10a": (Fig10aConfig, dict(variable_counts=(3,), cardinality=100,
                                  time_per_variable=0.05, repetitions=1, seed=1)),
    "fig10b": (Fig10bConfig, dict(query_types=("chain",), num_variables=4, cardinality=100,
                                  time_limits={"chain": 0.3}, grid_points=5, repetitions=1,
                                  seed=2)),
    "fig10c": (Fig10cConfig, dict(num_variables=4, cardinality=100, time_limit=0.1,
                                  expected_solutions=(1.0, 100.0), repetitions=1, seed=3)),
    # seed 0: plain IBB needs about 0.2 s on this instance and the two-step
    # methods a few ms, so the "SEA+IBB within 2x IBB" check holds by far
    "fig11": (Fig11Config, dict(variable_counts=(4,), cardinality=100, ils_time=0.05,
                                sea_time_per_variable=0.05, ibb_time_cap=20.0,
                                repetitions=1, seed=0)),
}

#: what runs/FIG/to_csv.py splits out of each section name, and the meta
#: keys each figure's rows carry
SECTION_PARTS = {"fig10a": 3, "fig10b": 2, "fig10c": 2, "fig11": 2}
META_KEYS = {
    "fig10a": {"query", "n", "density", "time_limit", "node_reads"},
    "fig10b": {"query", "grid", "series"},
    "fig10c": {"Sol", "density"},
    "fig11": {"n", "exact"},
}


@pytest.fixture
def run_dir(tmp_path, monkeypatch):
    """A ``runs/FIG``-like directory: ledger rows go to raw/, at scale 1."""
    monkeypatch.delenv("REPRO_BENCH_SCALE", raising=False)
    monkeypatch.setenv("REPRO_LEDGER_PATH", str(tmp_path / "raw" / "ledger.jsonl"))
    (tmp_path / "raw").mkdir()
    return tmp_path


class TestEntryPoint:
    @pytest.mark.parametrize("figure", sorted(TINY))
    def test_rows_feed_to_csv(self, figure, run_dir, monkeypatch, capsys):
        config_class, tiny = TINY[figure]
        monkeypatch.setattr(runner, config_class.__name__, functools.partial(config_class, **tiny))
        assert runner.main([figure]) == 0
        assert "Figure" in capsys.readouterr().out

        ledger = run_dir / "raw" / f"{figure}.jsonl"
        (run_dir / "raw" / "ledger.jsonl").rename(ledger)
        rows = read_ledger(str(ledger))  # validates every row
        assert rows
        for row in rows:
            assert row["bench"] == figure and row["better"] is None
            assert len(row["section"].split("/")) == SECTION_PARTS[figure]
            assert set(row["meta"]) == META_KEYS[figure]
            assert row["env"]["scale"] == 1.0
        spec = importlib.util.spec_from_file_location(
            f"to_csv_{figure}", os.path.join(RUNS, figure, "to_csv.py"))
        to_csv = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(to_csv)
        monkeypatch.setattr(to_csv, "HERE", str(run_dir))
        to_csv.main()
        assert (run_dir / "results.csv").read_text().count("\n") > 1

    def test_similarity_above_one_fails(self, run_dir, monkeypatch, capsys):
        row = {"query": "chain", "n": 3, "density": 0.1, "time_limit": 0.3}
        for algorithm, value in (("ILS", 1.5), ("GILS", 1.0), ("SEA", 1.0)):
            row[algorithm] = value
            row[f"{algorithm} node_reads"] = 0
        monkeypatch.setattr(runner, "run_fig10a", lambda config: [row])
        assert runner.main(["fig10a"]) == 1
        assert "chain/n=3/ILS: similarity 1.5" in capsys.readouterr().err

    def test_missed_planted_solution_fails(self, run_dir, monkeypatch, capsys):
        row = {"n": 4, "IBB": 1.0, "ILS+IBB": 0.5, "SEA+IBB": 0.5,
               "IBB exact": "2/2", "ILS+IBB exact": "1/2", "SEA+IBB exact": "2/2"}
        monkeypatch.setattr(runner, "run_fig11", lambda config: [row])
        assert runner.main(["fig11"]) == 1
        err = capsys.readouterr().err
        assert "n=4/ILS+IBB: found the planted solution in 1/2 runs" in err
        assert "SEA+IBB: found" not in err
