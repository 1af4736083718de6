"""CLI tests (argument parsing + command execution via capsys)."""

import os
import subprocess
import sys

import pytest

import repro

from repro.cli import build_parser, main
from repro.obs import read_trace, summarize_trace


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_solve_arguments(self):
        args = build_parser().parse_args(
            ["solve", "--query", "chain", "--variables", "4", "--algorithm", "ils"]
        )
        assert args.query == "chain"
        assert args.algorithm == "ils"

    def test_rejects_unknown_algorithm(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["solve", "--algorithm", "quantum"])

    @pytest.mark.parametrize("value", ["0", "-1", "-16", "two"])
    @pytest.mark.parametrize("flag", ["--workers", "--restarts"])
    def test_solve_rejects_nonpositive_counts(self, flag, value, capsys):
        # a zero/negative pool size must die in argparse with a clear
        # message, not surface later as a ProcessPoolExecutor crash
        with pytest.raises(SystemExit) as excinfo:
            build_parser().parse_args(["solve", flag, value])
        assert excinfo.value.code == 2
        assert "integer" in capsys.readouterr().err

    def test_serve_rejects_nonpositive_workers(self, capsys):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["serve", "--workers", "0"])
        assert "positive integer" in capsys.readouterr().err

    def test_serve_defaults(self):
        args = build_parser().parse_args(["serve"])
        assert args.command == "serve"
        assert args.port == 0
        assert args.executor == "process"
        assert args.dataset == [] and args.instance == []

    def test_query_requires_port(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["query"])

    def test_query_parses_solve_fields(self):
        args = build_parser().parse_args(
            [
                "query", "--port", "7447", "--instance", "demo",
                "--deadline", "1.5", "--seed", "9", "--no-cache",
            ]
        )
        assert args.op == "solve"
        assert args.deadline == 1.5
        assert args.no_cache is True


class TestSolveCommand:
    def run(self, argv, capsys):
        assert main(argv) == 0
        return capsys.readouterr().out

    @pytest.mark.parametrize("algorithm", ["ils", "gils", "sea", "ibb"])
    def test_solve_each_algorithm(self, algorithm, capsys):
        out = self.run(
            [
                "solve",
                "--query", "clique",
                "--variables", "3",
                "--cardinality", "80",
                "--algorithm", algorithm,
                "--seconds", "0.3",
            ],
            capsys,
        )
        assert "similarity=" in out
        assert "instance:" in out

    def test_solve_portfolio(self, capsys):
        out = self.run(
            [
                "solve",
                "--query", "clique",
                "--variables", "3",
                "--cardinality", "60",
                "--algorithm", "portfolio",
                "--seconds", "0.3",
            ],
            capsys,
        )
        assert "portfolio(" in out

    def test_solve_restarts(self, capsys):
        out = self.run(
            [
                "solve",
                "--query", "clique",
                "--variables", "3",
                "--cardinality", "60",
                "--algorithm", "ils",
                "--restarts", "2",
                "--workers", "1",
                "--seconds", "0.2",
            ],
            capsys,
        )
        assert "parallel(ils×2)" in out

    def test_solve_two_step(self, capsys):
        out = self.run(
            [
                "solve",
                "--query", "clique",
                "--variables", "3",
                "--cardinality", "60",
                "--algorithm", "two-step",
                "--seconds", "0.3",
            ],
            capsys,
        )
        assert "two-step" in out


class TestObservability:
    def solve_with_trace(self, path, capsys, extra=()):
        argv = [
            "solve",
            "--query", "chain",
            "--variables", "4",
            "--cardinality", "200",
            "--algorithm", "gils",
            "--seconds", "0.3",
            "--trace", str(path),
            *extra,
        ]
        assert main(argv) == 0
        return capsys.readouterr().out

    def test_solve_trace_writes_valid_jsonl(self, tmp_path, capsys):
        path = tmp_path / "trace.jsonl"
        out = self.solve_with_trace(path, capsys)
        assert f"trace: {path}" in out
        records = read_trace(str(path))  # validates every line
        types = {record["type"] for record in records}
        assert {"span_open", "span_close", "metric_snapshot"} <= types
        summary = summarize_trace(records)
        assert "solve.run" in summary["phases"]
        assert "gils.run" in summary["phases"]

    def test_solve_metrics_prints_counters(self, tmp_path, capsys):
        path = tmp_path / "trace.jsonl"
        out = self.solve_with_trace(path, capsys, extra=["--metrics"])
        assert "metrics" in out
        assert "index.node_reads" in out

    def test_solve_metrics_without_trace(self, capsys):
        argv = [
            "solve",
            "--query", "clique",
            "--variables", "3",
            "--cardinality", "60",
            "--algorithm", "ils",
            "--seconds", "0.2",
            "--metrics",
        ]
        assert main(argv) == 0
        out = capsys.readouterr().out
        assert "similarity=" in out
        assert "index.node_reads" in out

    def test_trace_summarize(self, tmp_path, capsys):
        path = tmp_path / "trace.jsonl"
        self.solve_with_trace(
            path, capsys, extra=["--restarts", "2", "--workers", "2"]
        )
        assert main(["trace", "summarize", str(path)]) == 0
        out = capsys.readouterr().out
        assert "gils.run" in out
        assert "node reads" in out
        # two parallel members observed
        assert "members" in out

    def test_trace_validate_clean_and_broken(self, tmp_path, capsys):
        path = tmp_path / "trace.jsonl"
        self.solve_with_trace(path, capsys)
        assert main(["trace", "validate", str(path)]) == 0
        assert "schema-valid" in capsys.readouterr().out

        broken = tmp_path / "broken.jsonl"
        broken.write_text('{"v": 1, "type": "unknown_event", "ts": 0, "seq": 0}\n')
        assert main(["trace", "validate", str(broken)]) == 1

    def test_trace_requires_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["trace"])

    def test_trace_summarize_prints_solve_latency(self, tmp_path, capsys):
        from repro.obs import JsonlSink, Observation

        path = tmp_path / "trace.jsonl"
        sink = JsonlSink(str(path))
        observation = Observation(sink=sink)
        for _ in range(3):
            with observation.span("service.solve"):
                pass
        sink.close()
        assert main(["trace", "summarize", str(path)]) == 0
        out = capsys.readouterr().out
        assert "solve latency: 3 request(s)" in out
        assert "p50=" in out and "p95=" in out and "p99=" in out


class TestGenerateRerun:
    def test_generate_then_rerun(self, tmp_path, capsys):
        directory = str(tmp_path / "inst")
        assert main([
            "generate", directory,
            "--query", "clique", "--variables", "3",
            "--cardinality", "60", "--plant", "--seed", "4",
        ]) == 0
        out = capsys.readouterr().out
        assert "wrote" in out and "planted=" in out
        assert main([
            "rerun", directory, "--algorithm", "ils", "--seconds", "0.5",
        ]) == 0
        out = capsys.readouterr().out
        assert "similarity=1.0000" in out  # planted solution must be found


def test_importing_the_cli_loads_no_figure_harness():
    """``serve`` starts through ``repro.cli``: it must not pay for ``repro.bench``."""
    probe = (
        "import sys, repro.cli; "
        "print(sorted(m for m in sys.modules if m.startswith('repro.bench')))"
    )
    src = os.path.dirname(os.path.dirname(repro.__file__))
    completed = subprocess.run(
        [sys.executable, "-c", probe],
        capture_output=True, text=True, timeout=60,
        env={**os.environ, "PYTHONPATH": src},
    )
    assert completed.returncode == 0, completed.stderr
    assert completed.stdout.strip() == "[]"
