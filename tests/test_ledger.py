"""Benchmark ledger tests: schema, round-trip, emit.

The ledger (:mod:`repro.bench.ledger`) mirrors the obs event schema's
strictness — these tests pin the validation contract (version, typed
fields, bool rejection, timer monotonicity), the JSONL round-trip with
per-line error context, and :func:`emit_sections`'s stamping (run id,
commit, env fingerprint, obs metric snapshot with solve-latency
percentiles).
"""

from __future__ import annotations

import json

import pytest

from repro.bench.ledger import (
    DEFAULT_LEDGER_NAME,
    LEDGER_VERSION,
    LEDGER_PATH_ENV,
    LedgerWriter,
    emit_sections,
    environment_fingerprint,
    git_commit,
    read_ledger,
    timer_stats,
    validate_row,
)
from repro.obs import MemorySink, Observation, activate


def make_row(**overrides):
    row = {
        "v": LEDGER_VERSION,
        "run_id": "0001-test",
        "ts": 1754650000.0,
        "commit": "abc1234",
        "bench": "kernels",
        "section": "count_violations[2000]",
        "value": 4.7e-05,
        "unit": "s",
        "better": "lower",
        "env": {"python": "3.11.7", "numpy": "2.4.6", "scale": 1.0,
                "platform": "linux", "machine": "x86_64"},
    }
    row.update(overrides)
    return row


# ----------------------------------------------------------------------
# validate_row
# ----------------------------------------------------------------------
def test_validate_row_accepts_minimal_and_full_rows():
    assert validate_row(make_row()) == make_row()
    full = make_row(
        timer={"repeats": 3, "p50": 5.1e-05, "min": 4.7e-05},
        meta={"size": 2000},
        metrics={"index.node_reads": 12},
        extra="forward-compatible",  # unknown fields pass through
    )
    assert validate_row(full) is full


@pytest.mark.parametrize("breakage, fragment", [
    ({"v": 2}, "unsupported ledger schema version"),
    ({"v": None}, "unsupported ledger schema version"),
    ({"run_id": None}, "run_id"),
    ({"value": "fast"}, "value"),
    ({"value": True}, "value"),             # bools are not numbers
    ({"better": "faster"}, "better"),
    ({"better": True}, "better"),
    ({"env": None}, "env"),
    ({"env": {"python": "3.11.7"}}, "missing field"),
    ({"timer": {"repeats": 3, "p50": 1.0}}, "missing field 'min'"),
    ({"timer": {"repeats": 0, "p50": 1.0, "min": 1.0}}, "repeats"),
    ({"timer": {"repeats": 3, "p50": 1.0, "min": 2.0}}, "non-monotonic"),
    ({"timer": {"repeats": True, "p50": 1.0, "min": 1.0}}, "repeats"),
])
def test_validate_row_rejects(breakage, fragment):
    row = make_row()
    row.update(breakage)
    with pytest.raises(ValueError, match=fragment):
        validate_row(row)


def test_validate_row_rejects_missing_required_field():
    for field in ("run_id", "ts", "bench", "section", "value", "unit",
                  "better", "env", "commit"):
        row = make_row()
        del row[field]
        with pytest.raises(ValueError, match=field):
            validate_row(row)


def test_validate_row_rejects_non_dict():
    with pytest.raises(ValueError, match="must be an object"):
        validate_row([make_row()])


# ----------------------------------------------------------------------
# round-trip and line errors
# ----------------------------------------------------------------------
def test_ledger_round_trip(tmp_path):
    path = tmp_path / "ledger.jsonl"
    first = make_row()
    second = make_row(section="other", better=None)
    with LedgerWriter(str(path)) as writer:
        writer.write(first)
    with LedgerWriter(str(path)) as writer:  # append mode: reopening adds
        writer.write(second)
    assert read_ledger(str(path)) == [first, second]


def test_writer_rejects_invalid_rows_before_touching_disk(tmp_path):
    path = tmp_path / "ledger.jsonl"
    with LedgerWriter(str(path)) as writer:
        with pytest.raises(ValueError):
            writer.write(make_row(v=99))
    assert read_ledger(str(path)) == []


def test_read_ledger_reports_path_and_line(tmp_path):
    path = tmp_path / "ledger.jsonl"
    path.write_text(
        json.dumps(make_row()) + "\n" + "{not json\n"
    )
    with pytest.raises(ValueError, match=r"ledger\.jsonl:2: invalid JSON"):
        read_ledger(str(path))
    path.write_text(
        json.dumps(make_row()) + "\n" + json.dumps(make_row(v=9)) + "\n"
    )
    with pytest.raises(ValueError, match=r"ledger\.jsonl:2: unsupported"):
        read_ledger(str(path))
    # validation can be waived for forensic reads of broken ledgers
    assert len(read_ledger(str(path), validate=False)) == 2


def test_read_ledger_skips_blank_lines(tmp_path):
    path = tmp_path / "ledger.jsonl"
    path.write_text("\n" + json.dumps(make_row()) + "\n\n")
    assert len(read_ledger(str(path))) == 1


# ----------------------------------------------------------------------
# timer_stats / fingerprint / commit
# ----------------------------------------------------------------------
def test_timer_stats():
    stats = timer_stats([3.0, 1.0, 2.0])
    assert stats == {"repeats": 3, "p50": 2.0, "min": 1.0}
    with pytest.raises(ValueError):
        timer_stats([])


def test_environment_fingerprint_reads_scale(monkeypatch):
    monkeypatch.setenv("REPRO_BENCH_SCALE", "0.25")
    env = environment_fingerprint()
    assert env["scale"] == 0.25
    assert set(env) >= {"python", "numpy", "platform", "machine"}


def test_git_commit_none_outside_repo(tmp_path):
    assert git_commit(cwd=str(tmp_path)) is None


# ----------------------------------------------------------------------
# emit_sections
# ----------------------------------------------------------------------
def test_emit_sections_stamps_and_appends(tmp_path, monkeypatch):
    ledger = tmp_path / "led.jsonl"
    monkeypatch.setenv(LEDGER_PATH_ENV, str(ledger))
    rows = emit_sections("demo", [
        {"section": "alpha", "value": 1.5, "unit": "s", "better": "lower",
         "timer": {"repeats": 3, "p50": 1.6, "min": 1.5}},
        {"section": "beta", "value": 2.0, "unit": "x"},
    ])
    stored = read_ledger(str(ledger))
    assert stored == rows
    assert [r["section"] for r in stored] == ["alpha", "beta"]
    assert stored[0]["run_id"] and stored[0]["run_id"] == stored[1]["run_id"]
    assert all(r["bench"] == "demo" for r in stored)
    assert stored[0]["env"]["python"] == environment_fingerprint()["python"]
    assert stored[1]["better"] is None  # default: informational
    assert "timer" not in stored[1]


def test_emit_sections_attaches_obs_snapshot_with_latency(tmp_path, monkeypatch):
    monkeypatch.setenv(LEDGER_PATH_ENV, str(tmp_path / "led.jsonl"))
    observation = Observation(sink=MemorySink())
    previous = activate(observation)
    try:
        observation.counter("index.node_reads").inc(7)
        for elapsed in (0.010, 0.020, 0.030):
            with observation.span("service.solve"):
                pass
        # fake the span elapsed times deterministically
        for record, elapsed in zip(
            [r for r in observation.sink.records if r.get("type") == "span_close"],
            (0.010, 0.020, 0.030),
        ):
            record["elapsed"] = elapsed
        rows = emit_sections("demo", [
            {"section": "alpha", "value": 1.0, "unit": "s"},
        ])
    finally:
        activate(previous)
    metrics = rows[0]["metrics"]
    assert metrics["counters"]["index.node_reads"] == 7
    assert metrics["latency"]["count"] == 3
    assert metrics["latency"]["p50"] == pytest.approx(0.020)
    assert metrics["latency"]["p99"] == pytest.approx(0.030)


def test_emit_sections_without_observation_has_no_metrics(tmp_path, monkeypatch):
    monkeypatch.setenv(LEDGER_PATH_ENV, str(tmp_path / "led.jsonl"))
    rows = emit_sections("demo", [{"section": "a", "value": 1, "unit": "s"}])
    assert "metrics" not in rows[0]


def test_emit_sections_defaults_ledger_to_working_directory(tmp_path, monkeypatch):
    monkeypatch.delenv(LEDGER_PATH_ENV, raising=False)
    monkeypatch.chdir(tmp_path)
    emit_sections("demo", [{"section": "a", "value": 1, "unit": "s"}])
    assert len(read_ledger(str(tmp_path / DEFAULT_LEDGER_NAME))) == 1
