"""One end-to-end benchmark: four workloads, driven from outside the code.

Three ways to call it, all from the root of a checkout::

    python3 perf/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perf/run.py --seed N            # every workload, both passes
    python3 perf/run.py --selftest          # the checks catch corrupt answers

The first form is the driver's: one workload, one pass.  Op lists are fixed
work sized to take about ``run_seconds`` of ``BENCHMARK.json`` on the seed
host, so ``--seconds`` is accepted only with that value.  ``--trace 0`` sets
up several times (``setup_s`` is the median), runs the seeded op list once
with nothing recording, verifies every answer and prints the end-to-end
metrics over the whole measured phase.  ``--trace 1`` runs the first third
of the same op list twice — untraced, then with benchmark-side spans and
``repro.obs`` switched on — adds the layer probes and prints the per-layer
metrics.  The last line of standard output is one JSON object; the lines
before it name every metric with its unit and sample count.

The second form runs both passes of every workload in child processes (so
each ``peak_rss_mb`` is its own), prints one table and writes
``perf/results/<run>.json`` for ``perf/compare.py``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RESULTS = HERE / "results"


def _load_schema() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def _require_program() -> None:
    """The benchmark measures the checkout it stands in; without one, refuse."""
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        sys.exit(f"perf/run.py: no program to measure: {ROOT / 'src' / 'repro'} is missing")
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]


# ----------------------------------------------------------------------
# one workload, one pass
# ----------------------------------------------------------------------
def _workload(name: str, seed: int, workdir: Path):
    from library import ExactTwoStep, PaperHeuristics
    from serving import FleetScatter, ServiceMix

    classes = {c.name: c for c in (PaperHeuristics, ExactTwoStep, ServiceMix, FleetScatter)}
    return classes[name](seed, workdir)


def _first_third(ops: list) -> list:
    """The first third of an op list (of every connection's, when nested)."""
    if ops and isinstance(ops[0], list):
        return [_first_third(connection) for connection in ops]
    return ops[: max(1, len(ops) // 3)]


def _set_up(workload, rec, trace_path=None, check: bool = True) -> float:
    """Timed: everything up to the first answer.  Untimed: the benchmark's
    own copy of the inputs and the check of that answer (skipped for a
    set-up that is only timed and torn down again)."""
    begin = time.perf_counter()
    workload.setup(rec, trace_path)
    elapsed = time.perf_counter() - begin
    if check:
        workload.finish_setup()
    return elapsed


def _tear_down(workload) -> None:
    workload.close()
    hygiene = getattr(workload, "hygiene", {})
    if any(hygiene.values()):
        raise RuntimeError(f"{workload.name}: the server left something behind: {hygiene}")


def _end_to_end(workload) -> tuple[dict, list]:
    from library import median, percentile
    from serving import peak_rss_mb
    from spans import OFF

    setups = []
    for repeat in range(workload.setup_repeats):
        if repeat:
            _tear_down(workload)
        setups.append(_set_up(workload, OFF, check=repeat == workload.setup_repeats - 1))
    ops = workload.ops()
    outcomes, wall = workload.run(ops, OFF)
    rss, processes = peak_rss_mb()
    workload.verify(outcomes, ops)
    _tear_down(workload)
    verified = [o for o in outcomes if o.ok]
    latencies = [o.ms for o in outcomes]
    metrics = {
        "setup_s": (median(setups), len(setups)),
        "ops_per_s": (len(verified) / wall, len(verified)),
        "op_p50_ms": (median(latencies), len(latencies)),
        "op_p90_ms": (percentile(latencies, 0.9), len(latencies)),
        # an op that failed contributes similarity 0
        "similarity_mean": (sum(o.similarity for o in verified) / len(outcomes), len(outcomes)),
        "peak_rss_mb": (rss, processes),
    }
    return metrics, outcomes


def _exact_counts(outcomes: list) -> list:
    """What must repeat exactly between two passes over the same ops."""
    return [
        (o.similarity, o.detail.get("node_reads"), o.detail.get("nodes_expanded"))
        for o in outcomes
    ]


def _per_layer(workload, schema: dict, workdir: Path) -> tuple[dict, list, bool]:
    from repro.obs import Observation, observe, read_trace

    from layers import probe_layers
    from library import median
    from spans import OFF, SpanRecorder

    served = hasattr(workload, "server")
    rec = SpanRecorder()
    _set_up(workload, rec)
    setup_spans = list(rec.records)
    ops = _first_third(workload.ops())

    if not served:
        # the first touch of a tree packs its nodes' arrays lazily: let that
        # happen before either pass, or the second pass looks faster
        workload.run(ops, OFF)
    plain, plain_wall = workload.run(ops, OFF)
    workload.verify(plain, ops)
    trace_path = None
    if served:
        # a server's caches remember the first pass: the traced pass gets a
        # fresh one, started with the program's own ``--trace``
        _tear_down(workload)
        trace_path = workdir / "server-trace.jsonl"
        _set_up(workload, OFF, trace_path)
    with observe(Observation()) as observation:
        traced, traced_wall = workload.run(ops, rec)
    workload.verify(traced, ops)
    if hasattr(workload, "probe_routing"):
        workload.probe_routing()
    instance, evaluator = workload.probe_instance()
    # a layer no op of this workload touches reads 0
    metrics = {entry["name"]: (0.0, 0) for entry in schema["per_layer"]}
    metrics.update(probe_layers(instance, evaluator, workload.rng_seed, workdir))
    _tear_down(workload)  # a server's ``stats`` are read here, just before it stops
    metrics.update(workload.layer_metrics(traced))
    events = read_trace(str(trace_path)) if served else observation.sink.records

    # set-up spans recorded by the benchmark around the program's calls
    def setup_seconds(name: str) -> list[float]:
        return [end - start for _i, n, _o, _p, start, end in setup_spans if n == name]

    generated = setup_seconds("query.hard_instance") + setup_seconds("query.planted_instance")
    metrics["query.hard_instance_s"] = (median(generated), len(generated))
    built = setup_seconds("core.evaluator_build")
    if built:
        metrics["core.evaluator_build_ms"] = (median(built) * 1e3, len(built))

    # the program's own spans, switched on through its public entry points
    closed: dict[str, list[float]] = {}
    for event in events:
        if event["type"] == "span_close":
            closed.setdefault(event["name"], []).append(event["elapsed"])
    for span, metric, scale in (
        ("sea.generation", "core.sea_generation_ms", 1e3),
        ("sea.init", "core.sea_init_ms", 1e3),
        ("warm.attach", "warm.attach_span_ms", 1e3),
        ("fleet.merge", "fleet.merge_span_us", 1e6),
    ):
        if span in closed:
            metrics[metric] = (median(closed[span]) * scale, len(closed[span]))
    if "gils.run" in closed:
        metrics["core.gils_climb_share"] = (
            sum(closed.get("gils.climb", ())) / sum(closed["gils.run"]), len(closed["gils.run"])
        )
    metrics["obs.events_per_op"] = (len(events) / len(traced), len(traced))
    metrics["obs.traced_overhead_pct"] = ((traced_wall / plain_wall - 1.0) * 100.0, len(traced))
    if not served:
        # calls the ops made × probed µs per call ÷ time of those ops.  The
        # probe replays the calls of an ILS climb, so where there are ILS ops
        # the estimate is made on them: GILS and SEA make cheaper calls
        replayed = [o for o in traced if o.kind == "ils"] or traced
        metrics["core.find_best_value_est_share"] = (
            sum(o.detail.get("best_value_calls", 0) for o in replayed)
            * metrics["core.find_best_value_us"][0]
            / (sum(o.ms for o in replayed) * 1e3),
            len(replayed),
        )

    # determinism guard: same ops, same seed — only time may differ
    repeatable = served or _exact_counts(plain) == _exact_counts(traced)
    if not repeatable:
        print("determinism guard: the traced pass did not repeat the untraced one",
              file=sys.stderr)
    RESULTS.mkdir(exist_ok=True)
    rec.write(RESULTS / f"spans-{workload.name}-seed{workload.seed}.json")
    nested = rec.nesting_ok()
    if not nested:
        print("span check: child spans do not sum into their op span", file=sys.stderr)
    return metrics, plain + traced, repeatable and nested


def run_one(name: str, seed: int, trace: bool) -> dict:
    schema = _load_schema()
    workdir = RESULTS / f"tmp-{name}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    workload = _workload(name, seed, workdir)
    try:
        if trace:
            metrics, outcomes, sound = _per_layer(workload, schema, workdir)
            declared = schema["per_layer"]
        else:
            metrics, outcomes = _end_to_end(workload)
            sound = True
            declared = schema["end_to_end"]
    except BaseException:
        workload.abort()
        raise
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    failed = sum(1 for o in outcomes if not o.ok)
    for entry in declared:
        value, samples = metrics[entry["name"]]
        print(f"{name:17s} {entry['name']:44s} {value:14.6g} {entry['unit']:6s} n={samples}")
    print(f"{name:17s} attempted={len(outcomes)} failed={failed} "
          f"failed_share={failed / len(outcomes):.6f}")
    return {
        "correct": failed == 0 and sound,
        "attempted": len(outcomes),
        "failed": failed,
        "metrics": {
            entry["name"]: {"value": metrics[entry["name"]][0], "unit": entry["unit"]}
            for entry in declared
        },
    }


# ----------------------------------------------------------------------
# every workload, both passes
# ----------------------------------------------------------------------
def _fingerprint() -> dict:
    import numpy

    commit = subprocess.run(
        ["git", "rev-parse", "--short", "HEAD"], cwd=ROOT, capture_output=True, text=True
    ).stdout.strip()
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "machine": platform.machine(),
        "commit": commit or "unknown",
    }


def run_all(seed: int) -> int:
    schema = _load_schema()
    runs: dict[str, dict] = {}
    healthy = True
    for workload in schema["workloads"]:
        name = workload["name"]
        runs[name] = {}
        for trace in (0, 1):
            child = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", name, "--seed", str(seed),
                 "--trace", str(trace)],
                capture_output=True, text=True,
            )
            sys.stdout.write(child.stdout.rsplit("\n", 2)[0] + "\n" if child.stdout else "")
            sys.stderr.write(child.stderr)
            if child.returncode != 0:
                print(f"{name} --trace {trace}: exit code {child.returncode}")
                healthy = False
                continue
            result = json.loads(child.stdout.strip().rsplit("\n", 1)[-1])
            healthy = healthy and result["correct"]
            runs[name]["end_to_end" if trace == 0 else "per_layer"] = result
    RESULTS.mkdir(exist_ok=True)
    path = RESULTS / f"run-seed{seed}-{time.strftime('%Y%m%dT%H%M%S')}.json"
    path.write_text(json.dumps({"host": _fingerprint(), "seed": seed, "runs": runs}, indent=2))
    print(f"wrote {path.relative_to(ROOT)}" + ("" if healthy else "  (NOT healthy)"))
    return 0 if healthy else 1


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default=None)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--selftest", action="store_true")
    args = parser.parse_args()
    _require_program()
    schema = _load_schema()
    if args.seconds is not None and args.seconds != schema["run_seconds"]:
        parser.error(
            f"--seconds {args.seconds:g}: the op lists are fixed work sized for "
            f"run_seconds = {schema['run_seconds']} of BENCHMARK.json; there is no scale knob"
        )
    if args.workload is not None and args.workload not in {w["name"] for w in schema["workloads"]}:
        parser.error(f"unknown workload {args.workload!r}")
    from serving import stop_descendants

    # One CPU for the benchmark and every process it starts (children inherit
    # the mask).  The seed host's second vCPU comes and goes: two busy
    # processes sometimes run side by side and sometimes take turns, so any
    # figure that depends on it is bimodal (perf/README.md, "Steadiness").
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    # a terminated run unwinds like a failed one, so the guard below still runs
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    result = None
    try:
        if args.selftest:
            from selftest import selftest

            code = selftest()
        elif args.workload is None:
            code = run_all(args.seed)
        else:
            result = run_one(args.workload, args.seed, bool(args.trace))
            code = 0
    finally:
        # every path out: no process this run started is still running
        killed = stop_descendants()
    if killed:
        print(f"perf/run.py: {len(killed)} process(es) outlived the run and were killed: {killed}",
              file=sys.stderr)
        return 1
    if result is not None:
        print(json.dumps(result))
    return code


if __name__ == "__main__":
    sys.exit(main())
