"""Compare result files of ``perf/run.py``, one or several runs per side::

    python3 perf/compare.py A.json B.json
    python3 perf/compare.py A1.json A2.json A3.json vs B1.json B2.json B3.json

One row per (end-to-end metric, workload) with each side's median, the
change from A to B as a share of A, the run-to-run spread (the distance
between the quartiles of a side's runs as a share of its median, the larger
of the two sides; ``-`` with one run per side) and a verdict under the
bounds of ``BENCHMARK.json``:

``ok``
    B's median is no worse than A's by more than the metric's bound.
``worse``
    B's median is worse than A's by more than the bound.
``unresolved``
    a value is missing (a run failed), a run of B did not verify its
    answers — a number from unverified answers settles nothing — or the
    spread is wider than the bound and not every run of B reads better
    than every run of A: more runs, or a quieter host, are needed.

``similarity_mean`` repeats (nearly) exactly for a seed, so when both sides
ran the same seeds it may also not drop by more than 0.01 absolute.
Exact-count layer metrics (node reads, search nodes, index shape) are listed
when they differ: they repeat exactly for a seed, so any difference is a
change in the program's behaviour, not noise.  Exit code 1 if any row is
``worse``.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

#: per-layer metrics that are exact counts of the library workloads
EXACT_COUNTS = (
    "core.node_reads_per_op",
    "core.best_value_calls_per_op",
    "core.ibb_nodes_expanded",
    "index.height",
    "index.nodes",
)
#: what ``similarity_mean`` may lose between two runs of the same seeds
SIMILARITY_ABSOLUTE_BOUND = 0.01


def _values(files: list[dict], workload: str, section: str, metric: str) -> list[float] | None:
    """The metric's value in every file, or None if any run lacks it."""
    try:
        return [f["runs"][workload][section]["metrics"][metric]["value"] for f in files]
    except KeyError:
        return None


def _interquartile(values: list[float]) -> float:
    if len(values) < 2:
        return 0.0
    quartiles = statistics.quantiles(values, n=4)
    return quartiles[2] - quartiles[0]


def _verdict(metric: dict, old: list[float], new: list[float], same_seeds: bool) -> tuple:
    """``(median A, median B, change, spread, verdict)``; change and spread
    are shares of A's median."""
    sign = 1.0 if metric["better"] == "lower" else -1.0
    median_old, median_new = statistics.median(old), statistics.median(new)
    if median_old == 0:
        return median_old, median_new, None, None, "unresolved"
    allowed = metric["bound"] * abs(median_old)
    if metric["name"] == "similarity_mean" and same_seeds:
        allowed = min(allowed, SIMILARITY_ABSOLUTE_BOUND)
    spread = max(_interquartile(old), _interquartile(new))
    change = (median_new - median_old) / abs(median_old)
    shown_spread = spread / abs(median_old) if len(old) > 1 or len(new) > 1 else None
    if spread > allowed:
        b_always_better = max(sign * v for v in new) < min(sign * v for v in old)
        verdict = "ok" if b_always_better else "unresolved"
    else:
        verdict = "worse" if sign * (median_new - median_old) > allowed else "ok"
    return median_old, median_new, change, shown_spread, verdict


def compare(a: list[dict], b: list[dict], schema: dict) -> tuple[list[tuple], list[tuple]]:
    same_seeds = sorted(f.get("seed") for f in a) == sorted(f.get("seed") for f in b)
    rows, count_rows = [], []
    for workload in (w["name"] for w in schema["workloads"]):
        verified = all(
            f["runs"].get(workload, {}).get("end_to_end", {}).get("correct", False) for f in b
        )
        for metric in schema["end_to_end"]:
            name = metric["name"]
            old = _values(a, workload, "end_to_end", name)
            new = _values(b, workload, "end_to_end", name)
            if old is None or new is None or not verified:
                rows.append((name, workload, None, None, None, None, "unresolved"))
            else:
                rows.append((name, workload, *_verdict(metric, old, new, same_seeds)))
        if same_seeds:
            for name in EXACT_COUNTS:
                old = _values(a, workload, "per_layer", name)
                new = _values(b, workload, "per_layer", name)
                if old is None or new is None or sorted(old) != sorted(new):
                    count_rows.append((name, workload, old, new))
    return rows, count_rows


def main(argv: list[str]) -> int:
    split = argv.index("vs") if "vs" in argv else 1 if len(argv) == 2 else 0
    paths_a, paths_b = argv[:split], [path for path in argv[split:] if path != "vs"]
    if not paths_a or not paths_b:
        print(__doc__.split("\n\n")[0], file=sys.stderr)
        return 2
    a, b = ([json.loads(Path(path).read_text()) for path in side] for side in (paths_a, paths_b))
    schema = json.loads((ROOT / "BENCHMARK.json").read_text())
    rows, count_rows = compare(a, b, schema)
    print(f"runs per side: {len(a)} vs {len(b)}")
    print(f"{'metric':16s} {'workload':17s} {'A':>12s} {'B':>12s} {'change':>8s} {'spread':>7s}  verdict")
    for name, workload, old, new, change, spread, verdict in rows:
        shown = [f"{v:12.5g}" if v is not None else f"{'-':>12s}" for v in (old, new)]
        delta = f"{change:+8.1%}" if change is not None else f"{'-':>8s}"
        width = f"{spread:7.1%}" if spread is not None else f"{'-':>7s}"
        print(f"{name:16s} {workload:17s} {shown[0]} {shown[1]} {delta} {width}  {verdict}")
    if sorted(f.get("seed") for f in a) != sorted(f.get("seed") for f in b):
        print("the two sides ran different seeds: exact counts are not compared")
    elif count_rows:
        for name, workload, old, new in count_rows:
            print(f"exact count differs: {name} on {workload}: {old} -> {new}")
    else:
        print("exact-count layer metrics: identical")
    return 1 if any(row[-1] == "worse" for row in rows) else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
