"""Experiment drivers reproducing the paper's evaluation (§6).

Each ``run_fig*`` function regenerates one figure of the paper as structured
rows.  ``python -m repro.bench.runner FIG``, which ``runs/FIG/run_all.sh``
calls, scales the config defaults by ``REPRO_BENCH_SCALE``, prints the
figure's table, appends its ledger rows and exits non-zero when a shape
check fails.  The defaults sit below the paper's values (in the comments)
because the substrate is interpreted Python rather than the authors' C on a
Pentium III.

The experiment grid follows the paper exactly:

* Figure 10a — best similarity vs number of variables (chains & cliques,
  time threshold ``10·n`` seconds, density set for ``Sol = 1``);
* Figure 10b — best similarity over time for ``n = 15``;
* Figure 10c — best similarity vs expected number of solutions;
* Figure 11 — time to retrieve the exact solution: IBB alone vs the
  two-step ILS+IBB / SEA+IBB methods on clique queries.
"""

from __future__ import annotations

import argparse
import dataclasses
import random
import statistics
import sys
from dataclasses import dataclass, field
from typing import Any, Callable, Sequence

from ..core import (
    Budget,
    GILSConfig,
    ILSConfig,
    RunResult,
    SEAConfig,
    guided_indexed_local_search,
    indexed_branch_and_bound,
    indexed_local_search,
    spatial_evolutionary_algorithm,
    two_step,
)
from ..obs.report import format_table
from ..query import (
    QUERY_BUILDERS,
    ProblemInstance,
    QueryGraph,
    hard_instance,
    planted_instance,
)
from .ledger import emit_sections, scaled, scaled_int

__all__ = [
    "HeuristicRunner",
    "default_heuristics",
    "Fig10aConfig",
    "run_fig10a",
    "Fig10bConfig",
    "run_fig10b",
    "Fig10cConfig",
    "run_fig10c",
    "Fig11Config",
    "run_fig11",
    "main",
]

#: signature shared by all heuristic entry points
HeuristicRunner = Callable[[ProblemInstance, Budget, int], RunResult]


def default_heuristics(
    stop_on_exact: bool = True,
) -> dict[str, HeuristicRunner]:
    """The three algorithms compared throughout Figure 10."""
    return {
        "ILS": lambda instance, budget, seed: indexed_local_search(
            instance, budget, seed, ILSConfig(stop_on_exact=stop_on_exact)
        ),
        "GILS": lambda instance, budget, seed: guided_indexed_local_search(
            instance, budget, seed, GILSConfig(stop_on_exact=stop_on_exact)
        ),
        "SEA": lambda instance, budget, seed: spatial_evolutionary_algorithm(
            instance, budget, seed, SEAConfig(stop_on_exact=stop_on_exact)
        ),
    }


# ----------------------------------------------------------------------
# Figure 10a — similarity vs number of variables
# ----------------------------------------------------------------------
@dataclass
class Fig10aConfig:
    """Grid of experiment E1; paper values in comments."""

    query_types: Sequence[str] = ("chain", "clique")
    variable_counts: Sequence[int] = (5, 10, 15)  # paper: 5, 10, 15, 20, 25
    cardinality: int = 2_000  # paper: 100_000
    #: seconds of search per variable (paper: 10.0)
    time_per_variable: float = 0.15
    repetitions: int = 2  # paper: 100
    seed: int = 0


def run_fig10a(config: Fig10aConfig) -> list[dict]:
    """Rows: query type, n, density, mean similarity per algorithm."""
    rows = []
    for query_type in config.query_types:
        build = QUERY_BUILDERS[query_type]
        for num_variables in config.variable_counts:
            instance = hard_instance(
                build(num_variables),
                config.cardinality,
                seed=_instance_seed(config.seed, query_type, num_variables),
            )
            time_limit = config.time_per_variable * num_variables
            row = {
                "query": query_type,
                "n": num_variables,
                "density": instance.density,
                "time_limit": time_limit,
            }
            _score_heuristics(row, instance, time_limit, config.repetitions, config.seed)
            rows.append(row)
    return rows


# ----------------------------------------------------------------------
# Figure 10b — similarity over time (n = 15)
# ----------------------------------------------------------------------
@dataclass
class Fig10bConfig:
    query_types: Sequence[str] = ("chain", "clique")
    num_variables: int = 15
    cardinality: int = 2_000
    #: total run time per query type (paper: chains 40 s, cliques 120 s)
    time_limits: dict[str, float] = field(
        default_factory=lambda: {"chain": 2.0, "clique": 6.0}
    )
    #: number of sample points on the time axis
    grid_points: int = 8
    repetitions: int = 2
    seed: int = 0


def run_fig10b(config: Fig10bConfig) -> dict[str, dict]:
    """Per query type: the time grid and each algorithm's mean staircase."""
    output: dict[str, dict] = {}
    for query_type in config.query_types:
        build = QUERY_BUILDERS[query_type]
        instance = hard_instance(
            build(config.num_variables),
            config.cardinality,
            seed=_instance_seed(config.seed, query_type, config.num_variables),
        )
        time_limit = config.time_limits[query_type]
        grid = [
            time_limit * (index + 1) / config.grid_points
            for index in range(config.grid_points)
        ]
        series: dict[str, list[float]] = {}
        for name, runner in default_heuristics(stop_on_exact=False).items():
            sampled = [
                runner(
                    instance, Budget.seconds(time_limit), config.seed + rep
                ).trace.sample(grid)
                for rep in range(config.repetitions)
            ]
            series[name] = [
                statistics.fmean(run[index] for run in sampled)
                for index in range(config.grid_points)
            ]
        output[query_type] = {"grid": grid, "series": series}
    return output


# ----------------------------------------------------------------------
# Figure 10c — similarity vs expected number of solutions (n = 15)
# ----------------------------------------------------------------------
@dataclass
class Fig10cConfig:
    query_type: str = "clique"
    num_variables: int = 15
    cardinality: int = 2_000
    expected_solutions: Sequence[float] = (1.0, 10.0, 1e2, 1e3, 1e4, 1e5)
    time_limit: float = 2.0  # paper: 150 s (= 10·n)
    repetitions: int = 2
    seed: int = 0


def run_fig10c(config: Fig10cConfig) -> list[dict]:
    """Rows: target Sol, density, mean similarity per algorithm."""
    build = QUERY_BUILDERS[config.query_type]
    rows = []
    for target in config.expected_solutions:
        instance = hard_instance(
            build(config.num_variables),
            config.cardinality,
            seed=_instance_seed(config.seed, config.query_type, int(target)),
            target_solutions=target,
        )
        row = {"Sol": target, "density": instance.density}
        _score_heuristics(row, instance, config.time_limit, config.repetitions, config.seed)
        rows.append(row)
    return rows


# ----------------------------------------------------------------------
# Figure 11 — time to retrieve the exact solution
# ----------------------------------------------------------------------
@dataclass
class Fig11Config:
    """Two-step methods vs plain IBB on clique queries with a planted
    exact solution (the paper uses instances whose actual solution count
    is 1)."""

    variable_counts: Sequence[int] = (3, 4, 5)  # paper: 5, 10, 15, 20, 25
    cardinality: int = 300  # paper: 100_000
    #: heuristic budgets (paper: ILS 1 s, SEA 10·n s)
    ils_time: float = 0.2
    sea_time_per_variable: float = 0.3
    #: cap on each systematic search, seconds (the paper lets IBB run for
    #: hours; a cap keeps runs bounded — capped runs report the cap)
    ibb_time_cap: float = 120.0
    repetitions: int = 2  # paper: 10
    seed: int = 0


def run_fig11(config: Fig11Config) -> list[dict]:
    """Rows: n, mean seconds to exact solution for IBB / ILS+IBB / SEA+IBB."""
    rows = []
    for num_variables in config.variable_counts:
        times: dict[str, list[float]] = {"IBB": [], "ILS+IBB": [], "SEA+IBB": []}
        exact: dict[str, int] = {"IBB": 0, "ILS+IBB": 0, "SEA+IBB": 0}
        for rep in range(config.repetitions):
            instance = planted_instance(
                QueryGraph.clique(num_variables),
                config.cardinality,
                seed=_instance_seed(config.seed + rep, "fig11", num_variables),
            )
            plain = indexed_branch_and_bound(
                instance, budget=Budget.seconds(config.ibb_time_cap)
            )
            times["IBB"].append(plain.elapsed)
            exact["IBB"] += plain.is_exact

            for label, heuristic, heuristic_time in (
                ("ILS+IBB", "ils", config.ils_time),
                (
                    "SEA+IBB",
                    "sea",
                    config.sea_time_per_variable * num_variables,
                ),
            ):
                combined = two_step(
                    instance,
                    heuristic,
                    heuristic_budget=Budget.seconds(heuristic_time),
                    systematic_budget=Budget.seconds(config.ibb_time_cap),
                    seed=config.seed + rep,
                )
                times[label].append(combined.total_elapsed)
                exact[label] += combined.is_exact
        row = {"n": num_variables}
        for label in ("IBB", "ILS+IBB", "SEA+IBB"):
            row[label] = statistics.fmean(times[label])
            row[f"{label} exact"] = f"{exact[label]}/{config.repetitions}"
        rows.append(row)
    return rows


def _score_heuristics(
    row: dict, instance: ProblemInstance, seconds: float, repetitions: int, seed: int
) -> None:
    """Add each heuristic's mean similarity and node reads over the repetitions."""
    for name, runner in default_heuristics().items():
        results = [
            runner(instance, Budget.seconds(seconds), seed + rep)
            for rep in range(repetitions)
        ]
        row[name] = statistics.fmean(r.best_similarity for r in results)
        row[f"{name} node_reads"] = statistics.fmean(_node_reads(r) for r in results)


def _node_reads(result: RunResult) -> int:
    """R*-tree node accesses of one run (``stats["index"]`` delta)."""
    index_work = result.stats.get("index")
    if isinstance(index_work, dict):
        return int(index_work.get("node_reads", 0))
    return 0


def _instance_seed(base: int, tag: str, value: int) -> int:
    """Stable per-cell instance seed derived from a human-readable tag."""
    return random.Random(f"{base}/{tag}/{value}").randrange(2**31)


# ----------------------------------------------------------------------
# The entry point: python -m repro.bench.runner FIG
# ----------------------------------------------------------------------
ALGORITHMS = ("ILS", "GILS", "SEA")
FIG11_METHODS = ("IBB", "ILS+IBB", "SEA+IBB")

#: floor of each scaled budget, seconds
BUDGET_FLOORS = {"time_per_variable": 0.05, "time_limit": 0.5, "ils_time": 0.05,
                 "sea_time_per_variable": 0.1, "ibb_time_cap": 30.0}
FIG10B_FLOORS = {"chain": 0.5, "clique": 1.0}

#: a figure's printed table, its ledger sections and its failed shape checks
Report = tuple[str, list[dict[str, Any]], list[str]]


def _scaled(config: Any) -> Any:
    """``config`` with its size, budgets and repetitions times ``REPRO_BENCH_SCALE``."""
    changes = {name: scaled(getattr(config, name), minimum=floor)
               for name, floor in BUDGET_FLOORS.items() if hasattr(config, name)}
    if hasattr(config, "time_limits"):  # Figure 10b: one budget per query type
        changes["time_limits"] = {query: scaled(seconds, minimum=FIG10B_FLOORS[query])
                                  for query, seconds in config.time_limits.items()}
    return dataclasses.replace(config, cardinality=scaled_int(config.cardinality),
                               repetitions=scaled_int(config.repetitions), **changes)


def _section(name: str, value: float, unit: str, meta: dict[str, Any]) -> dict[str, Any]:
    # no figure row is judged: similarity is approximation quality, and the
    # systematic search's blow-up is chaotic by nature — both are tracked only
    return {"section": name, "value": value, "unit": unit, "better": None, "meta": meta}


def _fig10a() -> Report:
    config = _scaled(Fig10aConfig())
    rows = run_fig10a(config)
    table = format_table(
        f"Figure 10a — best similarity vs n (N={config.cardinality}, t=10n x "
        f"{config.time_per_variable / 10:.3f}, {config.repetitions} reps; paper: "
        "N=100000, t=10n, 100 reps)",
        ["query", "n", "density", "t(s)", *ALGORITHMS],
        [[r["query"], r["n"], r["density"], r["time_limit"], *(r[a] for a in ALGORITHMS)]
         for r in rows],
    )
    sections = [
        _section(f"{r['query']}/n={r['n']}/{a}", r[a], "similarity", {
            "query": r["query"], "n": r["n"], "density": r["density"],
            "time_limit": r["time_limit"], "node_reads": r[f"{a} node_reads"],
        })
        for r in rows for a in ALGORITHMS
    ]
    # chains are under-constrained: SEA does about as well on the chain as
    # on the clique of the same size
    sea = {(r["query"], r["n"]): r["SEA"] for r in rows}
    failures = [f"n={n}: SEA on the chain trails the clique by more than 0.2"
                for n in config.variable_counts
                if ("chain", n) in sea and ("clique", n) in sea
                and sea["chain", n] < sea["clique", n] - 0.2]
    return table, sections, failures


def _fig10b() -> Report:
    config = _scaled(Fig10bConfig())
    tables, sections, failures = [], [], []
    for query, data in run_fig10b(config).items():
        grid, series = data["grid"], data["series"]
        tables.append(format_table(
            f"Figure 10b — similarity over time ({query}, n={config.num_variables}, "
            f"N={config.cardinality}; paper: N=100000, "
            f"{'40s' if query == 'chain' else '120s'})",
            ["t(s)", *series],
            [[round(t, 2), *(values[i] for values in series.values())]
             for i, t in enumerate(grid)],
        ))
        for name, values in series.items():
            sections.append(_section(f"{query}/{name}", values[-1], "similarity", {
                "query": query, "grid": [round(t, 4) for t in grid], "series": values,
            }))
            if values != sorted(values):  # a best-so-far staircase never drops
                failures.append(f"{query}/{name}: staircase not monotone")
    return "\n\n".join(tables), sections, failures


def _fig10c() -> Report:
    config = _scaled(Fig10cConfig())
    rows = run_fig10c(config)
    table = format_table(
        f"Figure 10c — best similarity vs expected #solutions ({config.query_type} "
        f"n={config.num_variables}, N={config.cardinality}, t={config.time_limit}s; "
        "paper: N=100000, t=150s)",
        ["Sol", "density", *ALGORITHMS],
        [[f"{r['Sol']:g}", r["density"], *(r[a] for a in ALGORITHMS)] for r in rows],
    )
    sections = [_section(f"Sol={r['Sol']:g}/{a}", r[a], "similarity",
                         {"Sol": r["Sol"], "density": r["density"]})
                for r in rows for a in ALGORITHMS]
    densities = [r["density"] for r in rows]
    failures = [] if densities == sorted(densities) else ["density falls as Sol grows"]
    # the most solution-rich cell is no harder than the hard region
    failures += [f"{a}: the last Sol scores below the first by more than 0.1"
                 for a in ALGORITHMS if rows[-1][a] < rows[0][a] - 0.1]
    return table, sections, failures


def _fig11() -> Report:
    config = _scaled(Fig11Config())
    rows = run_fig11(config)
    columns = ["n", *(c for m in FIG11_METHODS for c in (m, f"{m} exact"))]
    table = format_table(
        f"Figure 11 — mean seconds to the exact solution (cliques, planted Sol=1, "
        f"N={config.cardinality}, {config.repetitions} reps; paper: N=100000, 10 reps)",
        columns,
        [[r[c] for c in columns] for r in rows],
    )
    sections = [_section(f"n={r['n']}/{m}", r[m], "s", {"n": r["n"], "exact": r[f"{m} exact"]})
                for r in rows for m in FIG11_METHODS]
    # the two-step methods always find the planted solution; plain IBB may
    # hit its cap — its blow-up is the paper's very motivation
    every_run = f"{config.repetitions}/{config.repetitions}"
    failures = [f"n={r['n']}/{m}: found the planted solution in {r[f'{m} exact']} runs"
                for r in rows for m in ("ILS+IBB", "SEA+IBB") if r[f"{m} exact"] != every_run]
    # for the largest query the heuristic seeding pays off
    if rows[-1]["SEA+IBB"] > 2.0 * rows[-1]["IBB"]:
        failures.append(f"n={rows[-1]['n']}: SEA+IBB took more than twice plain IBB")
    return table, sections, failures


FIGURES: dict[str, Callable[[], Report]] = {
    "fig10a": _fig10a, "fig10b": _fig10b, "fig10c": _fig10c, "fig11": _fig11,
}


def main(argv: Sequence[str] | None = None) -> int:
    """Regenerate one figure; returns 1 when a shape check failed."""
    parser = argparse.ArgumentParser(
        prog="python -m repro.bench.runner",
        description="Regenerate one figure of the paper at REPRO_BENCH_SCALE "
        "and append its rows to the ledger (REPRO_LEDGER_PATH).",
    )
    parser.add_argument("figure", choices=list(FIGURES))
    figure = parser.parse_args(argv).figure
    table, sections, failures = FIGURES[figure]()
    print(table)
    emit_sections(figure, sections)
    failures += [f"{s['section']}: similarity {s['value']} outside [0, 1]"
                 for s in sections
                 if s["unit"] == "similarity" and not 0.0 <= s["value"] <= 1.0]
    for failure in failures:
        print(f"{figure}: shape check failed: {failure}", file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
