"""Figure 10a — best similarity vs number of query variables.

Paper setting: uniform datasets of 100k objects, chains and cliques of
n ∈ {5, 10, 15, 20, 25} variables, density set so the expected number of
exact solutions is 1, time threshold 10·n seconds, 100 executions per point.

This bench runs the same grid at laptop scale (see ``REPRO_BENCH_SCALE``).
Expected shape: similarities close to 1 for chains (under-constrained),
lower for cliques; SEA ≥ ILS ≥ GILS on most cells.
"""

from conftest import record_table, scaled, scaled_int

from repro.bench import Fig10aConfig, format_table, run_fig10a
from repro.bench.ledger import emit_sections


def test_fig10a(benchmark):
    config = Fig10aConfig(
        query_types=("chain", "clique"),
        variable_counts=(5, 10, 15),
        cardinality=scaled_int(2_000),
        time_per_variable=scaled(0.15, minimum=0.05),
        repetitions=scaled_int(2),
        seed=0,
    )
    rows = benchmark.pedantic(run_fig10a, args=(config,), rounds=1, iterations=1)

    algorithms = ["ILS", "GILS", "SEA"]
    record_table(format_table(
        "Figure 10a — best similarity vs number of query variables "
        f"(N={config.cardinality}, t=10n x {config.time_per_variable/10:.3f}, "
        f"{config.repetitions} reps; paper: N=100000, t=10n, 100 reps)",
        ["query", "n", "density", "t(s)"] + algorithms,
        [[r["query"], r["n"], r["density"], r["time_limit"]]
         + [r[a] for a in algorithms] for r in rows],
    ))

    emit_sections("fig10a", [
        {
            "section": f"{row['query']}/n={row['n']}/{algorithm}",
            "value": row[algorithm],
            "unit": "similarity",
            "better": None,  # approximation quality: informational
            "meta": {
                "query": row["query"], "n": row["n"],
                "density": row["density"], "time_limit": row["time_limit"],
                "node_reads": row[f"{algorithm} node_reads"],
            },
        }
        for row in rows
        for algorithm in algorithms
    ])

    for row in rows:
        for algorithm in algorithms:
            assert 0.0 <= row[algorithm] <= 1.0
    # paper shape: chains are under-constrained — every algorithm does at
    # least as well on the chain as on the clique of the same size
    by_key = {(r["query"], r["n"]): r for r in rows}
    for n in config.variable_counts:
        assert by_key[("chain", n)]["SEA"] >= by_key[("clique", n)]["SEA"] - 0.2
