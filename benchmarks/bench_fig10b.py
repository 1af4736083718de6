"""Figure 10b — best similarity as a function of time (n = 15).

Paper setting: the 15-variable datasets of Figure 10a, runs of 40 s
(chains) and 120 s (cliques), plotting the best similarity over time.
Expected shape: ILS and GILS converge early (the paper: before 5 s / 10 s);
SEA starts lower (population machinery) but catches up and passes them by
the end of the budget.
"""

from conftest import record_table, scaled, scaled_int

from repro.bench import Fig10bConfig, format_series, run_fig10b
from repro.bench.ledger import emit_sections


def test_fig10b(benchmark):
    config = Fig10bConfig(
        query_types=("chain", "clique"),
        num_variables=15,
        cardinality=scaled_int(2_000),
        time_limits={"chain": scaled(2.0, minimum=0.5),
                     "clique": scaled(6.0, minimum=1.0)},
        grid_points=8,
        repetitions=scaled_int(2),
        seed=0,
    )
    output = benchmark.pedantic(run_fig10b, args=(config,), rounds=1, iterations=1)

    emit_sections("fig10b", [
        {
            "section": f"{query_type}/{name}",
            "value": series[-1],
            "unit": "similarity",
            "better": None,  # staircase endpoint: informational
            "meta": {
                "query": query_type,
                "grid": [round(t, 4) for t in data["grid"]],
                "series": series,
            },
        }
        for query_type, data in output.items()
        for name, series in data["series"].items()
    ])

    for query_type, data in output.items():
        record_table(format_series(
            f"Figure 10b — similarity over time ({query_type}, n=15, "
            f"N={config.cardinality}; paper: N=100000, "
            f"{'40s' if query_type == 'chain' else '120s'})",
            "t(s)",
            [round(t, 2) for t in data["grid"]],
            data["series"],
        ))
        for name, series in data["series"].items():
            # each staircase is monotone non-decreasing by construction
            assert series == sorted(series), name
            assert 0.0 <= series[-1] <= 1.0
