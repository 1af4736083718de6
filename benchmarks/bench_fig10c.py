"""Figure 10c — best similarity vs expected number of solutions (n = 15).

Paper setting: 15-variable datasets whose density is increased so the
expected number of exact solutions grows from 1 to 10⁵; every algorithm runs
for 150 s (= 10·n).  Expected shape: similarity (weakly) increases with the
number of solutions for every algorithm — more solutions mean an easier
problem — and the relative ordering of the algorithms barely changes ("the
structure of the search space does not have a serious effect on the relative
effectiveness").
"""

from conftest import record_table, scaled, scaled_int

from repro.bench import Fig10cConfig, format_table, run_fig10c
from repro.bench.ledger import emit_sections


def test_fig10c(benchmark):
    config = Fig10cConfig(
        query_type="clique",
        num_variables=15,
        cardinality=scaled_int(2_000),
        expected_solutions=(1.0, 10.0, 1e2, 1e3, 1e4, 1e5),
        time_limit=scaled(2.0, minimum=0.5),
        repetitions=scaled_int(2),
        seed=0,
    )
    rows = benchmark.pedantic(run_fig10c, args=(config,), rounds=1, iterations=1)

    algorithms = ["ILS", "GILS", "SEA"]
    record_table(format_table(
        "Figure 10c — best similarity vs expected #solutions (clique n=15, "
        f"N={config.cardinality}, t={config.time_limit}s; "
        "paper: N=100000, t=150s)",
        ["Sol", "density"] + algorithms,
        [[f"{r['Sol']:g}", r["density"]] + [r[a] for a in algorithms]
         for r in rows],
    ))

    emit_sections("fig10c", [
        {
            "section": f"Sol={row['Sol']:g}/{algorithm}",
            "value": row[algorithm],
            "unit": "similarity",
            "better": None,  # approximation quality: informational
            "meta": {"Sol": row["Sol"], "density": row["density"]},
        }
        for row in rows
        for algorithm in algorithms
    ])

    # density must grow monotonically with the solution target
    densities = [r["density"] for r in rows]
    assert densities == sorted(densities)
    # shape: the most solution-rich cell is no harder than the hard region
    for algorithm in algorithms:
        assert rows[-1][algorithm] >= rows[0][algorithm] - 0.1
