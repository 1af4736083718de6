#!/usr/bin/env bash
# T1 of the Figure 10a recipe (see README.md): regenerate the figure and land
# its ledger rows in raw/fig10a.jsonl, then chain T2 (to_csv) and T3 (plot).
set -euo pipefail
cd "$(dirname "$0")"
REPO_ROOT="$(cd ../.. && pwd)"

mkdir -p raw
rm -f raw/fig10a.jsonl

export PYTHONPATH="${REPO_ROOT}/src${PYTHONPATH:+:${PYTHONPATH}}"
export REPRO_LEDGER_PATH="$(pwd)/raw/fig10a.jsonl"
# laptop-scale by default; REPRO_BENCH_SCALE=1.0 approaches the paper grid
export REPRO_BENCH_SCALE="${REPRO_BENCH_SCALE:-0.1}"

python -m repro.bench.runner fig10a
python to_csv.py
python plot.py
