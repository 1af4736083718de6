#!/usr/bin/env bash
# T1 of the Figure 11 recipe (see README.md): regenerate the figure and land
# its ledger rows in raw/fig11.jsonl, then chain T2 (to_csv) and T3 (plot).
set -euo pipefail
cd "$(dirname "$0")"
REPO_ROOT="$(cd ../.. && pwd)"

mkdir -p raw
rm -f raw/fig11.jsonl

export PYTHONPATH="${REPO_ROOT}/src${PYTHONPATH:+:${PYTHONPATH}}"
export REPRO_LEDGER_PATH="$(pwd)/raw/fig11.jsonl"
export REPRO_BENCH_SCALE="${REPRO_BENCH_SCALE:-0.1}"

python -m repro.bench.runner fig11
python to_csv.py
python plot.py
