"""Experiment harness: figure charts, the benchmark ledger and its CSV export.

The ledger lives in :mod:`repro.bench.ledger`; the figure drivers in
:mod:`repro.bench.runner`, the program ``runs/fig*/run_all.sh`` call.  The
runner is not imported here, so ``python -m repro.bench.runner`` loads it
once.
"""

from ..obs.report import format_table
from .figplot import ascii_chart, have_matplotlib, save_png
from .ledger import write_csv

__all__ = ["format_table", "write_csv", "ascii_chart", "have_matplotlib", "save_png"]
