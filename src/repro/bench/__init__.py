"""Experiment harness: figure drivers, table rendering, and the benchmark ledger."""

from .figplot import ascii_chart, have_matplotlib, save_png
from .ledger import (
    LEDGER_VERSION,
    LedgerWriter,
    emit_sections,
    environment_fingerprint,
    git_commit,
    new_run_id,
    read_ledger,
    timer_stats,
    validate_row,
)
from .reporting import format_series, format_table, write_csv
from .runner import (
    Fig10aConfig,
    Fig10bConfig,
    Fig10cConfig,
    Fig11Config,
    QUERY_BUILDERS,
    default_heuristics,
    run_fig10a,
    run_fig10b,
    run_fig10c,
    run_fig11,
)

__all__ = [
    "format_table",
    "format_series",
    "write_csv",
    "Fig10aConfig",
    "run_fig10a",
    "Fig10bConfig",
    "run_fig10b",
    "Fig10cConfig",
    "run_fig10c",
    "Fig11Config",
    "run_fig11",
    "QUERY_BUILDERS",
    "default_heuristics",
    "LEDGER_VERSION",
    "LedgerWriter",
    "validate_row",
    "read_ledger",
    "emit_sections",
    "timer_stats",
    "environment_fingerprint",
    "git_commit",
    "new_run_id",
    "ascii_chart",
    "have_matplotlib",
    "save_png",
]
