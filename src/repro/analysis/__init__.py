"""Analysis layer: volatility/peak/cost metrics, comparisons, rendering."""

from .compare import comparison_rows, comparison_table, volatility_reduction
from .metrics import (
    BudgetStats,
    RunSummary,
    budget_stats,
    peak_power,
    power_volatility,
    power_volatility_per_second,
    ramp_max,
    summarize_run,
)
from .plots import ascii_chart, series_csv, sparkline
from .tables import format_quantity, render_table

__all__ = [
    "power_volatility",
    "power_volatility_per_second",
    "peak_power",
    "ramp_max",
    "budget_stats",
    "BudgetStats",
    "summarize_run",
    "RunSummary",
    "comparison_table",
    "comparison_rows",
    "volatility_reduction",
    "render_table",
    "format_quantity",
    "sparkline",
    "ascii_chart",
    "series_csv",
]
