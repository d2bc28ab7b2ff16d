"""Analysis layer: correlations and the paper's figures/tables.

The figure builders in :mod:`~repro.analysis.figures` are the single source of
truth for "what does Figure N plot": each returns a small dataclass holding
the exact series the paper shows (e.g. monthly average power in kW and monthly
solar+wind share in % for Fig. 2), computed end-to-end from the simulation
substrates, plus the summary statistics (correlations, ranges) that the
benchmarks compare against the paper's qualitative claims.
"""

from .correlation import (
    pearson_correlation,
    spearman_correlation,
    lagged_cross_correlation,
    best_lag,
)
from .figures import (
    Fig1Result,
    Fig2Result,
    Fig3Result,
    Fig4Result,
    Fig5Result,
    fig1_compute_trends,
    fig2_power_vs_green_share,
    fig3_price_vs_green_share,
    fig4_power_vs_temperature,
    fig5_energy_vs_deadlines,
)
from .tables import Table1Result, table1_conferences

__all__ = [
    "pearson_correlation",
    "spearman_correlation",
    "lagged_cross_correlation",
    "best_lag",
    "Fig1Result",
    "Fig2Result",
    "Fig3Result",
    "Fig4Result",
    "Fig5Result",
    "fig1_compute_trends",
    "fig2_power_vs_green_share",
    "fig3_price_vs_green_share",
    "fig4_power_vs_temperature",
    "fig5_energy_vs_deadlines",
    "Table1Result",
    "table1_conferences",
]
