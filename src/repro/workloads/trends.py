"""AI training-compute demand trends (Fig. 1).

Figure 1 of the paper reproduces the well-known OpenAI / Economist chart of
training compute used by notable A.I. systems over time, highlighting the
break around 2012: before it, compute grew roughly with Moore's law (~2-year
doubling); after it, the largest training runs doubled every ~3.4 months —
a steep super-exponential era that motivates the whole sustainability
discussion.

This module carries a small catalogue of notable systems (publication year
and approximate training compute in petaflop/s-days, following the public
estimates) and a :class:`ComputeTrendModel` that fits per-era exponential
growth rates and reports doubling times — the quantities the FIG1 benchmark
compares against the published 2-year / 3.4-month figures.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from ..errors import DataError

__all__ = ["NotableSystem", "NOTABLE_SYSTEMS", "ComputeTrendModel", "EraFit"]


@dataclass(frozen=True)
class NotableSystem:
    """One notable A.I. system on the Fig. 1 scatter.

    Attributes
    ----------
    name:
        System name.
    year:
        Publication year (fractional years allowed).
    compute_pfs_days:
        Approximate training compute in petaflop/s-days.
    era:
        ``"pre-2012"`` or ``"modern"`` (the two regimes of Fig. 1).
    """

    name: str
    year: float
    compute_pfs_days: float
    era: str

    def __post_init__(self) -> None:
        if self.compute_pfs_days <= 0:
            raise DataError(f"{self.name}: compute must be positive")
        if self.era not in ("pre-2012", "modern"):
            raise DataError(f"{self.name}: era must be 'pre-2012' or 'modern'")


#: Approximate public estimates (order-of-magnitude) following the OpenAI
#: "AI and Compute" analysis the figure is drawn from.
NOTABLE_SYSTEMS: tuple[NotableSystem, ...] = (
    NotableSystem("Perceptron", 1958.0, 1e-13, "pre-2012"),
    NotableSystem("ADALINE", 1960.0, 3e-13, "pre-2012"),
    NotableSystem("Neocognitron", 1980.0, 5e-11, "pre-2012"),
    NotableSystem("NetTalk", 1987.0, 2e-9, "pre-2012"),
    NotableSystem("ALVINN", 1989.0, 5e-9, "pre-2012"),
    NotableSystem("TD-Gammon", 1992.0, 2e-8, "pre-2012"),
    NotableSystem("LeNet-5", 1998.0, 5e-8, "pre-2012"),
    NotableSystem("Deep Belief Nets", 2006.0, 3e-6, "pre-2012"),
    NotableSystem("RNN for speech", 2009.0, 2e-5, "pre-2012"),
    NotableSystem("Feedforward NN speech", 2011.0, 1e-4, "pre-2012"),
    NotableSystem("AlexNet", 2012.5, 5e-3, "modern"),
    NotableSystem("Dropout", 2013.0, 8e-3, "modern"),
    NotableSystem("Visualizing CNNs", 2013.5, 6e-3, "modern"),
    NotableSystem("GoogLeNet", 2014.7, 2e-2, "modern"),
    NotableSystem("VGG", 2014.7, 1e-1, "modern"),
    NotableSystem("Seq2Seq", 2014.9, 8e-2, "modern"),
    NotableSystem("ResNet-152", 2015.9, 2e-1, "modern"),
    NotableSystem("DeepSpeech2", 2015.9, 3e-1, "modern"),
    NotableSystem("Xception", 2016.8, 5e-1, "modern"),
    NotableSystem("Neural Machine Translation", 2016.7, 1.0, "modern"),
    NotableSystem("Neural Architecture Search", 2016.9, 2.0, "modern"),
    NotableSystem("T17 Dota 1v1", 2017.6, 8.0, "modern"),
    NotableSystem("AlphaGo Zero", 2017.8, 2e3, "modern"),
    NotableSystem("AlphaZero", 2017.9, 4e3, "modern"),
    NotableSystem("BERT-Large", 2018.8, 3e2, "modern"),
    NotableSystem("GPT-2", 2019.1, 1e3, "modern"),
    NotableSystem("Megatron-LM", 2019.7, 8e3, "modern"),
    NotableSystem("GPT-3", 2020.4, 3.64e3, "modern"),
    NotableSystem("AlphaFold 2", 2020.9, 1e4, "modern"),
    NotableSystem("Gopher", 2021.9, 6e4, "modern"),
)


@dataclass(frozen=True)
class EraFit:
    """Exponential-growth fit of one era of the compute trend."""

    era: str
    n_systems: int
    growth_rate_per_year: float  # in log10 units per year
    doubling_time_months: float
    r_squared: float


class ComputeTrendModel:
    """Fits per-era exponential growth to the notable-systems catalogue."""

    def __init__(self, systems: Sequence[NotableSystem] | None = None) -> None:
        self.systems: tuple[NotableSystem, ...] = (
            tuple(systems) if systems is not None else NOTABLE_SYSTEMS
        )
        if len(self.systems) < 4:
            raise DataError("ComputeTrendModel requires at least four systems")

    def era_systems(self, era: str) -> list[NotableSystem]:
        """Systems belonging to one era."""
        subset = [s for s in self.systems if s.era == era]
        if not subset:
            raise DataError(f"no systems in era {era!r}")
        return subset

    def fit_era(self, era: str) -> EraFit:
        """Least-squares fit of log10(compute) vs. year for one era."""
        subset = self.era_systems(era)
        if len(subset) < 2:
            raise DataError(f"era {era!r} needs at least two systems to fit a trend")
        years = np.asarray([s.year for s in subset])
        log_compute = np.log10([s.compute_pfs_days for s in subset])
        slope, intercept = np.polyfit(years, log_compute, deg=1)
        predicted = slope * years + intercept
        ss_res = float(np.sum((log_compute - predicted) ** 2))
        ss_tot = float(np.sum((log_compute - log_compute.mean()) ** 2))
        r_squared = 1.0 - ss_res / ss_tot if ss_tot > 0 else 1.0
        # doubling time: slope is log10 per year; doublings per year = slope / log10(2).
        doublings_per_year = slope / np.log10(2.0)
        doubling_time_months = 12.0 / doublings_per_year if doublings_per_year > 0 else float("inf")
        return EraFit(
            era=era,
            n_systems=len(subset),
            growth_rate_per_year=float(slope),
            doubling_time_months=float(doubling_time_months),
            r_squared=float(r_squared),
        )

    def fit_all(self) -> dict[str, EraFit]:
        """Fits for both eras."""
        return {era: self.fit_era(era) for era in ("pre-2012", "modern")}

    def growth_acceleration(self) -> float:
        """Ratio of modern to pre-2012 growth rates (how much steeper Fig. 1 became)."""
        fits = self.fit_all()
        pre = fits["pre-2012"].growth_rate_per_year
        if pre <= 0:
            raise DataError("pre-2012 growth rate must be positive to compute acceleration")
        return fits["modern"].growth_rate_per_year / pre

    def scatter_series(self) -> dict[str, np.ndarray]:
        """(year, compute) arrays for plotting the Fig. 1 scatter."""
        return {
            "year": np.asarray([s.year for s in self.systems]),
            "compute_pfs_days": np.asarray([s.compute_pfs_days for s in self.systems]),
            "is_modern": np.asarray([s.era == "modern" for s in self.systems]),
        }
