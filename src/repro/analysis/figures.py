"""End-to-end builders for the paper's figures.

Each ``figN_*`` function reproduces one figure of the paper from the
simulation substrates and returns a result object holding (a) the plotted
series and (b) the summary statistics that capture the figure's qualitative
claim.  The corresponding benchmarks print the series and assert the claims;
``EXPERIMENTS.md`` records the measured statistics next to the paper's.

Figure inventory
----------------
* **Fig. 1** — training compute of notable A.I. systems over time; two growth
  eras (~2-year doubling pre-2012, months-scale doubling after).
* **Fig. 2** — monthly average facility power (kW) vs. the monthly share of
  grid energy from solar+wind; anti-correlated (consumption peaks exactly when
  the grid is dirtiest).
* **Fig. 3** — monthly average LMP ($/MWh) vs. the solar+wind share; prices
  are lowest in the high-renewable spring months.
* **Fig. 4** — monthly average facility power vs. monthly mean outdoor
  temperature (F); near one-to-one monotone relationship.
* **Fig. 5** — monthly energy use vs. the number of conference deadlines per
  month over 2020-2021, with energy ramping up *ahead of* deadline clusters
  and a sharper ramp in early 2021.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from ..climate.weather import WeatherConfig, WeatherModel
from ..config import SiteConfig
from ..errors import DataError
from ..grid.fuel_mix import FuelMixConfig
from ..grid.iso_ne import IsoNeLikeGrid
from ..grid.pricing import LmpPriceConfig
from ..rng import SeedLike
from ..timeutils import SimulationCalendar
from ..workloads.conferences import ConferenceCalendar
from ..workloads.demand import DeadlineDemandModel
from ..workloads.supercloud import (
    SuperCloudLoadTrace,
    SuperCloudTraceConfig,
    SuperCloudTraceGenerator,
)
from ..workloads.trends import ComputeTrendModel, EraFit
from ..cluster.cooling import CoolingModel
from .correlation import best_lag, pearson_correlation, spearman_correlation

__all__ = [
    "SuperCloudScenario",
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
]


# ---------------------------------------------------------------------------
# Shared scenario construction
# ---------------------------------------------------------------------------

@dataclass
class SuperCloudScenario:
    """The shared simulation context behind Figs. 2-5.

    Bundles the calendar, hourly weather, the facility load trace, and the
    grid series so that each figure builder (and the benchmarks) can reuse a
    single consistent world instead of re-deriving it.
    """

    calendar: SimulationCalendar
    weather_hourly_c: np.ndarray
    load_trace: SuperCloudLoadTrace
    grid: IsoNeLikeGrid
    weather_model: WeatherModel
    demand_model: DeadlineDemandModel

    @classmethod
    def build(
        cls,
        *,
        seed: SeedLike = 0,
        start_year: int = 2020,
        n_months: int = 24,
        conferences: Optional[ConferenceCalendar] = None,
        site: Optional[SiteConfig] = None,
        trace_config: Optional[SuperCloudTraceConfig] = None,
        fuel_config: Optional[FuelMixConfig] = None,
        price_config: Optional[LmpPriceConfig] = None,
    ) -> "SuperCloudScenario":
        """Construct the standard 2020-2021 SuperCloud-like scenario.

        ``site``, ``trace_config``, ``fuel_config`` and ``price_config`` let a
        :class:`~repro.experiments.spec.ScenarioSpec` vary the climate, the
        facility hardware and the grid; the defaults reproduce the paper's
        Holyoke-like world exactly.
        """
        calendar = SimulationCalendar(start_year=start_year, n_months=n_months)
        weather_model = WeatherModel(
            WeatherConfig(site=site) if site is not None else None, seed=seed
        )
        weather_hourly = weather_model.hourly_temperature_c(calendar)
        demand_model = DeadlineDemandModel(conferences=conferences, seed=seed)
        generator = SuperCloudTraceGenerator(
            trace_config, demand_model=demand_model, cooling=CoolingModel(), seed=seed
        )
        load_trace = generator.generate_load_trace(calendar, weather_hourly)
        grid = IsoNeLikeGrid(calendar, fuel_config=fuel_config, price_config=price_config, seed=seed)
        return cls(
            calendar=calendar,
            weather_hourly_c=weather_hourly,
            load_trace=load_trace,
            grid=grid,
            weather_model=weather_model,
            demand_model=demand_model,
        )


# ---------------------------------------------------------------------------
# Fig. 1 — compute trends
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Fig1Result:
    """Series and fits behind Fig. 1."""

    years: np.ndarray
    compute_pfs_days: np.ndarray
    is_modern: np.ndarray
    pre2012_fit: EraFit
    modern_fit: EraFit
    growth_acceleration: float


def fig1_compute_trends(model: Optional[ComputeTrendModel] = None) -> Fig1Result:
    """Reproduce Fig. 1: compute-demand scatter and per-era growth fits."""
    trend = model or ComputeTrendModel()
    scatter = trend.scatter_series()
    fits = trend.fit_all()
    return Fig1Result(
        years=scatter["year"],
        compute_pfs_days=scatter["compute_pfs_days"],
        is_modern=scatter["is_modern"],
        pre2012_fit=fits["pre-2012"],
        modern_fit=fits["modern"],
        growth_acceleration=trend.growth_acceleration(),
    )


# ---------------------------------------------------------------------------
# Fig. 2 — power vs. green fuel mix
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Fig2Result:
    """Series and statistics behind Fig. 2."""

    month_labels: tuple[str, ...]
    monthly_power_kw: np.ndarray
    monthly_renewable_share_pct: np.ndarray
    correlation: float
    power_peak_month: str
    renewable_peak_month: str

    def mismatch_opportunity(self) -> float:
        """How much greener the greenest quartile of months is than the months
        where the facility actually consumed the most (percentage points).

        This is the "opportunity" Fig. 2 points at: positive values mean the
        facility's heaviest months are dirtier than the grid's best months.
        """
        order_by_power = np.argsort(self.monthly_power_kw)[::-1]
        heavy_months = order_by_power[: max(1, len(order_by_power) // 4)]
        greenest = np.sort(self.monthly_renewable_share_pct)[::-1][: max(1, len(order_by_power) // 4)]
        return float(np.mean(greenest) - np.mean(self.monthly_renewable_share_pct[heavy_months]))


def fig2_power_vs_green_share(
    scenario: Optional[SuperCloudScenario] = None, *, seed: SeedLike = 0
) -> Fig2Result:
    """Reproduce Fig. 2: monthly facility power vs. monthly solar+wind share."""
    scenario = scenario or SuperCloudScenario.build(seed=seed)
    power_kw = scenario.load_trace.monthly_power_kw
    renewable_pct = scenario.grid.monthly.renewable_share_pct
    labels = tuple(scenario.calendar.labels())
    correlation = pearson_correlation(power_kw, renewable_pct)
    return Fig2Result(
        month_labels=labels,
        monthly_power_kw=power_kw,
        monthly_renewable_share_pct=renewable_pct,
        correlation=correlation,
        power_peak_month=labels[int(np.argmax(power_kw))],
        renewable_peak_month=labels[int(np.argmax(renewable_pct))],
    )


# ---------------------------------------------------------------------------
# Fig. 3 — prices vs. green fuel mix
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Fig3Result:
    """Series and statistics behind Fig. 3."""

    month_labels: tuple[str, ...]
    monthly_price_per_mwh: np.ndarray
    monthly_renewable_share_pct: np.ndarray
    correlation: float
    cheapest_month: str
    price_range: tuple[float, float]

    def spring_discount(self) -> float:
        """Mean price in the top-renewable third of months minus the rest ($/MWh).

        Negative values reproduce the paper's observation that the greenest
        (spring) months are also the cheapest.
        """
        order = np.argsort(self.monthly_renewable_share_pct)[::-1]
        top = order[: max(1, len(order) // 3)]
        rest = order[max(1, len(order) // 3):]
        return float(np.mean(self.monthly_price_per_mwh[top]) - np.mean(self.monthly_price_per_mwh[rest]))


def fig3_price_vs_green_share(
    scenario: Optional[SuperCloudScenario] = None, *, seed: SeedLike = 0
) -> Fig3Result:
    """Reproduce Fig. 3: monthly LMP vs. monthly solar+wind share."""
    scenario = scenario or SuperCloudScenario.build(seed=seed)
    monthly = scenario.grid.monthly
    labels = tuple(scenario.calendar.labels())
    correlation = pearson_correlation(monthly.price_per_mwh, monthly.renewable_share_pct)
    return Fig3Result(
        month_labels=labels,
        monthly_price_per_mwh=monthly.price_per_mwh,
        monthly_renewable_share_pct=monthly.renewable_share_pct,
        correlation=correlation,
        cheapest_month=labels[int(np.argmin(monthly.price_per_mwh))],
        price_range=(float(np.min(monthly.price_per_mwh)), float(np.max(monthly.price_per_mwh))),
    )


# ---------------------------------------------------------------------------
# Fig. 4 — power vs. temperature
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Fig4Result:
    """Series and statistics behind Fig. 4."""

    month_labels: tuple[str, ...]
    monthly_power_kw: np.ndarray
    monthly_temperature_f: np.ndarray
    pearson: float
    spearman: float

    def is_near_one_to_one(self, threshold: float = 0.85) -> bool:
        """Whether the monthly relationship is (nearly) monotone, as the paper claims."""
        return self.spearman >= threshold


def fig4_power_vs_temperature(
    scenario: Optional[SuperCloudScenario] = None, *, seed: SeedLike = 0
) -> Fig4Result:
    """Reproduce Fig. 4: monthly facility power vs. monthly mean temperature (F)."""
    scenario = scenario or SuperCloudScenario.build(seed=seed)
    power_kw = scenario.load_trace.monthly_power_kw
    temperature_f = scenario.weather_model.monthly_mean_temperature_f(
        scenario.calendar, scenario.weather_hourly_c
    )
    labels = tuple(scenario.calendar.labels())
    return Fig4Result(
        month_labels=labels,
        monthly_power_kw=power_kw,
        monthly_temperature_f=temperature_f,
        pearson=pearson_correlation(power_kw, temperature_f),
        spearman=spearman_correlation(power_kw, temperature_f),
    )


# ---------------------------------------------------------------------------
# Fig. 5 — energy vs. conference deadlines
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Fig5Result:
    """Series and statistics behind Fig. 5.

    Besides the two plotted series (monthly energy, monthly deadline counts),
    the result carries a *counterfactual* energy series generated with a
    rolling-submission calendar (no deadlines, everything else identical).
    The difference between the two — the "deadline uplift" — isolates the
    anticipation effect from the temperature/seasonal confounders the paper
    itself flags, which is how the reproduction verifies the figure's claim
    without pretending monthly correlations alone are conclusive.
    """

    month_labels: tuple[str, ...]
    monthly_energy_mwh: np.ndarray
    deadlines_per_month: np.ndarray
    counterfactual_energy_mwh: np.ndarray
    lead_lag_months: int
    lead_lag_correlation: float
    same_month_correlation: float
    early_2021_vs_2020_ratio: float

    @property
    def deadline_uplift_mwh(self) -> np.ndarray:
        """Extra monthly energy attributable to deadline anticipation."""
        return self.monthly_energy_mwh - self.counterfactual_energy_mwh

    @property
    def uplift_vs_upcoming_deadlines_correlation(self) -> float:
        """Correlation of the deadline uplift with deadlines in the current + next month.

        Anticipation means energy rises *before* deadline-heavy months, so the
        uplift should track the number of deadlines still ahead in the near
        term rather than the current month's count alone.
        """
        upcoming = self.deadlines_per_month.astype(float).copy()
        upcoming[:-1] += self.deadlines_per_month[1:]
        return pearson_correlation(self.deadline_uplift_mwh, upcoming)

    def anticipation_detected(self) -> bool:
        """Whether the deadline-anticipation pattern of Section III is present:
        deadlines add energy (positive uplift) and the uplift tracks upcoming
        deadlines."""
        return (
            float(np.mean(self.deadline_uplift_mwh)) > 0
            and self.uplift_vs_upcoming_deadlines_correlation > 0
        )


def fig5_energy_vs_deadlines(
    scenario: Optional[SuperCloudScenario] = None, *, seed: SeedLike = 0
) -> Fig5Result:
    """Reproduce Fig. 5: monthly energy use vs. monthly conference-deadline counts."""
    scenario = scenario or SuperCloudScenario.build(seed=seed)
    calendar = scenario.calendar
    if calendar.n_months < 16:
        raise DataError("Fig. 5 requires at least 16 months (two partial years) of horizon")
    energy_mwh = scenario.load_trace.monthly_energy_mwh
    deadlines = scenario.demand_model.monthly_deadline_counts(calendar).astype(float)
    labels = tuple(calendar.labels())

    # Counterfactual world: identical facility, weather and noise seed, but a
    # rolling-submission calendar (no deadline anticipation at all).
    rolling = scenario.demand_model.conferences.restructured("rolling")
    counterfactual_demand = scenario.demand_model.with_calendar(rolling)
    counterfactual_generator = SuperCloudTraceGenerator(
        demand_model=counterfactual_demand, cooling=CoolingModel(), seed=0
    )
    counterfactual_trace = counterfactual_generator.generate_load_trace(
        calendar, scenario.weather_hourly_c
    )

    lag, lag_corr = best_lag(energy_mwh, deadlines, max_lag=3)
    same_month = pearson_correlation(energy_mwh, deadlines)

    # Early-year (Jan-Apr) energy growth from 2020 to 2021 — the paper's
    # "sharper pickup in energy usage starting around Jan/Feb 2021".
    years = calendar.year_array()
    months = calendar.month_of_year_array()
    first_year = int(years.min())
    early_mask_2020 = (years == first_year) & (months <= 4)
    early_mask_2021 = (years == first_year + 1) & (months <= 4)
    if not np.any(early_mask_2020) or not np.any(early_mask_2021):
        ratio = float("nan")
    else:
        ratio = float(np.mean(energy_mwh[early_mask_2021]) / np.mean(energy_mwh[early_mask_2020]))

    return Fig5Result(
        month_labels=labels,
        monthly_energy_mwh=energy_mwh,
        deadlines_per_month=deadlines,
        counterfactual_energy_mwh=counterfactual_trace.monthly_energy_mwh,
        lead_lag_months=int(lag),
        lead_lag_correlation=float(lag_corr),
        same_month_correlation=float(same_month),
        early_2021_vs_2020_ratio=ratio,
    )
