"""Dodd-Frank-style stress tests for datacenter/HPC operations (Section II.B).

The harness takes the standard catalogue of stress scenarios (or custom ones),
re-generates the facility's year under each scenario's climate/demand/grid
modifications, and reports how energy, cooling overhead, cost, emissions and
cooling-capacity violations degrade relative to the baseline scenario — the
"areas in need of remediation" output the paper wants such exercises to
produce.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Optional, Sequence

import numpy as np

from ..climate.stress_scenarios import STANDARD_STRESS_SCENARIOS, StressScenarioSpec
from ..climate.weather import WeatherModel
from ..config import config_replace
from ..cluster.cooling import CoolingModel
from ..errors import SimulationError
from ..grid.iso_ne import IsoNeLikeGrid
from ..timeutils import SimulationCalendar
from ..workloads.demand import DeadlineDemandConfig, DeadlineDemandModel
from ..workloads.supercloud import SuperCloudTraceConfig, SuperCloudTraceGenerator

__all__ = ["StressTestResult", "StressTestHarness"]


@dataclass(frozen=True)
class StressTestResult:
    """Outcome of one stress scenario."""

    scenario: str
    severity: int
    total_energy_mwh: float
    cooling_energy_mwh: float
    mean_pue: float
    peak_facility_power_kw: float
    total_cost_kusd: float
    total_emissions_t: float
    hours_cooling_overloaded: int
    max_outdoor_temperature_c: float

    def summary(self) -> Mapping[str, float | str]:
        """Flat record for tables."""
        return {
            "scenario": self.scenario,
            "severity": float(self.severity),
            "energy_mwh": self.total_energy_mwh,
            "cooling_mwh": self.cooling_energy_mwh,
            "mean_pue": self.mean_pue,
            "peak_power_kw": self.peak_facility_power_kw,
            "cost_kusd": self.total_cost_kusd,
            "emissions_t": self.total_emissions_t,
            "hours_cooling_overloaded": float(self.hours_cooling_overloaded),
            "max_outdoor_temp_c": self.max_outdoor_temperature_c,
        }


class StressTestHarness:
    """Runs the facility model through a battery of stress scenarios.

    Parameters
    ----------
    start_year / n_months:
        Horizon of each run (24 months by default, matching the paper's window).
    seed:
        Master seed shared by every scenario so differences are scenario-driven.
    trace_config / demand_config:
        Facility and demand parameters.
    baseline_weather_c / grid:
        Optional pre-built baseline substrates (e.g. from an
        :class:`~repro.experiments.session.ExperimentSession`'s cached
        scenario); when omitted they are derived from ``seed`` exactly as the
        session would derive them.
    """

    def __init__(
        self,
        *,
        start_year: int = 2020,
        n_months: int = 24,
        seed: int = 0,
        trace_config: Optional[SuperCloudTraceConfig] = None,
        demand_config: Optional[DeadlineDemandConfig] = None,
        baseline_weather_c: Optional[np.ndarray] = None,
        grid: Optional[IsoNeLikeGrid] = None,
    ) -> None:
        if n_months <= 0:
            raise SimulationError("n_months must be positive")
        self.calendar = SimulationCalendar(start_year=start_year, n_months=n_months)
        self.seed = seed
        self.trace_config = trace_config or SuperCloudTraceConfig()
        self.demand_config = demand_config or DeadlineDemandConfig()
        if baseline_weather_c is not None:
            baseline_weather_c = np.asarray(baseline_weather_c, dtype=float)
            if baseline_weather_c.shape != (self.calendar.total_hours,):
                raise SimulationError(
                    f"baseline_weather_c must have {self.calendar.total_hours} hourly values, "
                    f"got {baseline_weather_c.shape}"
                )
        self._baseline_weather = (
            baseline_weather_c
            if baseline_weather_c is not None
            else WeatherModel(seed=seed).hourly_temperature_c(self.calendar)
        )
        self._grid = grid if grid is not None else IsoNeLikeGrid(self.calendar, seed=seed)

    # ------------------------------------------------------------------
    # Single scenario
    # ------------------------------------------------------------------
    def run_scenario(self, scenario: StressScenarioSpec) -> StressTestResult:
        """Run the facility model under one stress scenario."""
        weather = self._baseline_weather
        if scenario.climate is not None:
            weather = scenario.climate.apply(self.calendar, weather)

        demand_config = config_replace(
            self.demand_config,
            baseline_occupancy=min(
                0.97, self.demand_config.baseline_occupancy * scenario.demand_multiplier
            ),
        )
        demand_model = DeadlineDemandModel(demand_config, seed=self.seed)
        cooling = CoolingModel().with_capacity_fraction(scenario.cooling_capacity_fraction)
        generator = SuperCloudTraceGenerator(
            self.trace_config, demand_model=demand_model, cooling=cooling, seed=self.seed
        )
        trace = generator.generate_load_trace(self.calendar, weather)

        hourly_kwh = trace.facility_power_w / 1e3
        it_kwh = trace.it_power_w / 1e3
        cooling_kwh = hourly_kwh - it_kwh
        carbon = self._grid.carbon_intensity_g_per_kwh * scenario.carbon_multiplier
        price = self._grid.price_per_mwh * scenario.price_multiplier

        overloaded = cooling.is_overloaded(trace.it_power_w, weather)
        return StressTestResult(
            scenario=scenario.name,
            severity=scenario.severity,
            total_energy_mwh=float(hourly_kwh.sum() / 1e3),
            cooling_energy_mwh=float(cooling_kwh.sum() / 1e3),
            mean_pue=float(hourly_kwh.sum() / it_kwh.sum()),
            peak_facility_power_kw=float(trace.facility_power_w.max() / 1e3),
            total_cost_kusd=float(np.sum(hourly_kwh / 1e3 * price) / 1e3),
            total_emissions_t=float(np.sum(hourly_kwh * carbon) / 1e6),
            hours_cooling_overloaded=int(np.sum(overloaded)),
            max_outdoor_temperature_c=float(np.max(weather)),
        )

    # ------------------------------------------------------------------
    # Batteries
    # ------------------------------------------------------------------
    def run_battery(
        self,
        scenarios: Sequence[StressScenarioSpec] = STANDARD_STRESS_SCENARIOS,
    ) -> dict[str, StressTestResult]:
        """Run a battery of scenarios in order, keyed by scenario name."""
        if not scenarios:
            raise SimulationError("run_battery requires at least one scenario")
        return {spec.name: self.run_scenario(spec) for spec in scenarios}

    @staticmethod
    def degradation_table(results: Mapping[str, StressTestResult]) -> list[dict[str, float | str]]:
        """Relative degradation of every scenario vs. the 'baseline' scenario."""
        if "baseline" not in results:
            raise SimulationError("degradation_table requires a 'baseline' scenario in the results")
        base = results["baseline"]
        table: list[dict[str, float | str]] = []
        for name, result in results.items():
            table.append(
                {
                    "scenario": name,
                    "severity": result.severity,
                    "energy_increase_pct": 100.0 * (result.total_energy_mwh / base.total_energy_mwh - 1.0),
                    "cooling_increase_pct": 100.0
                    * (result.cooling_energy_mwh / base.cooling_energy_mwh - 1.0),
                    "cost_increase_pct": 100.0 * (result.total_cost_kusd / base.total_cost_kusd - 1.0),
                    "emissions_increase_pct": 100.0
                    * (result.total_emissions_t / base.total_emissions_t - 1.0),
                    "pue_increase_pct": 100.0 * (result.mean_pue / base.mean_pue - 1.0),
                    "hours_cooling_overloaded": result.hours_cooling_overloaded,
                }
            )
        return table
