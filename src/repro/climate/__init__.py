"""Climate substrate: site weather, climate-change scenarios, stress events.

Figure 4 of the paper couples the facility's monthly power draw to the local
outdoor temperature (cooling dominates the seasonal variation), and Section
II.B argues for Dodd-Frank-style *stress tests* of datacenter operations
under more extreme weather.  This package provides:

* :class:`~repro.climate.weather.WeatherModel` — hourly outdoor temperature
  for a configurable site (seasonal + diurnal cycles + weather noise), with
  Boston-area defaults.
* :class:`~repro.climate.scenarios.ClimateScenario` — systematic modifications
  of a weather trace (uniform warming, amplified summers, heat waves, cold
  snaps) used to ask "what does efficiency look like under future climate?".
* :mod:`~repro.climate.stress_scenarios` — a named catalogue of stress
  scenarios consumed by the stress-test harness in :mod:`repro.core.stress`.
"""

from .weather import WeatherConfig, WeatherModel
from .scenarios import (
    ClimateScenario,
    UniformWarmingScenario,
    AmplifiedSeasonsScenario,
    HeatWaveScenario,
    ColdSnapScenario,
    CompositeScenario,
)
from .stress_scenarios import StressScenarioSpec, STANDARD_STRESS_SCENARIOS

__all__ = [
    "WeatherConfig",
    "WeatherModel",
    "ClimateScenario",
    "UniformWarmingScenario",
    "AmplifiedSeasonsScenario",
    "HeatWaveScenario",
    "ColdSnapScenario",
    "CompositeScenario",
    "StressScenarioSpec",
    "STANDARD_STRESS_SCENARIOS",
]
