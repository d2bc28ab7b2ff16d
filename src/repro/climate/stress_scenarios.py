"""Named catalogue of Dodd-Frank-style stress scenarios.

The paper's Section II.B draws an explicit analogy with the annual Dodd-Frank
bank stress tests: define a small set of adverse-but-plausible scenarios,
run the institution's models through them every year, and use the results to
find weak infrastructure before reality does.  The catalogue here combines a
*climate* component (temperature transformation), a *demand* component
(relative increase in compute demand), and a *grid* component (price and
carbon multipliers), which is the cross-product of stresses the paper calls
out: weather, user demand, and energy-market conditions.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..config import require_positive
from ..errors import ConfigurationError
from .scenarios import (
    AmplifiedSeasonsScenario,
    ClimateScenario,
    ColdSnapScenario,
    CompositeScenario,
    HeatWaveScenario,
    UniformWarmingScenario,
)

__all__ = ["StressScenarioSpec", "STANDARD_STRESS_SCENARIOS"]


@dataclass(frozen=True)
class StressScenarioSpec:
    """One named stress scenario.

    Attributes
    ----------
    name:
        Catalogue identifier.
    description:
        Human-readable description for reports.
    climate:
        Temperature transformation applied to the baseline weather trace
        (``None`` leaves weather unchanged).
    demand_multiplier:
        Relative scaling of the facility's compute demand (1.0 = unchanged).
    price_multiplier:
        Relative scaling of grid prices.
    carbon_multiplier:
        Relative scaling of grid carbon intensity (e.g. a dirty-grid year).
    cooling_capacity_fraction:
        Fraction of cooling capacity available (models chiller failures).
    severity:
        Ordinal 1 (adverse) .. 3 (severely adverse), mirroring the Fed's
        baseline / adverse / severely-adverse taxonomy.
    """

    name: str
    description: str
    climate: ClimateScenario | None = None
    demand_multiplier: float = 1.0
    price_multiplier: float = 1.0
    carbon_multiplier: float = 1.0
    cooling_capacity_fraction: float = 1.0
    severity: int = 1

    def __post_init__(self) -> None:
        require_positive(self.demand_multiplier, "demand_multiplier")
        require_positive(self.price_multiplier, "price_multiplier")
        require_positive(self.carbon_multiplier, "carbon_multiplier")
        if not 0.0 < self.cooling_capacity_fraction <= 1.0:
            raise ConfigurationError("cooling_capacity_fraction must lie in (0, 1]")
        if self.severity not in (1, 2, 3):
            raise ConfigurationError("severity must be 1, 2 or 3")
        if not self.name:
            raise ConfigurationError("scenario name must be non-empty")


#: The standard catalogue evaluated by the STRESS benchmark.  Ordered from
#: least to most severe.
STANDARD_STRESS_SCENARIOS: tuple[StressScenarioSpec, ...] = (
    StressScenarioSpec(
        name="baseline",
        description="Current climate, demand and grid conditions.",
        climate=None,
        severity=1,
    ),
    StressScenarioSpec(
        name="warm-summer",
        description="+2 C uniform warming with a one-week summer heat wave.",
        climate=CompositeScenario(
            [UniformWarmingScenario(2.0), HeatWaveScenario(start_day=550.0, duration_days=7.0, peak_excess_c=6.0)],
            name="warm-summer",
        ),
        demand_multiplier=1.0,
        price_multiplier=1.05,
        severity=1,
    ),
    StressScenarioSpec(
        name="adverse-heat",
        description="+3 C warming, amplified seasons, two-week extreme heat wave, 10% demand growth.",
        climate=CompositeScenario(
            [
                UniformWarmingScenario(3.0),
                AmplifiedSeasonsScenario(1.2),
                HeatWaveScenario(start_day=545.0, duration_days=14.0, peak_excess_c=9.0),
            ],
            name="adverse-heat",
        ),
        demand_multiplier=1.10,
        price_multiplier=1.15,
        carbon_multiplier=1.05,
        severity=2,
    ),
    StressScenarioSpec(
        name="winter-gas-crisis",
        description="Severe cold snap with constrained gas supply: prices x1.8, dirtier marginal fuel.",
        climate=ColdSnapScenario(start_day=380.0, duration_days=10.0, peak_excess_c=14.0),
        demand_multiplier=1.0,
        price_multiplier=1.8,
        carbon_multiplier=1.20,
        severity=2,
    ),
    StressScenarioSpec(
        name="severely-adverse",
        description=(
            "+4 C warming, amplified seasons, three-week heat wave, 25% demand growth, "
            "one chiller down, prices x1.5."
        ),
        climate=CompositeScenario(
            [
                UniformWarmingScenario(4.0),
                AmplifiedSeasonsScenario(1.3),
                HeatWaveScenario(start_day=540.0, duration_days=21.0, peak_excess_c=11.0),
            ],
            name="severely-adverse",
        ),
        demand_multiplier=1.25,
        price_multiplier=1.5,
        carbon_multiplier=1.15,
        cooling_capacity_fraction=0.75,
        severity=3,
    ),
)
