"""Declarative scenario specification and the named scenario/site registries.

A :class:`ScenarioSpec` is the single description of *which world* an
experiment runs in: the master seed, the simulated horizon, the facility
hardware, the site climate, the grid parameters and the workload shape.  It
is a frozen (hashable) dataclass, so an :class:`~repro.experiments.session.
ExperimentSession` can use the spec itself as the cache key for the expensive
substrates built from it.

Two small registries make specs addressable by name:

* the **site registry** (:func:`get_site` / :func:`site_names`) maps short
  names to :class:`~repro.config.SiteConfig` descriptions (the CLI's
  ``--site`` flag);
* the **scenario registry** (:func:`register_scenario` / :func:`get_scenario`
  / :func:`list_scenarios`) maps names to full specs (the CLI's
  ``--scenario`` flag), pre-populated with the paper's worlds.

Both tables are :class:`~repro.registry.Registry` instances.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Mapping, Optional

from ..config import (
    FacilityConfig,
    SiteConfig,
    config_replace,
    config_to_jsonable,
)
from ..errors import ConfigurationError
from ..grid.fuel_mix import FuelMixConfig
from ..grid.pricing import LmpPriceConfig
from ..registry import Registry
from ..timeutils import SimulationCalendar
from ..workloads.supercloud import SuperCloudTraceConfig

__all__ = [
    "WorkloadSpec",
    "GridSpec",
    "ScenarioSpec",
    "SCENARIO_OVERRIDES",
    "register_scenario",
    "get_scenario",
    "list_scenarios",
    "scenario_names",
    "register_site",
    "get_site",
    "site_names",
]


@dataclass(frozen=True)
class WorkloadSpec:
    """Workload-shape knobs of a scenario (the SuperCloud-like trace).

    Attributes
    ----------
    gpu_model:
        GPU model installed in the cluster (see :mod:`repro.telemetry.gpu_power`).
    mean_busy_utilization:
        Average compute utilization of a busy GPU.
    packing_factor:
        How well busy GPUs pack onto nodes (1 = perfectly packed).
    """

    gpu_model: str = "V100"
    mean_busy_utilization: float = 0.72
    packing_factor: float = 0.7


@dataclass(frozen=True)
class GridSpec:
    """Grid-parameter overrides of a scenario (``None`` = model defaults)."""

    fuel: Optional[FuelMixConfig] = None
    price: Optional[LmpPriceConfig] = None


@dataclass(frozen=True)
class ScenarioSpec:
    """Everything needed to (re)build one simulated world, declaratively.

    Attributes
    ----------
    name:
        Registry name / report label.
    seed:
        Master random seed from which every substrate stream is derived.
    start_year / n_months:
        Simulated horizon (the paper's window is 2020-2021, 24 months).
    site:
        Site climate and location.
    facility:
        Facility hardware description.
    workload:
        Workload-shape knobs.
    grid:
        Grid-parameter overrides.
    description:
        One-line human description shown by registry listings.
    """

    name: str = "default"
    seed: int = 0
    start_year: int = 2020
    n_months: int = 24
    site: SiteConfig = SiteConfig()
    facility: FacilityConfig = FacilityConfig()
    workload: WorkloadSpec = WorkloadSpec()
    grid: GridSpec = GridSpec()
    description: str = ""

    def __post_init__(self) -> None:
        if not self.name:
            raise ConfigurationError("scenario name must be non-empty")
        if self.n_months <= 0:
            raise ConfigurationError(f"n_months must be positive, got {self.n_months!r}")

    # ------------------------------------------------------------------
    # Derived objects
    # ------------------------------------------------------------------
    def calendar(self) -> SimulationCalendar:
        """The simulation calendar this spec describes."""
        return SimulationCalendar(start_year=self.start_year, n_months=self.n_months)

    def trace_config(self) -> SuperCloudTraceConfig:
        """The facility-load trace configuration implied by the spec."""
        return SuperCloudTraceConfig(
            facility=self.facility,
            gpu_model=self.workload.gpu_model,
            mean_busy_utilization=self.workload.mean_busy_utilization,
            packing_factor=self.workload.packing_factor,
        )

    def replace(self, **changes: Any) -> "ScenarioSpec":
        """A copy of the spec with ``changes`` applied (unknown fields raise)."""
        return config_replace(self, **changes)

    def to_dict(self) -> dict[str, Any]:
        """Deep, JSON-ready dictionary form of the spec."""
        return config_to_jsonable(self)


#: The scalar scenario fields a caller may override by name, with their
#: types: the CLI's ``--grid`` scenario keys and the serve API's scenario
#: overrides.  ``site`` values are registered site names.
SCENARIO_OVERRIDES: Mapping[str, type] = {
    "seed": int,
    "start_year": int,
    "n_months": int,
    "site": str,
}


# ---------------------------------------------------------------------------
# Site registry
# ---------------------------------------------------------------------------

_SITES: Registry[SiteConfig] = Registry("site", "sites", ConfigurationError)


def register_site(site: SiteConfig, *, overwrite: bool = False) -> SiteConfig:
    """Register a site under its own ``name`` so the CLI can select it."""
    return _SITES.register(site.name, site, overwrite=overwrite)


#: Look up a registered site by name.
get_site = _SITES.get
#: Names of all registered sites, in registration order.
site_names = _SITES.names


register_site(SiteConfig())  # holyoke-ma, the paper's site
register_site(
    SiteConfig(
        name="phoenix-az",
        mean_annual_temperature_c=23.9,
        seasonal_temperature_amplitude_c=10.5,
        diurnal_temperature_amplitude_c=7.0,
        latitude_deg=33.4,
        grid_region="AZPS",
    )
)
register_site(
    SiteConfig(
        name="reykjavik-is",
        mean_annual_temperature_c=4.5,
        seasonal_temperature_amplitude_c=5.5,
        diurnal_temperature_amplitude_c=2.0,
        latitude_deg=64.1,
        grid_region="IS",
    )
)
# The continental ladder: eight more North-American sites, one per grid
# region, so 10-site fleets span genuinely different climate/carbon/price
# substrates (regional grid profiles live in repro.fleet.spec.REGION_GRIDS).
register_site(
    SiteConfig(
        name="columbia-wa",
        mean_annual_temperature_c=11.5,
        seasonal_temperature_amplitude_c=10.0,
        diurnal_temperature_amplitude_c=6.5,
        latitude_deg=46.2,
        grid_region="BPA",
    )
)
register_site(
    SiteConfig(
        name="dallas-tx",
        mean_annual_temperature_c=18.8,
        seasonal_temperature_amplitude_c=11.0,
        diurnal_temperature_amplitude_c=5.5,
        latitude_deg=32.8,
        grid_region="ERCO",
    )
)
register_site(
    SiteConfig(
        name="denver-co",
        mean_annual_temperature_c=10.1,
        seasonal_temperature_amplitude_c=11.5,
        diurnal_temperature_amplitude_c=7.5,
        latitude_deg=39.7,
        grid_region="PSCO",
    )
)
register_site(
    SiteConfig(
        name="atlanta-ga",
        mean_annual_temperature_c=17.0,
        seasonal_temperature_amplitude_c=9.5,
        diurnal_temperature_amplitude_c=5.0,
        latitude_deg=33.7,
        grid_region="SOCO",
    )
)
register_site(
    SiteConfig(
        name="sanjose-ca",
        mean_annual_temperature_c=15.3,
        seasonal_temperature_amplitude_c=5.0,
        diurnal_temperature_amplitude_c=6.0,
        latitude_deg=37.3,
        grid_region="CISO",
    )
)
register_site(
    SiteConfig(
        name="chicago-il",
        mean_annual_temperature_c=9.9,
        seasonal_temperature_amplitude_c=13.0,
        diurnal_temperature_amplitude_c=4.5,
        latitude_deg=41.9,
        grid_region="MISO",
    )
)
register_site(
    SiteConfig(
        name="ashburn-va",
        mean_annual_temperature_c=13.4,
        seasonal_temperature_amplitude_c=11.0,
        diurnal_temperature_amplitude_c=5.0,
        latitude_deg=39.0,
        grid_region="PJM",
    )
)
register_site(
    SiteConfig(
        name="quebec-qc",
        mean_annual_temperature_c=4.2,
        seasonal_temperature_amplitude_c=14.5,
        diurnal_temperature_amplitude_c=4.0,
        latitude_deg=46.8,
        grid_region="HQ",
    )
)


# ---------------------------------------------------------------------------
# Scenario registry
# ---------------------------------------------------------------------------

_SCENARIOS: Registry[ScenarioSpec] = Registry("scenario", "scenarios", ConfigurationError)


def register_scenario(spec: ScenarioSpec, *, overwrite: bool = False) -> ScenarioSpec:
    """Register ``spec`` under ``spec.name``; returns the spec for chaining."""
    return _SCENARIOS.register(spec.name, spec, overwrite=overwrite)


#: Look up a registered scenario by name.
get_scenario = _SCENARIOS.get
#: Names of all registered scenarios, in registration order.
scenario_names = _SCENARIOS.names
#: Iterate over the registered scenario specs, in registration order.
list_scenarios = _SCENARIOS.values


register_scenario(
    ScenarioSpec(description="the paper's 2020-2021 SuperCloud-like world (seed 0)")
)
register_scenario(
    ScenarioSpec(
        name="paper",
        seed=20220527,
        description="same world, seeded with the paper's submission date",
    )
)
register_scenario(
    ScenarioSpec(
        name="single-year",
        n_months=12,
        description="one simulated year (too short for the Fig. 5 analysis)",
    )
)
register_scenario(
    ScenarioSpec(
        name="hot-climate",
        site=get_site("phoenix-az"),
        description="the same facility relocated to a hot desert climate",
    )
)
register_scenario(
    ScenarioSpec(
        name="a100-refresh",
        workload=WorkloadSpec(gpu_model="A100"),
        description="the facility after an A100 hardware refresh",
    )
)
register_scenario(
    ScenarioSpec(
        name="supercloud-small",
        facility=FacilityConfig(name="supercloud-small", n_nodes=16, gpus_per_node=4),
        description=(
            "a 16-node x 4-GPU slice of the facility (the small benchmark tier; "
            "also the seeded world of the policy-composition parity tests)"
        ),
    )
)
register_scenario(
    ScenarioSpec(
        name="supercloud-medium",
        facility=FacilityConfig(name="supercloud-medium", n_nodes=64, gpus_per_node=4),
        description=(
            "a 64-node x 4-GPU build of the facility (the medium benchmark tier; "
            "also the seeded world of the policy-composition parity tests)"
        ),
    )
)
register_scenario(
    ScenarioSpec(
        name="supercloud-large",
        facility=FacilityConfig(name="supercloud-large", n_nodes=256, gpus_per_node=8),
        workload=WorkloadSpec(gpu_model="A100"),
        description=(
            "a 256-node x 8-GPU A100 build-out of the facility "
            "(the scale tier exercised by benchmarks/test_bench_simulator_scale.py)"
        ),
    )
)
register_scenario(
    ScenarioSpec(
        name="supercloud-xlarge",
        facility=FacilityConfig(name="supercloud-xlarge", n_nodes=1024, gpus_per_node=8),
        workload=WorkloadSpec(gpu_model="A100"),
        description=(
            "a 1024-node x 8-GPU A100 build-out (8192 GPUs — the top rung of the "
            "scale ladder, sized for parallel-fleet and single-site scale benchmarks)"
        ),
    )
)
