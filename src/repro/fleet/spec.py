"""Declarative fleet specification and the named fleet registry.

A :class:`FleetSpec` names N member sites — each an ordinary
:class:`~repro.experiments.spec.ScenarioSpec` — plus the fleet's default
routing policy.  Members are most conveniently addressed with the
``scenario@site`` shorthand, which relocates a registered scenario to a
registered site::

    >>> from repro.fleet import FleetSpec, resolve_member
    >>> member = resolve_member("supercloud-small@phoenix-az")
    >>> member.site.name
    'phoenix-az'

A small :class:`~repro.registry.Registry` (:func:`register_fleet` /
:func:`get_fleet` / :func:`fleet_names`) makes fleets addressable by name from the ``fleet``
experiment, campaigns and the CLI, pre-populated with a degenerate single
site fleet (the parity anchor), a two-site fleet, and the three-site fleet
used throughout the examples and tests.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Union

from ..config import config_replace
from ..errors import ConfigurationError
from ..experiments.spec import GridSpec, ScenarioSpec, get_scenario, get_site
from ..grid.fuel_mix import FuelMixConfig
from ..grid.pricing import LmpPriceConfig
from ..registry import Registry
from .routing import make_router

__all__ = [
    "FleetSpec",
    "REGION_GRIDS",
    "resolve_member",
    "register_fleet",
    "get_fleet",
    "fleet_names",
    "list_fleets",
]

MemberLike = Union[str, ScenarioSpec]

#: Regional grid profiles by :attr:`~repro.config.SiteConfig.grid_region`.
#: Relocating a scenario with ``scenario@site`` adopts the target region's
#: fuel-mix and price parameters (unless the scenario already carries explicit
#: grid overrides), so fleet members see genuinely different carbon, price and
#: renewable signals — the substrate geo-aware routers act on.  ``ISO-NE``
#: (the paper's region) is the model default and needs no entry.
REGION_GRIDS: dict[str, GridSpec] = {
    # Arizona: strong midday solar, little wind, nuclear baseload (Palo
    # Verde), mild winters with no gas-constraint premium.
    "AZPS": GridSpec(
        fuel=FuelMixConfig(
            solar_peak_share=0.30,
            solar_seasonal_amplitude=0.25,
            wind_mean_share=0.015,
            hydro_share=0.05,
            nuclear_share=0.30,
            winter_demand_bump=0.0,
        ),
        price=LmpPriceConfig(base_price_per_mwh=33.0, winter_gas_premium=1.0),
    ),
    # Iceland: hydro-dominated near-zero-carbon grid, cheap power, winter
    # demand peak (heating), negligible solar.
    "IS": GridSpec(
        fuel=FuelMixConfig(
            solar_peak_share=0.01,
            solar_seasonal_amplitude=0.10,
            wind_mean_share=0.05,
            hydro_share=0.62,
            nuclear_share=0.0,
            weather_noise_std=0.10,
            demand_peak_month=1,
        ),
        price=LmpPriceConfig(base_price_per_mwh=24.0, winter_gas_premium=1.05),
    ),
    # Pacific Northwest (BPA): hydro-dominated, cheap, spring-runoff rich;
    # modest wind, winter heating load.
    "BPA": GridSpec(
        fuel=FuelMixConfig(
            solar_peak_share=0.03,
            wind_mean_share=0.08,
            hydro_share=0.55,
            nuclear_share=0.04,
            weather_noise_std=0.14,
            winter_demand_bump=0.06,
        ),
        price=LmpPriceConfig(base_price_per_mwh=27.0, winter_gas_premium=1.08),
    ),
    # Texas (ERCOT): strong wind (West Texas nights), growing solar, hot
    # summer demand peak with scarcity pricing, no winter gas premium.
    "ERCO": GridSpec(
        fuel=FuelMixConfig(
            solar_peak_share=0.12,
            wind_mean_share=0.22,
            wind_seasonal_amplitude=0.30,
            hydro_share=0.01,
            nuclear_share=0.10,
            demand_peak_month=8,
            demand_seasonal_amplitude=0.24,
            winter_demand_bump=0.02,
        ),
        price=LmpPriceConfig(
            base_price_per_mwh=30.0, demand_elasticity=2.4, winter_gas_premium=1.0
        ),
    ),
    # Colorado (PSCO): front-range wind plus high-altitude solar over a coal/
    # gas base, continental seasons.
    "PSCO": GridSpec(
        fuel=FuelMixConfig(
            solar_peak_share=0.14,
            wind_mean_share=0.24,
            hydro_share=0.02,
            nuclear_share=0.0,
        ),
        price=LmpPriceConfig(base_price_per_mwh=32.0, winter_gas_premium=1.06),
    ),
    # US Southeast (Southern Co.): nuclear + gas baseload, some utility
    # solar, hot summers, mild winters.
    "SOCO": GridSpec(
        fuel=FuelMixConfig(
            solar_peak_share=0.10,
            wind_mean_share=0.005,
            hydro_share=0.03,
            nuclear_share=0.16,
            demand_peak_month=7,
            winter_demand_bump=0.03,
        ),
        price=LmpPriceConfig(base_price_per_mwh=36.0, winter_gas_premium=1.05),
    ),
    # California (CAISO): very strong midday solar (duck curve), modest wind,
    # expensive evenings, negligible winter gas effect.
    "CISO": GridSpec(
        fuel=FuelMixConfig(
            solar_peak_share=0.34,
            solar_seasonal_amplitude=0.30,
            wind_mean_share=0.07,
            hydro_share=0.09,
            nuclear_share=0.08,
            demand_peak_month=8,
        ),
        price=LmpPriceConfig(
            base_price_per_mwh=42.0, renewable_discount=0.65, winter_gas_premium=1.0
        ),
    ),
    # Upper Midwest (MISO North): plains wind over a nuclear/coal base,
    # four-season demand with both summer and winter peaks.
    "MISO": GridSpec(
        fuel=FuelMixConfig(
            solar_peak_share=0.04,
            wind_mean_share=0.14,
            wind_seasonal_amplitude=0.35,
            hydro_share=0.01,
            nuclear_share=0.14,
            winter_demand_bump=0.06,
        ),
        price=LmpPriceConfig(base_price_per_mwh=31.0, winter_gas_premium=1.12),
    ),
    # Mid-Atlantic (PJM): nuclear-heavy baseload, little wind/solar inside
    # data-center alley, moderate winter gas exposure.
    "PJM": GridSpec(
        fuel=FuelMixConfig(
            solar_peak_share=0.03,
            wind_mean_share=0.035,
            hydro_share=0.02,
            nuclear_share=0.33,
            winter_demand_bump=0.05,
        ),
        price=LmpPriceConfig(base_price_per_mwh=34.0, winter_gas_premium=1.15),
    ),
    # Québec (Hydro-Québec): near-total hydro, very cheap and near-zero
    # carbon, strong winter heating peak.
    "HQ": GridSpec(
        fuel=FuelMixConfig(
            solar_peak_share=0.005,
            wind_mean_share=0.04,
            hydro_share=0.74,
            nuclear_share=0.0,
            weather_noise_std=0.08,
            demand_peak_month=1,
            winter_demand_bump=0.08,
        ),
        price=LmpPriceConfig(base_price_per_mwh=22.0, winter_gas_premium=1.04),
    ),
}


def resolve_member(member: MemberLike) -> ScenarioSpec:
    """Resolve one fleet member reference to a full :class:`ScenarioSpec`.

    Accepts a spec instance, a registered scenario name, or the
    ``scenario@site`` shorthand (registered scenario relocated to a
    registered site, renamed ``"<scenario>@<site>"``).  Relocation also
    adopts the target region's grid profile from :data:`REGION_GRIDS` when
    the scenario carries no explicit grid overrides of its own.
    """
    if isinstance(member, ScenarioSpec):
        return member
    if not isinstance(member, str) or not member.strip():
        raise ConfigurationError(f"fleet member must be a scenario spec or name, got {member!r}")
    name, sep, site_name = member.partition("@")
    scenario = get_scenario(name.strip())
    if not sep:
        return scenario
    site = get_site(site_name.strip())
    changes: dict[str, Any] = {"site": site, "name": f"{scenario.name}@{site.name}"}
    if scenario.grid == GridSpec():
        changes["grid"] = REGION_GRIDS.get(site.grid_region, GridSpec())
    return scenario.replace(**changes)


@dataclass(frozen=True)
class FleetSpec:
    """Everything needed to (re)build one multi-site fleet, declaratively.

    Attributes
    ----------
    name:
        Registry name / report label.
    members:
        The member sites, each a full :class:`ScenarioSpec` (see
        :func:`resolve_member` for the ``scenario@site`` shorthand).  The
        first member is also the fleet's shared workload source: the job
        trace is generated from its spec, then routed across all members.
    router:
        Default routing spec (overridable per run/experiment); any string
        the :mod:`~repro.fleet.routing` grammar accepts.
    description:
        One-line human description shown by registry listings.
    """

    name: str
    members: tuple[ScenarioSpec, ...] = ()
    router: str = "round-robin"
    description: str = ""

    def __post_init__(self) -> None:
        if not self.name:
            raise ConfigurationError("fleet name must be non-empty")
        members = tuple(resolve_member(member) for member in self.members)
        if not members:
            raise ConfigurationError(f"fleet {self.name!r} must have at least one member site")
        names = [member.name for member in members]
        if len(set(names)) != len(names):
            raise ConfigurationError(
                f"fleet {self.name!r} member names must be unique, got {names}"
            )
        object.__setattr__(self, "members", members)
        make_router(self.router)  # fail registration, not first use, on bad specs

    @property
    def n_sites(self) -> int:
        """Number of member sites."""
        return len(self.members)

    @property
    def member_names(self) -> tuple[str, ...]:
        """The member scenario names, in member order."""
        return tuple(member.name for member in self.members)

    def replace(self, **changes: Any) -> "FleetSpec":
        """A copy of the spec with ``changes`` applied (unknown fields raise)."""
        return config_replace(self, **changes)

    def with_member_overrides(self, **changes: Any) -> "FleetSpec":
        """A copy with spec-field ``changes`` applied to *every* member.

        This is how the session's world overrides (``--seed``, ``--months``)
        reach all sites of a fleet uniformly.
        """
        return self.replace(members=tuple(m.replace(**changes) for m in self.members))


# ---------------------------------------------------------------------------
# Fleet registry
# ---------------------------------------------------------------------------

_FLEETS: Registry[FleetSpec] = Registry("fleet", "fleets", ConfigurationError)


def register_fleet(spec: FleetSpec, *, overwrite: bool = False) -> FleetSpec:
    """Register ``spec`` under ``spec.name``; returns the spec for chaining."""
    return _FLEETS.register(spec.name, spec, overwrite=overwrite)


#: Look up a registered fleet by name.
get_fleet = _FLEETS.get
#: Names of all registered fleets, in registration order.
fleet_names = _FLEETS.names
#: Iterate over the registered fleet specs, in registration order.
list_fleets = _FLEETS.values


register_fleet(
    FleetSpec(
        name="solo-small",
        members=("supercloud-small",),
        description=(
            "a degenerate one-site fleet (the parity anchor: it must reproduce "
            "the single-site ExperimentSession results bit-identically)"
        ),
    )
)
register_fleet(
    FleetSpec(
        name="duo-climate-small",
        members=("supercloud-small", "supercloud-small@phoenix-az"),
        router="least-queued",
        description="the small facility twinned across a temperate and a desert climate",
    )
)
register_fleet(
    FleetSpec(
        name="tri-site-small",
        members=(
            "supercloud-small",
            "supercloud-small@phoenix-az",
            "supercloud-small@reykjavik-is",
        ),
        description=(
            "three small-facility sites across climates (Holyoke-like, desert, "
            "subarctic) — the standard fleet of the examples and tests"
        ),
    )
)
register_fleet(
    FleetSpec(
        name="quad-climate-medium",
        members=(
            "supercloud-medium",
            "supercloud-medium@phoenix-az",
            "supercloud-medium@columbia-wa",
            "supercloud-medium@dallas-tx",
        ),
        router="least-queued",
        description=(
            "four medium (256-GPU) sites across climates and grid regions — "
            "the parallel-vs-serial speedup fleet of the scale benchmarks"
        ),
    )
)

#: The ten continental member sites (one per grid region) shared by the
#: ``deca-continental-*`` fleets below — the ROADMAP's 10-site study ladder.
_CONTINENTAL_SITES = (
    "",  # the home site (Holyoke, ISO-NE)
    "@phoenix-az",
    "@columbia-wa",
    "@dallas-tx",
    "@denver-co",
    "@atlanta-ga",
    "@sanjose-ca",
    "@chicago-il",
    "@ashburn-va",
    "@quebec-qc",
)
register_fleet(
    FleetSpec(
        name="deca-continental-small",
        members=tuple(f"supercloud-small{site}" for site in _CONTINENTAL_SITES),
        router="least-queued",
        description=(
            "ten small sites spanning ten North-American grid regions "
            "(hydro, wind, solar and nuclear dominated) — the continental "
            "routing-study fleet; pair with --workers N"
        ),
    )
)
register_fleet(
    FleetSpec(
        name="deca-continental-medium",
        members=tuple(f"supercloud-medium{site}" for site in _CONTINENTAL_SITES),
        router="least-queued",
        description=(
            "the continental ten-site fleet at the medium (256-GPU) tier — "
            "sized so parallel stepping pays; pair with --workers N"
        ),
    )
)
register_fleet(
    FleetSpec(
        name="duo-xlarge",
        members=("supercloud-xlarge", "supercloud-xlarge@quebec-qc"),
        router="carbon-min+free-gpus(min=512)",
        description=(
            "the 8192-GPU build-out twinned with a hydro-powered Québec "
            "sibling — the top rung of the fleet scale ladder"
        ),
    )
)
