"""Configuration objects shared across the toolkit.

Configuration is expressed as frozen dataclasses with explicit validation in
``__post_init__``.  Frozen configs can be hashed, safely shared across
processes in parameter sweeps, and compared for equality in tests.  Each
subsystem defines its own more specialised config next to its implementation;
this module holds the cross-cutting ones (site and facility
configuration) plus small validation helpers reused by those subsystem
configs.
"""

from __future__ import annotations

import math
from collections.abc import Mapping as MappingABC
from dataclasses import dataclass, fields, replace
from typing import Any

from .errors import ConfigurationError

__all__ = [
    "require_positive",
    "require_non_negative",
    "require_fraction",
    "require_in_range",
    "SiteConfig",
    "FacilityConfig",
    "config_to_jsonable",
    "config_replace",
]


def require_positive(value: float, name: str) -> float:
    """Validate that ``value`` is strictly positive, returning it for chaining."""
    if not value > 0:
        raise ConfigurationError(f"{name} must be > 0, got {value!r}")
    return value


def require_non_negative(value: float, name: str) -> float:
    """Validate that ``value`` is >= 0, returning it for chaining."""
    if value < 0:
        raise ConfigurationError(f"{name} must be >= 0, got {value!r}")
    return value


def require_fraction(value: float, name: str) -> float:
    """Validate that ``value`` lies in the closed interval [0, 1]."""
    if not 0.0 <= value <= 1.0:
        raise ConfigurationError(f"{name} must lie in [0, 1], got {value!r}")
    return value


def require_in_range(value: float, low: float, high: float, name: str) -> float:
    """Validate that ``value`` lies in the closed interval [low, high]."""
    if not low <= value <= high:
        raise ConfigurationError(f"{name} must lie in [{low}, {high}], got {value!r}")
    return value


@dataclass(frozen=True)
class SiteConfig:
    """Physical/geographical description of the facility's site.

    The defaults describe a New-England site similar to the MIT SuperCloud's
    Holyoke, MA datacenter: four-season climate, ISO-NE-like grid.

    Attributes
    ----------
    name:
        Human-readable site name.
    mean_annual_temperature_c:
        Annual mean outdoor temperature in Celsius.
    seasonal_temperature_amplitude_c:
        Half peak-to-peak seasonal swing (July mean minus annual mean).
    diurnal_temperature_amplitude_c:
        Half peak-to-peak daily swing.
    latitude_deg:
        Site latitude; drives solar-generation seasonality in the grid model.
    grid_region:
        Identifier of the grid region supplying the site (informational).
    """

    name: str = "holyoke-ma"
    mean_annual_temperature_c: float = 9.5
    seasonal_temperature_amplitude_c: float = 12.5
    diurnal_temperature_amplitude_c: float = 4.5
    latitude_deg: float = 42.2
    grid_region: str = "ISO-NE"

    def __post_init__(self) -> None:
        require_non_negative(self.seasonal_temperature_amplitude_c, "seasonal_temperature_amplitude_c")
        require_non_negative(self.diurnal_temperature_amplitude_c, "diurnal_temperature_amplitude_c")
        require_in_range(self.latitude_deg, -90.0, 90.0, "latitude_deg")
        if not self.name:
            raise ConfigurationError("site name must be non-empty")


@dataclass(frozen=True)
class FacilityConfig:
    """Top-level description of the HPC facility being modelled.

    The defaults approximate the scale reported for the MIT SuperCloud
    (TX-GAIA / E1): several hundred GPU nodes, a few hundred kW average
    IT load, and a modern PUE.

    Attributes
    ----------
    name:
        Facility name.
    n_nodes:
        Number of GPU compute nodes.
    gpus_per_node:
        GPUs per node.
    node_idle_power_w:
        Per-node power draw excluding GPUs (CPUs, memory, fans) when idle.
    node_active_overhead_w:
        Additional per-node non-GPU power when the node is running a job.
    baseline_pue:
        Facility PUE at the reference outdoor temperature (cooling included).
    reference_temperature_c:
        Outdoor temperature at which ``baseline_pue`` holds.
    pue_temperature_slope_per_c:
        Increase in PUE per degree Celsius above the reference temperature;
        this couples cooling overhead to weather (Fig. 4).
    """

    name: str = "supercloud-e1"
    n_nodes: int = 448
    gpus_per_node: int = 2
    node_idle_power_w: float = 240.0
    node_active_overhead_w: float = 110.0
    baseline_pue: float = 1.28
    reference_temperature_c: float = 10.0
    pue_temperature_slope_per_c: float = 0.010
    min_pue: float = 1.03

    def __post_init__(self) -> None:
        if self.n_nodes <= 0 or self.gpus_per_node <= 0:
            raise ConfigurationError("n_nodes and gpus_per_node must be positive integers")
        require_non_negative(self.node_idle_power_w, "node_idle_power_w")
        require_non_negative(self.node_active_overhead_w, "node_active_overhead_w")
        if self.baseline_pue < 1.0:
            raise ConfigurationError(f"baseline_pue must be >= 1.0, got {self.baseline_pue!r}")
        if self.min_pue < 1.0:
            raise ConfigurationError(f"min_pue must be >= 1.0, got {self.min_pue!r}")
        require_non_negative(self.pue_temperature_slope_per_c, "pue_temperature_slope_per_c")

    @property
    def total_gpus(self) -> int:
        """Total number of GPUs across the facility."""
        return self.n_nodes * self.gpus_per_node


def config_to_jsonable(value: Any) -> Any:
    """Deep-convert a config (or any nested container of configs) to JSON-ready values.

    Dataclasses become dictionaries, tuples/sets become lists, numpy arrays and
    scalars become their Python equivalents (via ``tolist``), and non-finite
    floats become ``None`` so the output is valid strict JSON.
    """
    if hasattr(value, "__dataclass_fields__"):
        return {f.name: config_to_jsonable(getattr(value, f.name)) for f in fields(value)}
    if isinstance(value, MappingABC):
        return {str(k): config_to_jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple, set, frozenset)):
        return [config_to_jsonable(v) for v in value]
    if isinstance(value, bool) or value is None or isinstance(value, (int, str)):
        return value
    if isinstance(value, float):
        return value if math.isfinite(value) else None
    if hasattr(value, "tolist"):  # numpy arrays and scalars
        return config_to_jsonable(value.tolist())
    return value


def config_replace(config: Any, **changes: Any) -> Any:
    """Return a copy of a frozen dataclass config with ``changes`` applied.

    Unknown field names raise :class:`ConfigurationError` instead of the
    ``TypeError`` raised by :func:`dataclasses.replace`, which makes sweep
    definitions fail with a clearer message.
    """
    if not hasattr(config, "__dataclass_fields__"):
        raise ConfigurationError(f"expected a dataclass config, got {type(config)!r}")
    valid = {f.name for f in fields(config)}
    unknown = set(changes) - valid
    if unknown:
        raise ConfigurationError(
            f"unknown config field(s) {sorted(unknown)} for {type(config).__name__}; "
            f"valid fields: {sorted(valid)}"
        )
    return replace(config, **changes)
