"""Battery storage model for storage-backed energy purchasing.

Section II.A of the paper proposes two ways to exploit the mismatch between
the facility's consumption and the grid's green windows: shift utilization
into green months, or "store that energy to help offset energy consumption
during times where the fuel mix is less sustainably sourced."  This module
implements the storage option as a simple energy-balance battery with
round-trip losses, power limits and self-discharge; the purchasing strategies
use it to charge during green/cheap hours and discharge during dirty/expensive
ones.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..config import require_fraction, require_positive
from ..errors import ConfigurationError, SimulationError

__all__ = ["StorageConfig", "BatteryStorage"]


@dataclass(frozen=True)
class StorageConfig:
    """Physical parameters of the battery system.

    Attributes
    ----------
    capacity_kwh:
        Usable energy capacity.
    max_charge_kw / max_discharge_kw:
        Power limits for charging and discharging.
    round_trip_efficiency:
        Fraction of charged energy recoverable on discharge (applied on the
        charge side: storing ``x`` kWh of grid energy adds
        ``x * round_trip_efficiency`` kWh to the state of charge).
    self_discharge_per_hour:
        Fraction of the state of charge lost per idle hour.
    initial_soc_fraction:
        Initial state of charge as a fraction of capacity.
    """

    capacity_kwh: float = 2_000.0
    max_charge_kw: float = 500.0
    max_discharge_kw: float = 500.0
    round_trip_efficiency: float = 0.88
    self_discharge_per_hour: float = 1e-4
    initial_soc_fraction: float = 0.0

    def __post_init__(self) -> None:
        require_positive(self.capacity_kwh, "capacity_kwh")
        require_positive(self.max_charge_kw, "max_charge_kw")
        require_positive(self.max_discharge_kw, "max_discharge_kw")
        if not 0.0 < self.round_trip_efficiency <= 1.0:
            raise ConfigurationError("round_trip_efficiency must lie in (0, 1]")
        require_fraction(self.self_discharge_per_hour, "self_discharge_per_hour")
        require_fraction(self.initial_soc_fraction, "initial_soc_fraction")


class BatteryStorage:
    """Stateful battery with charge/discharge/idle operations on hourly steps."""

    def __init__(self, config: StorageConfig | None = None) -> None:
        self.config = config or StorageConfig()
        self._soc_kwh = self.config.capacity_kwh * self.config.initial_soc_fraction
        self._total_charged_kwh = 0.0
        self._total_discharged_kwh = 0.0
        self._total_losses_kwh = 0.0

    # ------------------------------------------------------------------
    # State
    # ------------------------------------------------------------------
    @property
    def soc_kwh(self) -> float:
        """Current usable state of charge in kWh."""
        return self._soc_kwh

    @property
    def headroom_kwh(self) -> float:
        """How much more energy the battery could absorb (post-efficiency)."""
        return self.config.capacity_kwh - self._soc_kwh

    @property
    def total_charged_kwh(self) -> float:
        """Cumulative grid energy drawn for charging."""
        return self._total_charged_kwh

    @property
    def total_discharged_kwh(self) -> float:
        """Cumulative energy delivered from the battery."""
        return self._total_discharged_kwh

    @property
    def total_losses_kwh(self) -> float:
        """Cumulative conversion + self-discharge losses."""
        return self._total_losses_kwh

    # ------------------------------------------------------------------
    # Operations (hourly granularity)
    # ------------------------------------------------------------------
    def charge(self, offered_kwh: float, duration_h: float = 1.0) -> float:
        """Charge with up to ``offered_kwh`` of grid energy over ``duration_h`` hours.

        Returns the grid energy actually consumed (before efficiency losses),
        which may be less than offered because of the power limit or a full
        battery.
        """
        if offered_kwh < 0:
            raise SimulationError(f"offered_kwh must be non-negative, got {offered_kwh!r}")
        if duration_h <= 0:
            raise SimulationError(f"duration_h must be positive, got {duration_h!r}")
        power_limited = min(offered_kwh, self.config.max_charge_kw * duration_h)
        storable = power_limited * self.config.round_trip_efficiency
        accepted_store = min(storable, self.headroom_kwh)
        if storable <= 0:
            grid_energy = 0.0
        else:
            grid_energy = accepted_store / self.config.round_trip_efficiency
        self._soc_kwh += accepted_store
        self._total_charged_kwh += grid_energy
        self._total_losses_kwh += grid_energy - accepted_store
        return grid_energy

    def discharge(self, requested_kwh: float, duration_h: float = 1.0) -> float:
        """Discharge up to ``requested_kwh`` over ``duration_h`` hours.

        Returns the energy actually delivered, limited by the power limit and
        the current state of charge.
        """
        if requested_kwh < 0:
            raise SimulationError(f"requested_kwh must be non-negative, got {requested_kwh!r}")
        if duration_h <= 0:
            raise SimulationError(f"duration_h must be positive, got {duration_h!r}")
        deliverable = min(
            requested_kwh, self.config.max_discharge_kw * duration_h, self._soc_kwh
        )
        self._soc_kwh -= deliverable
        self._total_discharged_kwh += deliverable
        return deliverable

    def idle(self, duration_h: float = 1.0) -> float:
        """Let the battery sit idle, applying self-discharge; returns energy lost."""
        if duration_h < 0:
            raise SimulationError(f"duration_h must be non-negative, got {duration_h!r}")
        retention = (1.0 - self.config.self_discharge_per_hour) ** duration_h
        lost = self._soc_kwh * (1.0 - retention)
        self._soc_kwh -= lost
        self._total_losses_kwh += lost
        return lost

    def reset(self) -> None:
        """Restore the initial state of charge and zero the counters."""
        self._soc_kwh = self.config.capacity_kwh * self.config.initial_soc_fraction
        self._total_charged_kwh = 0.0
        self._total_discharged_kwh = 0.0
        self._total_losses_kwh = 0.0

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"BatteryStorage(soc={self._soc_kwh:.1f}/{self.config.capacity_kwh:.1f} kWh)"
        )
