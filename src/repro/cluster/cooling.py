"""Cooling and facility-overhead models.

Two questions from the paper live here:

1. **Fig. 4** — why does facility power track outdoor temperature almost
   one-to-one month by month?  Because the cooling overhead (PUE - 1) grows
   with outdoor temperature: chillers work harder, free-cooling hours vanish.
   :class:`CoolingModel` implements that coupling.
2. **Section IV.C / [29]** — DeepMind's RL controller cut Google's cooling
   energy by ~40% and PUE by ~15% relative to the incumbent controller.
   :class:`FixedOverheadCooling` models the incumbent (a conservative fixed
   overhead sized for the design-day), and :class:`OptimizedCoolingController`
   models a controller that tracks the weather-dependent optimum with a small
   margin; the CLAIM-COOLING benchmark measures the achieved reduction.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Union

import numpy as np

from ..config import require_non_negative, require_positive
from ..errors import ConfigurationError, DataError

__all__ = ["CoolingConfig", "CoolingModel", "FixedOverheadCooling", "OptimizedCoolingController"]

ArrayLike = Union[float, np.ndarray]


@dataclass(frozen=True)
class CoolingConfig:
    """Parameters of the temperature-coupled cooling model.

    Attributes
    ----------
    baseline_pue:
        PUE at the reference outdoor temperature.
    reference_temperature_c:
        Outdoor temperature at which the baseline PUE holds.
    pue_temperature_slope_per_c:
        PUE increase per degree C above the reference (free cooling lost,
        chiller COP degrading).
    min_pue:
        Lower bound on PUE (fans, pumps and distribution losses never vanish).
    free_cooling_threshold_c:
        Below this outdoor temperature the facility can rely almost entirely
        on economizers; the overhead approaches ``min_pue``.
    cooling_capacity_kw:
        Maximum heat-rejection capacity; IT loads whose cooling demand
        exceeds it force either throttling or an emergency overhead penalty.
    """

    baseline_pue: float = 1.28
    reference_temperature_c: float = 10.0
    pue_temperature_slope_per_c: float = 0.010
    min_pue: float = 1.06
    free_cooling_threshold_c: float = 2.0
    cooling_capacity_kw: float = 1200.0

    def __post_init__(self) -> None:
        if self.baseline_pue < 1.0 or self.min_pue < 1.0:
            raise ConfigurationError("PUE values must be >= 1.0")
        if self.min_pue > self.baseline_pue:
            raise ConfigurationError("min_pue cannot exceed baseline_pue")
        require_non_negative(self.pue_temperature_slope_per_c, "pue_temperature_slope_per_c")
        require_positive(self.cooling_capacity_kw, "cooling_capacity_kw")


class CoolingModel:
    """Weather-coupled cooling model: PUE and cooling power vs. outdoor temperature."""

    def __init__(self, config: CoolingConfig | None = None) -> None:
        self.config = config or CoolingConfig()

    # ------------------------------------------------------------------
    # PUE
    # ------------------------------------------------------------------
    def pue(self, outdoor_temperature_c: ArrayLike) -> ArrayLike:
        """Facility PUE at the given outdoor temperature.

        Piecewise: at or below the free-cooling threshold PUE sits at
        ``min_pue``; above it PUE rises linearly from the baseline value at
        the reference temperature.
        """
        cfg = self.config
        temp = np.asarray(outdoor_temperature_c, dtype=float)
        linear = cfg.baseline_pue + cfg.pue_temperature_slope_per_c * (
            temp - cfg.reference_temperature_c
        )
        pue = np.where(temp <= cfg.free_cooling_threshold_c, cfg.min_pue, linear)
        return np.maximum(pue, cfg.min_pue)

    def pue_series(self, hourly_temperature_c: ArrayLike) -> np.ndarray:
        """PUE evaluated over a whole temperature trace in one vectorized pass.

        Semantically identical to calling :meth:`pue` per element (the model
        is elementwise), but done once up front; the cluster simulator
        precomputes its hourly PUE curve through this instead of paying a
        scalar ``np.asarray`` round-trip at every tick.
        """
        temperatures = np.asarray(hourly_temperature_c, dtype=float)
        return np.asarray(self.pue(temperatures), dtype=float)

    # ------------------------------------------------------------------
    # Power
    # ------------------------------------------------------------------
    def cooling_power_w(self, it_power_w: ArrayLike, outdoor_temperature_c: ArrayLike) -> ArrayLike:
        """Cooling + distribution overhead power for a given IT load."""
        it = np.asarray(it_power_w, dtype=float)
        if np.any(it < 0):
            raise DataError("it_power_w must be non-negative")
        overhead = (np.asarray(self.pue(outdoor_temperature_c)) - 1.0) * it
        # Capacity limit: once the required cooling exceeds capacity, the
        # remaining heat must be removed by inefficient emergency means
        # (portable/ DX units) at twice the energy cost.
        capacity_w = self.config.cooling_capacity_kw * 1e3
        excess = np.clip(overhead - capacity_w, 0.0, None)
        return overhead + excess  # excess counted twice = 2x penalty on the overflow

    def facility_power_w(self, it_power_w: ArrayLike, outdoor_temperature_c: ArrayLike) -> ArrayLike:
        """Total facility power (IT + overhead) for a given IT load."""
        it = np.asarray(it_power_w, dtype=float)
        return it + np.asarray(self.cooling_power_w(it, outdoor_temperature_c))

    def is_overloaded(self, it_power_w: ArrayLike, outdoor_temperature_c: ArrayLike) -> ArrayLike:
        """Whether the required cooling exceeds installed capacity."""
        it = np.asarray(it_power_w, dtype=float)
        overhead = (np.asarray(self.pue(outdoor_temperature_c)) - 1.0) * it
        return overhead > self.config.cooling_capacity_kw * 1e3

    def with_capacity_fraction(self, fraction: float) -> "CoolingModel":
        """A copy of this model with only ``fraction`` of cooling capacity available.

        Used by stress scenarios that take chillers out of service.
        """
        if not 0.0 < fraction <= 1.0:
            raise DataError("fraction must lie in (0, 1]")
        cfg = self.config
        return CoolingModel(replace(cfg, cooling_capacity_kw=cfg.cooling_capacity_kw * fraction))


class FixedOverheadCooling(CoolingModel):
    """The incumbent, conservatively tuned cooling plant.

    Real facilities before ML-driven optimization typically ran chiller
    set-points sized for the design day regardless of actual conditions,
    yielding a high, weather-insensitive PUE.  This model therefore returns a
    constant PUE equal to the design-day value of the underlying
    temperature-coupled model plus a safety margin.
    """

    def __init__(
        self,
        config: CoolingConfig | None = None,
        *,
        design_day_temperature_c: float = 28.0,
        safety_margin: float = 0.03,
    ) -> None:
        super().__init__(config)
        require_non_negative(safety_margin, "safety_margin")
        base = CoolingModel(self.config)
        self._fixed_pue = float(np.asarray(base.pue(design_day_temperature_c))) + safety_margin

    def pue(self, outdoor_temperature_c: ArrayLike) -> ArrayLike:
        temp = np.asarray(outdoor_temperature_c, dtype=float)
        return np.full_like(temp, self._fixed_pue, dtype=float) if temp.ndim else self._fixed_pue


class OptimizedCoolingController(CoolingModel):
    """A weather-following cooling controller (the "DeepMind-style" optimum).

    The controller tracks the physical optimum of the temperature-coupled
    model with a small tracking margin, and exploits free cooling more
    aggressively (higher economizer threshold).  Comparing this controller
    against :class:`FixedOverheadCooling` over a simulated year reproduces
    the ~40% cooling-energy / ~15% PUE reduction claim.
    """

    def __init__(
        self,
        config: CoolingConfig | None = None,
        *,
        tracking_margin: float = 0.04,
        free_cooling_threshold_c: float = 8.0,
        max_pue: float = 1.45,
    ) -> None:
        base_cfg = config or CoolingConfig()
        improved = replace(
            base_cfg,
            pue_temperature_slope_per_c=base_cfg.pue_temperature_slope_per_c * 0.8,
            free_cooling_threshold_c=free_cooling_threshold_c,
        )
        super().__init__(improved)
        require_non_negative(tracking_margin, "tracking_margin")
        if max_pue < 1.0:
            raise ConfigurationError("max_pue must be >= 1.0")
        self.tracking_margin = float(tracking_margin)
        self.max_pue = float(max_pue)

    def pue(self, outdoor_temperature_c: ArrayLike) -> ArrayLike:
        # A controller that can always fall back to the incumbent set-points is
        # never worse than its design-limit PUE, even on the hottest days.
        base = super().pue(outdoor_temperature_c)
        return np.minimum(np.asarray(base, dtype=float) + self.tracking_margin, self.max_pue)
