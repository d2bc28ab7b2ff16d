"""Locational-marginal-price (LMP) model.

Figure 3 of the paper plots monthly average real-time LMPs for south
eastern/central Massachusetts against the monthly solar+wind share and notes
that prices are lowest ($20-25/MWh) exactly in the spring months when the
renewable share is highest, and highest (towards $45-50/MWh) in the
low-renewable, high-demand months.  The model here produces an hourly price
process with that structure:

``price = base * demand_factor * (1 - renewable_discount * renewable_share_normalised)
          * seasonal_gas_factor + noise``

so the *mechanism* of the anti-correlation (renewables displace the expensive
marginal fossil unit; demand raises the clearing price) is represented, and
the figure-level relationship is then *measured* by the analysis layer rather
than hard-coded.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..config import require_non_negative, require_positive
from ..errors import ConfigurationError, DataError
from ..rng import SeedLike, make_rng
from ..timeutils import SimulationCalendar
from .fuel_mix import GenerationMix

__all__ = ["LmpPriceConfig", "LmpPriceModel"]


@dataclass(frozen=True)
class LmpPriceConfig:
    """Parameters of the synthetic LMP process.

    Attributes
    ----------
    base_price_per_mwh:
        Price of the marginal unit at average demand with no renewable
        displacement, in $/MWh.
    demand_elasticity:
        Exponent applied to the relative demand factor; >1 makes peak hours
        disproportionately expensive (scarcity pricing).
    renewable_discount:
        Fractional price reduction at the highest observed renewable share.
    winter_gas_premium:
        Multiplicative premium applied in December-February, reflecting the
        New England winter gas-constraint phenomenon.
    noise_std_per_mwh:
        Standard deviation of additive hourly price noise.
    price_floor_per_mwh:
        Lower bound on prices (negative LMPs are out of scope).
    """

    base_price_per_mwh: float = 38.0
    demand_elasticity: float = 1.8
    renewable_discount: float = 0.55
    winter_gas_premium: float = 1.22
    noise_std_per_mwh: float = 4.0
    price_floor_per_mwh: float = 5.0

    def __post_init__(self) -> None:
        require_positive(self.base_price_per_mwh, "base_price_per_mwh")
        require_positive(self.demand_elasticity, "demand_elasticity")
        if not 0.0 <= self.renewable_discount < 1.0:
            raise ConfigurationError("renewable_discount must lie in [0, 1)")
        if self.winter_gas_premium < 1.0:
            raise ConfigurationError("winter_gas_premium must be >= 1.0")
        require_non_negative(self.noise_std_per_mwh, "noise_std_per_mwh")
        require_non_negative(self.price_floor_per_mwh, "price_floor_per_mwh")


class LmpPriceModel:
    """Generates hourly LMP series coupled to a :class:`GenerationMix`."""

    def __init__(self, config: LmpPriceConfig | None = None, *, seed: SeedLike = None) -> None:
        self.config = config or LmpPriceConfig()
        self._rng = make_rng(seed, "lmp-price")

    def price_series(self, calendar: SimulationCalendar, mix: GenerationMix) -> np.ndarray:
        """Hourly real-time LMP in $/MWh aligned with ``mix.hours``."""
        cfg = self.config
        hours = mix.hours
        if hours.shape[0] != calendar.total_hours:
            raise DataError(
                "generation mix does not cover the calendar horizon "
                f"({hours.shape[0]} hours vs {calendar.total_hours})"
            )
        demand_rel = mix.demand_mw / float(np.mean(mix.demand_mw))
        renewable = mix.renewable_share()
        max_renewable = float(np.max(renewable)) if renewable.size else 0.0
        renewable_norm = renewable / max_renewable if max_renewable > 0 else renewable

        month_of_hour = calendar.month_indices_for_hours(hours)
        month_numbers = calendar.month_of_year_array()[month_of_hour]
        winter = np.isin(month_numbers, (12, 1, 2))
        gas_factor = np.where(winter, cfg.winter_gas_premium, 1.0)

        price = (
            cfg.base_price_per_mwh
            * demand_rel**cfg.demand_elasticity
            * (1.0 - cfg.renewable_discount * renewable_norm)
            * gas_factor
        )
        if cfg.noise_std_per_mwh > 0:
            price = price + self._rng.normal(0.0, cfg.noise_std_per_mwh, size=price.shape)
        return np.maximum(price, cfg.price_floor_per_mwh)

    def monthly_average_price(
        self, calendar: SimulationCalendar, mix: GenerationMix, prices: np.ndarray | None = None
    ) -> np.ndarray:
        """Monthly mean real-time price (the series plotted in Fig. 3)."""
        if prices is None:
            prices = self.price_series(calendar, mix)
        prices = np.asarray(prices, dtype=float)
        if prices.shape != mix.hours.shape:
            raise DataError("prices must align with mix.hours")
        month_index = calendar.month_indices_for_hours(mix.hours)
        out = np.empty(calendar.n_months, dtype=float)
        for i in range(calendar.n_months):
            mask = month_index == i
            if not np.any(mask):
                raise DataError(f"no hours found for month index {i}")
            out[i] = float(np.mean(prices[mask]))
        return out
