"""Deadline-anticipation compute-demand model (Fig. 5).

Section III's hypothesis: "as deadlines approach, users are accelerating
their workloads, finishing or repeating experiments" — i.e. aggregate compute
demand ramps up in the weeks *before* a deadline and relaxes after it, so the
distribution of deadlines over the calendar shapes the distribution of energy
use.  The model here produces an hourly cluster-occupancy fraction composed
of:

* a **baseline** occupancy with mild secular growth (the field keeps growing),
* an **academic-calendar** component (holiday lull in late December/early
  January, a smaller mid-summer dip),
* a **deadline-anticipation** component: for every deadline in the calendar,
  demand rises along an exponential ramp over the preceding weeks and drops
  sharply right after the deadline,
* a **weekly/diurnal** texture and lognormal noise.

The same model also powers the deadline-restructuring experiment: feed it the
"uniform", "winter" or "rolling" calendars of
:meth:`~repro.workloads.conferences.ConferenceCalendar.restructured` and
compare the resulting energy/carbon profiles.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..config import require_fraction, require_non_negative
from ..errors import ConfigurationError, DataError
from ..rng import SeedLike, make_rng
from ..timeutils import SimulationCalendar
from .conferences import ConferenceCalendar

__all__ = ["DeadlineDemandConfig", "DeadlineDemandModel"]


@dataclass(frozen=True)
class DeadlineDemandConfig:
    """Parameters of the deadline-driven demand model.

    Attributes
    ----------
    baseline_occupancy:
        Mean fraction of the cluster's GPUs that are busy absent any deadline
        pressure, holidays or growth.
    annual_growth:
        Secular year-over-year growth in baseline occupancy (A.I. demand keeps
        rising; Fig. 1).
    deadline_boost_per_conference:
        Peak extra occupancy contributed by one approaching deadline.
    anticipation_time_constant_days:
        e-folding time of the pre-deadline ramp (demand roughly doubles over
        the last ~2 time constants before the deadline).
    post_deadline_relief_days:
        How quickly the extra demand decays after the deadline passes.
    holiday_dip / summer_dip:
        Fractional occupancy reductions during the late-December holidays and
        the mid-August lull.
    weekend_dip:
        Fractional reduction of demand on weekends.
    noise_sigma:
        Lognormal sigma of multiplicative hourly noise.
    max_occupancy:
        Ceiling on occupancy (the cluster cannot be more than full).
    """

    baseline_occupancy: float = 0.50
    annual_growth: float = 0.12
    deadline_boost_per_conference: float = 0.045
    anticipation_time_constant_days: float = 18.0
    post_deadline_relief_days: float = 4.0
    holiday_dip: float = 0.12
    summer_dip: float = 0.05
    weekend_dip: float = 0.08
    noise_sigma: float = 0.04
    max_occupancy: float = 0.97

    def __post_init__(self) -> None:
        require_fraction(self.baseline_occupancy, "baseline_occupancy")
        require_non_negative(self.annual_growth, "annual_growth")
        require_non_negative(self.deadline_boost_per_conference, "deadline_boost_per_conference")
        if self.anticipation_time_constant_days <= 0 or self.post_deadline_relief_days <= 0:
            raise ConfigurationError("time constants must be positive")
        require_fraction(self.holiday_dip, "holiday_dip")
        require_fraction(self.summer_dip, "summer_dip")
        require_fraction(self.weekend_dip, "weekend_dip")
        require_non_negative(self.noise_sigma, "noise_sigma")
        require_fraction(self.max_occupancy, "max_occupancy")


class DeadlineDemandModel:
    """Generates hourly cluster-occupancy fractions driven by a conference calendar."""

    def __init__(
        self,
        config: DeadlineDemandConfig | None = None,
        *,
        conferences: ConferenceCalendar | None = None,
        seed: SeedLike = None,
    ) -> None:
        self.config = config or DeadlineDemandConfig()
        self.conferences = conferences or ConferenceCalendar()
        self._seed = seed
        self._rng = make_rng(seed, "deadline-demand")

    # ------------------------------------------------------------------
    # Components
    # ------------------------------------------------------------------
    def baseline_component(self, calendar: SimulationCalendar) -> np.ndarray:
        """Baseline occupancy including secular growth over the horizon."""
        cfg = self.config
        hours = calendar.hour_grid(1.0)
        years_elapsed = hours / (365.0 * 24.0)
        return cfg.baseline_occupancy * (1.0 + cfg.annual_growth) ** years_elapsed

    def academic_calendar_component(self, calendar: SimulationCalendar) -> np.ndarray:
        """Holiday and summer dips (multiplicative factors <= 1)."""
        cfg = self.config
        hours = calendar.hour_grid(1.0)
        day_of_year = calendar.day_of_year_array(hours)
        factor = np.ones_like(day_of_year)
        # Late-December holidays (day ~355 to year end plus the first days of January).
        holiday = (day_of_year >= 352) | (day_of_year <= 4)
        factor = np.where(holiday, 1.0 - cfg.holiday_dip, factor)
        # Mid-August lull.
        summer = (day_of_year >= 222) & (day_of_year <= 236)
        factor = np.where(summer, factor * (1.0 - cfg.summer_dip), factor)
        return factor

    def weekly_component(self, calendar: SimulationCalendar) -> np.ndarray:
        """Weekend dip (multiplicative factor; the horizon starts on a Wednesday for 2020)."""
        cfg = self.config
        hours = calendar.hour_grid(1.0)
        # January 1st 2020 was a Wednesday (weekday index 2, Monday = 0).
        start_weekday = 2
        weekday = ((hours // 24.0).astype(int) + start_weekday) % 7
        is_weekend = weekday >= 5
        return np.where(is_weekend, 1.0 - cfg.weekend_dip, 1.0)

    def deadline_component(self, calendar: SimulationCalendar) -> np.ndarray:
        """Additive occupancy from deadline anticipation (>= 0)."""
        cfg = self.config
        hours = calendar.hour_grid(1.0)
        extra = np.zeros_like(hours)
        tau_up_h = cfg.anticipation_time_constant_days * 24.0
        tau_down_h = cfg.post_deadline_relief_days * 24.0
        for _name, deadline_hour in self.conferences.deadline_hours(calendar):
            dt = hours - deadline_hour
            before = np.exp(dt / tau_up_h) * (dt <= 0)
            after = np.exp(-dt / tau_down_h) * (dt > 0) * 0.25
            extra += cfg.deadline_boost_per_conference * (before + after)
        return extra

    # ------------------------------------------------------------------
    # Full series
    # ------------------------------------------------------------------
    def hourly_occupancy(self, calendar: SimulationCalendar) -> np.ndarray:
        """Hourly busy-GPU fraction in [0, max_occupancy]."""
        cfg = self.config
        base = self.baseline_component(calendar)
        seasonal = self.academic_calendar_component(calendar)
        weekly = self.weekly_component(calendar)
        deadlines = self.deadline_component(calendar)
        occupancy = base * seasonal * weekly + deadlines
        if cfg.noise_sigma > 0:
            occupancy = occupancy * self._rng.lognormal(0.0, cfg.noise_sigma, size=occupancy.shape)
        return np.clip(occupancy, 0.0, cfg.max_occupancy)

    def monthly_occupancy(
        self, calendar: SimulationCalendar, hourly: np.ndarray | None = None
    ) -> np.ndarray:
        """Monthly mean occupancy fraction."""
        if hourly is None:
            hourly = self.hourly_occupancy(calendar)
        hourly = np.asarray(hourly, dtype=float)
        if hourly.shape != (calendar.total_hours,):
            raise DataError(
                f"expected {calendar.total_hours} hourly values, got {hourly.shape}"
            )
        return calendar.monthly_mean(hourly)

    def monthly_deadline_counts(self, calendar: SimulationCalendar) -> np.ndarray:
        """Deadline counts per month (the Fig. 5 bar series)."""
        return self.conferences.deadlines_per_month(calendar)

    def with_calendar(self, conferences: ConferenceCalendar) -> "DeadlineDemandModel":
        """A copy of this model driven by a different conference calendar.

        The restructuring experiment uses this to hold every other component
        (growth, holidays, noise seed) fixed while swapping the deadline
        distribution.
        """
        return DeadlineDemandModel(
            self.config, conferences=conferences, seed=self._seed
        )
