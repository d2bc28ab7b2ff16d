"""Scheduling context and decisions.

A scheduler implements the policy lever ``p`` of Eq. 1: at every scheduling
point it sees the pending jobs, the cluster's free capacity, and a
:class:`SchedulingContext` describing the environment ``ε`` (grid carbon
intensity and price, outdoor temperature, facility power budget), and decides
which jobs to start now and under what power caps, one
:class:`ScheduleDecision` each.  :class:`~repro.scheduler.pipeline.
PolicyPipeline` is the one scheduler.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from ..errors import SchedulingError
from .job import Job

__all__ = ["SchedulingContext", "ScheduleDecision"]


@dataclass
class SchedulingContext:
    """Environment information handed to the scheduler at each decision point.

    Attributes
    ----------
    now_h:
        Current simulated time in hours.
    carbon_intensity_g_per_kwh:
        Grid carbon intensity right now (``None`` when no grid model is attached).
    carbon_intensity_threshold:
        Pre-computed "green hour" threshold (e.g. the horizon median); carbon-
        aware policies defer below-threshold work when intensity exceeds it.
    price_per_mwh:
        Current electricity price.
    renewable_share:
        Current solar+wind share of grid generation.
    facility_power_budget_w:
        Optional cap on total facility power the scheduler should respect.
    current_it_power_w:
        The cluster's IT power before this scheduling round's decisions.
    current_pue:
        The facility PUE at the current outdoor temperature.
    """

    now_h: float
    carbon_intensity_g_per_kwh: Optional[float] = None
    carbon_intensity_threshold: Optional[float] = None
    price_per_mwh: Optional[float] = None
    renewable_share: Optional[float] = None
    facility_power_budget_w: Optional[float] = None
    current_it_power_w: float = 0.0
    current_pue: float = 1.0

    def is_green_hour(self) -> bool:
        """Whether the current hour counts as "green" for carbon-aware policies.

        Defined as carbon intensity at or below the configured threshold.
        When either value is missing the hour is treated as green (no
        information, no deferral).
        """
        if self.carbon_intensity_g_per_kwh is None or self.carbon_intensity_threshold is None:
            return True
        return self.carbon_intensity_g_per_kwh <= self.carbon_intensity_threshold


@dataclass(frozen=True)
class ScheduleDecision:
    """One job the scheduler decided to start now.

    Attributes
    ----------
    job:
        The job to start.
    power_cap_fraction:
        Power cap (fraction of TDP) to enforce on the job's GPUs, or ``None``
        to run uncapped.  When the job itself carries an agreed cap
        (``job.power_cap_fraction``), schedulers should propagate it here.
    pack:
        Whether the allocation should pack onto few nodes (energy-aware) or
        spread across many (thermal-aware).
    """

    job: Job
    power_cap_fraction: Optional[float] = None
    pack: bool = True

    def __post_init__(self) -> None:
        if self.power_cap_fraction is not None and not 0.0 < self.power_cap_fraction <= 1.0:
            raise SchedulingError("power_cap_fraction must lie in (0, 1]")
