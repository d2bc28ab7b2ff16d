"""Scheduler interface and scheduling context.

A scheduler implements the policy lever ``p`` of Eq. 1: at every scheduling
point it sees the pending jobs, the cluster's free capacity, and a
:class:`SchedulingContext` describing the environment ``ε`` (grid carbon
intensity and price, outdoor temperature, facility power budget), and decides
which jobs to start now and under what power caps.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Optional

from ..errors import SchedulingError
from .job import Job

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..cluster.resources import Cluster

__all__ = ["SchedulingContext", "ScheduleDecision", "Scheduler"]


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
    outdoor_temperature_c:
        Current outdoor temperature (drives cooling overhead).
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
    outdoor_temperature_c: Optional[float] = None
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


class Scheduler(ABC):
    """Interface implemented by all scheduling policies."""

    #: Human-readable policy name used in benchmark tables.
    name: str = "abstract"

    def observers(self) -> tuple:
        """Simulator lifecycle observers this policy wants attached.

        The cluster simulator subscribes these automatically at construction,
        which is how stateful pipeline stages (e.g. adaptive power caps) hook
        into the event loop without being special-cased there.  The default
        is none.
        """
        return ()

    @property
    @abstractmethod
    def queue_key(self) -> Callable[[Job], tuple]:
        """The sort key of the pending queue, a total order over jobs.

        The key must depend only on fields no code writes after a job is
        constructed, so a job's place in the queue never changes while it
        waits.  The cluster simulator keeps its queue sorted on it as jobs
        arrive and hands :meth:`select` the queue in that order.
        """

    @abstractmethod
    def select(
        self, pending: list[Job], cluster: Cluster, context: SchedulingContext
    ) -> list[ScheduleDecision]:
        """Choose which pending jobs to start at this decision point.

        Implementations must not start more GPUs than are currently free and
        must not return the same job twice; the simulator validates both.
        The ``pending`` list is in :attr:`queue_key` order; it is the
        simulator's own queue, which implementations must not modify.
        """

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"{type(self).__name__}(name={self.name!r})"
