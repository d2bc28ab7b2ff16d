"""The aggregated outcome of one fleet co-simulation.

A :class:`FleetResult` keeps every member site's full
:class:`~repro.cluster.simulator.SimulationResult` — the one per-site record
of power, energy and jobs — plus the job→site assignment table, and derives
fleet-level totals **as sums over the member results** — so "fleet == Σ
sites" holds bit-for-bit by construction, and the conservation tests verify
it independently.
"""

from __future__ import annotations

import itertools
from dataclasses import astuple, dataclass
from operator import attrgetter
from typing import Any, Iterator, Optional

import numpy as np

from ..cluster.simulator import (
    DIGEST_FIELDS,
    JobRecord,
    SimulationResult,
    energy_per_gpu_hour,
    mean_wait,
    miss_rate,
    p95_wait,
    repr_digest,
)
from ..errors import FleetError
from ..obs.profile import RunProfile

__all__ = ["JobAssignment", "FleetStepTimings", "FleetResult"]


@dataclass(frozen=True, slots=True)
class JobAssignment:
    """One routing decision: which site received which job, and when."""

    job_id: str
    site_index: int
    site_name: str
    submit_time_h: float
    dispatch_hour: int


@dataclass(frozen=True, slots=True)
class FleetStepTimings:
    """Wall-clock breakdown of one fleet run's lockstep loop.

    Recorded by :meth:`~repro.fleet.simulator.FleetSimulator.run` in both
    stepping modes, traced or not (plain ``perf_counter`` sums), so
    serial-vs-parallel speedup is observable from the result object itself,
    not just an external benchmark harness.

    Attributes
    ----------
    mode / n_workers:
        ``"serial"`` (in-process stepping) or ``"parallel"`` (worker
        processes), and the number of stepping workers actually used.
    n_windows:
        Number of hourly dispatch windows in the run.
    total_s:
        Wall time of the whole run (build + loop + finalize).
    route_s:
        Coordinator time spent routing arrivals (router selection and
        assignment bookkeeping over the sites' snapshots, which the stepping
        backend builds), summed over windows.
    advance_s:
        Coordinator wall time spent advancing the sites: the serial per-site
        advance loop, or — in parallel mode — the time waiting on the
        workers' ``advance`` replies.
    site_advance_s:
        Per-site cumulative wall seconds of submitting each window's routed
        jobs and ``advance``, in member order (measured inside the worker
        for parallel runs).  Their max is the parallel critical path; their
        sum is the serial cost.
    """

    mode: str
    n_workers: int
    n_windows: int
    total_s: float
    route_s: float
    advance_s: float
    site_advance_s: tuple[float, ...]

    @property
    def max_site_advance_s(self) -> float:
        """The slowest site's cumulative advance time (parallel critical path)."""
        return max(self.site_advance_s) if self.site_advance_s else 0.0


@dataclass(frozen=True)
class FleetResult:
    """Everything a fleet-comparison experiment needs from one co-simulation.

    Attributes
    ----------
    fleet_name / router / policy:
        Identity of the run: the fleet, the routing spec actually used
        (canonical spelling) and the per-site scheduling policy.
    site_names:
        Member site labels, in member order.
    site_results:
        One full single-site :class:`SimulationResult` per member; every
        fleet total and row is read from these.
    assignments:
        The job→site table, in dispatch order.
    step_timings:
        Wall-clock breakdown of the lockstep loop (:class:`FleetStepTimings`);
        ``None`` only for results constructed outside the simulator.
    profile:
        The run's :class:`~repro.obs.profile.RunProfile` — per-span-name
        aggregates over the fleet trace; ``None`` when tracing was off or
        the result was constructed outside the simulator.
    """

    fleet_name: str
    router: str
    policy: str
    site_names: tuple[str, ...]
    site_results: tuple[SimulationResult, ...]
    assignments: tuple[JobAssignment, ...]
    step_timings: Optional[FleetStepTimings] = None
    profile: Optional[RunProfile] = None

    def __post_init__(self) -> None:
        if len(self.site_names) != len(self.site_results):
            raise FleetError("site_names and site_results must align")
        if not self.site_names:
            raise FleetError("a fleet result needs at least one site")

    # ------------------------------------------------------------------
    # Fleet totals (sums over the member sites, bit-for-bit)
    # ------------------------------------------------------------------
    @property
    def n_sites(self) -> int:
        """Number of member sites."""
        return len(self.site_names)

    @property
    def n_jobs(self) -> int:
        """Number of jobs dispatched across the fleet."""
        return len(self.assignments)

    @property
    def it_energy_kwh(self) -> float:
        """Fleet IT energy: the sum of the member sites' totals."""
        return sum(result.it_energy_kwh for result in self.site_results)

    @property
    def facility_energy_kwh(self) -> float:
        """Fleet facility energy: the sum of the member sites' totals."""
        return sum(result.facility_energy_kwh for result in self.site_results)

    @property
    def cooling_energy_kwh(self) -> float:
        """Fleet cooling energy: the sum of the member sites' totals."""
        return sum(result.cooling_energy_kwh for result in self.site_results)

    @property
    def total_emissions_kg(self) -> float:
        """Fleet emissions: the sum of the member sites' totals."""
        return sum(result.total_emissions_kg for result in self.site_results)

    @property
    def total_cost_usd(self) -> float:
        """Fleet electricity cost: the sum of the member sites' totals."""
        return sum(result.total_cost_usd for result in self.site_results)

    @property
    def completed_jobs(self) -> int:
        """Jobs completed within the horizon, fleet-wide."""
        return sum(result.completed_jobs for result in self.site_results)

    @property
    def delivered_gpu_hours(self) -> float:
        """Baseline GPU-hours of completed work, fleet-wide."""
        return sum(result.delivered_gpu_hours for result in self.site_results)

    @property
    def peak_fleet_power_w(self) -> float:
        """Peak of the fleet-wide (summed, tick-aligned) facility power series."""
        series = self.fleet_facility_power_w
        if series.size == 0:
            return 0.0
        return float(np.max(series))

    @property
    def fleet_facility_power_w(self) -> np.ndarray:
        """The tick-aligned sum of the member sites' facility power series."""
        return np.sum([result.facility_power_w for result in self.site_results], axis=0)

    # ------------------------------------------------------------------
    # Service quality (over the union of all sites' job records)
    # ------------------------------------------------------------------
    def _records(self) -> Iterator[JobRecord]:
        """Every member site's job records, sites in member order."""
        return itertools.chain.from_iterable(r.job_records for r in self.site_results)

    @property
    def mean_wait_h(self) -> float:
        """Mean queue wait among started jobs, fleet-wide (NaN when none)."""
        return mean_wait(self._records())

    @property
    def p95_wait_h(self) -> float:
        """95th-percentile queue wait among started jobs, fleet-wide."""
        return p95_wait(self._records())

    @property
    def deadline_miss_rate(self) -> float:
        """Fraction of deadline-carrying jobs fleet-wide that missed."""
        return miss_rate(self._records())

    @property
    def energy_per_gpu_hour_kwh(self) -> float:
        """Fleet facility energy per delivered baseline GPU-hour."""
        return energy_per_gpu_hour(self.facility_energy_kwh, self.delivered_gpu_hours)

    # ------------------------------------------------------------------
    # Assignment accounting
    # ------------------------------------------------------------------
    def dispatch_counts(self) -> dict[str, int]:
        """Jobs routed to each site, keyed by site name (member order)."""
        counts = {name: 0 for name in self.site_names}
        for assignment in self.assignments:
            counts[assignment.site_name] += 1
        return counts

    def digest(self) -> str:
        """``repr_digest`` of the assignment table, then of every site's job records.

        Records omit ``missed_deadline``; the tick series are not covered.
        """
        records = map(attrgetter(*DIGEST_FIELDS[:-1]), self._records())
        return repr_digest(itertools.chain(map(astuple, self.assignments), records))

    # ------------------------------------------------------------------
    # Flat views
    # ------------------------------------------------------------------
    def summary(self) -> dict[str, Any]:
        """A flat dictionary of the fleet-level headline metrics."""
        return {
            "fleet": self.fleet_name,
            "router": self.router,
            "policy": self.policy,
            "n_sites": self.n_sites,
            "n_jobs": self.n_jobs,
            "it_energy_kwh": self.it_energy_kwh,
            "facility_energy_kwh": self.facility_energy_kwh,
            "cooling_energy_kwh": self.cooling_energy_kwh,
            "emissions_kg": self.total_emissions_kg,
            "cost_usd": self.total_cost_usd,
            "peak_fleet_power_kw": self.peak_fleet_power_w / 1e3,
            "completed_jobs": float(self.completed_jobs),
            "delivered_gpu_hours": self.delivered_gpu_hours,
            "mean_wait_h": self.mean_wait_h,
            "p95_wait_h": self.p95_wait_h,
            "deadline_miss_rate": self.deadline_miss_rate,
            "energy_per_gpu_hour_kwh": self.energy_per_gpu_hour_kwh,
        }

    def site_rows(self) -> list[dict[str, Any]]:
        """One flat record per member site (summary + dispatch count)."""
        counts = self.dispatch_counts()
        rows = []
        for name, result in zip(self.site_names, self.site_results):
            row = {
                "site": name,
                "router": self.router,
                "jobs_dispatched": counts[name],
                "it_energy_kwh": result.it_energy_kwh,
                "facility_energy_kwh": result.facility_energy_kwh,
                "cooling_energy_kwh": result.cooling_energy_kwh,
                "emissions_kg": result.total_emissions_kg,
                "cost_usd": result.total_cost_usd,
                "completed_jobs": float(result.completed_jobs),
                "delivered_gpu_hours": result.delivered_gpu_hours,
                "mean_wait_h": result.mean_wait_h,
            }
            rows.append(row)
        return rows
