"""The experiment energy tracker.

Usage mirrors CodeCarbon / Zeus against the *simulated* NVML layer:

>>> from repro.telemetry import SimulatedNvml
>>> from repro.tracking import EnergyTracker
>>> nvml = SimulatedNvml.create(n_devices=2, gpu_model="V100", seed=0)
>>> tracker = EnergyTracker(nvml, region="ISO-NE", sampling_period_s=5.0)
>>> with tracker:
...     # drive the simulated devices as the workload would
...     for handle in nvml.devices:
...         nvml.set_utilization(handle, 0.9)
...     tracker.advance(3600.0)          # one simulated hour of training
>>> report = tracker.report()
>>> round(report.energy_kwh, 3), round(report.emissions_g, 1)
(0.461, 123.4)

Because time is simulated, the workload advances the clock explicitly via
:meth:`EnergyTracker.advance`; everything else (per-device sampling, energy
integration, emission conversion) behaves exactly as a wall-clock tracker
would.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Union

import numpy as np

from ..errors import TrackingError
from ..telemetry.nvml_sim import SimulatedNvml
from ..telemetry.sampler import PowerSampler
from ..units import joules_to_kwh
from .emissions import emissions_from_energy

__all__ = ["TrackerReport", "EnergyTracker"]


@dataclass(frozen=True)
class TrackerReport:
    """Summary produced by :meth:`EnergyTracker.report`."""

    label: str
    duration_s: float
    energy_j: float
    energy_kwh: float
    mean_power_w: float
    peak_power_w: float
    emissions_g: float
    region_or_intensity: Union[str, float]
    n_devices: int
    n_samples: int
    per_device_energy_j: dict[int, float] = field(default_factory=dict)
    mean_utilization: float = 0.0

    @property
    def emissions_kg(self) -> float:
        """Emissions in kilograms CO2e."""
        return self.emissions_g / 1e3


class EnergyTracker:
    """Context-manager energy/carbon tracker over simulated NVML devices.

    Parameters
    ----------
    nvml:
        The simulated NVML library whose devices should be tracked.
    region:
        Region name (see :data:`~repro.tracking.emissions.REGIONAL_EMISSION_FACTORS`)
        or a numeric carbon intensity in gCO2e/kWh.
    sampling_period_s:
        Period at which devices are polled while :meth:`advance` runs.
    label:
        Experiment label recorded in the report.
    devices:
        Optional subset of device indices to track.
    """

    def __init__(
        self,
        nvml: SimulatedNvml,
        *,
        region: Union[str, float] = "ISO-NE",
        sampling_period_s: float = 5.0,
        label: str = "experiment",
        devices: Optional[list[int]] = None,
    ) -> None:
        if sampling_period_s <= 0:
            raise TrackingError("sampling_period_s must be positive")
        self.nvml = nvml
        self.region = region
        self.sampling_period_s = float(sampling_period_s)
        self.label = label
        self._device_subset = devices
        self._sampler: Optional[PowerSampler] = None
        self._started = False
        self._stopped = False
        self._start_clock_s = 0.0
        self._stop_clock_s = 0.0

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def start(self) -> "EnergyTracker":
        """Begin tracking (idempotent start is an error to catch misuse)."""
        if self._started:
            raise TrackingError("tracker already started")
        self._sampler = PowerSampler(
            self.nvml, period_s=self.sampling_period_s, devices=self._device_subset
        )
        self._start_clock_s = self.nvml.clock_s
        self._sampler.sample_now()
        self._started = True
        return self

    def stop(self) -> None:
        """Stop tracking; further :meth:`advance` calls are rejected."""
        if not self._started:
            raise TrackingError("tracker was never started")
        if self._stopped:
            raise TrackingError("tracker already stopped")
        assert self._sampler is not None
        self._sampler.sample_now()
        self._stop_clock_s = self.nvml.clock_s
        self._stopped = True

    def __enter__(self) -> "EnergyTracker":
        return self.start()

    def __exit__(self, exc_type, exc, tb) -> None:
        if not self._stopped:
            self.stop()

    # ------------------------------------------------------------------
    # Driving simulated time
    # ------------------------------------------------------------------
    def advance(self, duration_s: float) -> None:
        """Advance simulated time by ``duration_s`` while sampling devices."""
        if not self._started or self._stopped:
            raise TrackingError("advance() requires a started, not-yet-stopped tracker")
        assert self._sampler is not None
        if duration_s < 0:
            raise TrackingError("duration_s must be non-negative")
        self._sampler.run(duration_s)

    # ------------------------------------------------------------------
    # Results
    # ------------------------------------------------------------------
    def report(self) -> TrackerReport:
        """Build the summary report (tracker must be stopped first)."""
        if not self._stopped:
            raise TrackingError("report() requires a stopped tracker")
        assert self._sampler is not None
        sampler = self._sampler
        energy_j = sampler.energy_j()
        duration_s = self._stop_clock_s - self._start_clock_s
        per_device = {index: sampler.energy_j(index) for index in sampler.device_indices}
        utilizations = [s.utilization for s in sampler.samples]
        return TrackerReport(
            label=self.label,
            duration_s=duration_s,
            energy_j=energy_j,
            energy_kwh=float(joules_to_kwh(energy_j)),
            mean_power_w=sampler.mean_power_w(),
            peak_power_w=sampler.peak_power_w(),
            emissions_g=float(emissions_from_energy(energy_j, self.region)),
            region_or_intensity=self.region,
            n_devices=len(sampler.device_indices),
            n_samples=len(sampler.samples),
            per_device_energy_j=per_device,
            mean_utilization=float(np.mean(utilizations)) if utilizations else 0.0,
        )
