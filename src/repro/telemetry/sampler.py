"""Power sampling and energy integration over simulated NVML devices.

The measurement pipeline mirrors what ``nvidia-smi --loop`` or a CodeCarbon
daemon does: poll each device's instantaneous power at a fixed period,
timestamp the sample, and integrate the trace into energy.  The sampler also
drives the simulated devices' clocks so sampling and simulation stay in step.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from ..errors import TelemetryError
from ..units import integrate_power
from .nvml_sim import SimulatedNvml

__all__ = ["PowerSample", "EnergyIntegrator", "PowerSampler"]


@dataclass(frozen=True)
class PowerSample:
    """One polled measurement of a single device.

    Attributes
    ----------
    timestamp_s:
        Simulated time at which the sample was taken.
    device_index:
        Index of the sampled device.
    power_w:
        Measured power draw (includes measurement noise).
    utilization:
        Device utilization at the time of the sample.
    temperature_c:
        Device temperature at the time of the sample.
    power_limit_w:
        Power limit enforced at the time of the sample.
    """

    timestamp_s: float
    device_index: int
    power_w: float
    utilization: float
    temperature_c: float
    power_limit_w: float


class EnergyIntegrator:
    """Accumulates sampled power into energy using trapezoidal integration.

    One integrator instance tracks one device (or one aggregate series).
    """

    def __init__(self) -> None:
        self._timestamps: list[float] = []
        self._powers: list[float] = []

    def add(self, timestamp_s: float, power_w: float) -> None:
        """Append a sample; timestamps must be non-decreasing."""
        if power_w < 0:
            raise TelemetryError(f"power_w must be non-negative, got {power_w!r}")
        if self._timestamps and timestamp_s < self._timestamps[-1]:
            raise TelemetryError(
                f"timestamps must be non-decreasing, got {timestamp_s} after {self._timestamps[-1]}"
            )
        self._timestamps.append(float(timestamp_s))
        self._powers.append(float(power_w))

    def energy_j(self) -> float:
        """Energy of the accumulated trace in joules (0 with fewer than two samples)."""
        if len(self._timestamps) < 2:
            return 0.0
        return integrate_power(np.asarray(self._powers), np.asarray(self._timestamps))

    def mean_power_w(self) -> float:
        """Time-weighted mean power of the trace (0 with fewer than two samples)."""
        if len(self._timestamps) < 2:
            return 0.0
        duration = self._timestamps[-1] - self._timestamps[0]
        if duration == 0:
            return float(np.mean(self._powers))
        return self.energy_j() / duration

    def peak_power_w(self) -> float:
        """Largest sampled power (0 when empty)."""
        if not self._powers:
            return 0.0
        return float(max(self._powers))


class PowerSampler:
    """Polls a :class:`SimulatedNvml` instance at a fixed period.

    Parameters
    ----------
    nvml:
        The simulated NVML library to poll.
    period_s:
        Sampling period in seconds (real deployments use 0.1-10 s; energy
        integration error shrinks with the period).
    devices:
        Optional subset of device indices to sample; all devices by default.

    Notes
    -----
    :meth:`run` advances the simulated clock itself, which is the mode used
    by the tracking layer.  :meth:`sample_now` only records the current state
    and is useful when another component (e.g. the cluster simulator) owns
    the clock.
    """

    def __init__(
        self,
        nvml: SimulatedNvml,
        period_s: float = 1.0,
        devices: Optional[Sequence[int]] = None,
    ) -> None:
        if period_s <= 0:
            raise TelemetryError(f"period_s must be positive, got {period_s!r}")
        self.nvml = nvml
        self.period_s = float(period_s)
        count = nvml.device_count()
        if devices is None:
            self.device_indices = tuple(range(count))
        else:
            indices = tuple(int(i) for i in devices)
            for i in indices:
                if not 0 <= i < count:
                    raise TelemetryError(f"device index {i} out of range [0, {count})")
            if not indices:
                raise TelemetryError("device subset must not be empty")
            self.device_indices = indices
        self.samples: list[PowerSample] = []
        self._integrators: dict[int, EnergyIntegrator] = {
            i: EnergyIntegrator() for i in self.device_indices
        }
        self._aggregate = EnergyIntegrator()

    # ------------------------------------------------------------------
    # Sampling
    # ------------------------------------------------------------------
    def sample_now(self) -> list[PowerSample]:
        """Record one sample per tracked device at the current simulated time."""
        timestamp = self.nvml.clock_s
        new_samples: list[PowerSample] = []
        total_power = 0.0
        for index in self.device_indices:
            handle = self.nvml.get_handle(index)
            power = self.nvml.device_power_usage_w(handle)
            sample = PowerSample(
                timestamp_s=timestamp,
                device_index=index,
                power_w=power,
                utilization=handle.utilization,
                temperature_c=handle.temperature_c,
                power_limit_w=handle.effective_power_limit_w(),
            )
            new_samples.append(sample)
            self._integrators[index].add(timestamp, power)
            total_power += power
        self._aggregate.add(timestamp, total_power)
        self.samples.extend(new_samples)
        return new_samples

    def run(self, duration_s: float) -> int:
        """Advance simulated time by ``duration_s``, sampling every period.

        Returns the number of sampling rounds performed.  A sample is taken
        at the start of the window and after every full period; a final
        partial period (if any) is advanced without an extra sample so the
        device-side energy counters stay exact.
        """
        if duration_s < 0:
            raise TelemetryError(f"duration_s must be non-negative, got {duration_s!r}")
        if not self.samples:
            self.sample_now()
        rounds = 0
        remaining = duration_s
        while remaining >= self.period_s:
            self.nvml.advance_time(self.period_s)
            self.sample_now()
            remaining -= self.period_s
            rounds += 1
        if remaining > 0:
            self.nvml.advance_time(remaining)
            self.sample_now()
            rounds += 1
        return rounds

    # ------------------------------------------------------------------
    # Results
    # ------------------------------------------------------------------
    def energy_j(self, device_index: Optional[int] = None) -> float:
        """Integrated energy for one device, or for all tracked devices combined."""
        if device_index is None:
            return self._aggregate.energy_j()
        if device_index not in self._integrators:
            raise TelemetryError(f"device {device_index} is not tracked by this sampler")
        return self._integrators[device_index].energy_j()

    def mean_power_w(self, device_index: Optional[int] = None) -> float:
        """Time-weighted mean power for one device or the aggregate."""
        if device_index is None:
            return self._aggregate.mean_power_w()
        if device_index not in self._integrators:
            raise TelemetryError(f"device {device_index} is not tracked by this sampler")
        return self._integrators[device_index].mean_power_w()

    def peak_power_w(self) -> float:
        """Peak aggregate power across the sampled window."""
        return self._aggregate.peak_power_w()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"PowerSampler(period_s={self.period_s}, devices={self.device_indices}, "
            f"n_samples={len(self.samples)})"
        )
