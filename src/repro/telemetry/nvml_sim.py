"""A simulated NVML (nvidia-smi) device layer.

Real deployments of energy tracking (CodeCarbon, Zeus, the instrumentation
the paper advocates in Section IV.B) poll NVML for per-GPU power draw,
utilization, temperature and enforce power limits.  This module provides a
drop-in simulated equivalent with the same call patterns:

>>> nvml = SimulatedNvml.create(n_devices=4, gpu_model="V100", seed=0)
>>> handle = nvml.get_handle(0)
>>> nvml.set_utilization(handle, 0.9)
>>> round(nvml.device_power_usage_w(handle), 1)  # poll like nvmlDeviceGetPowerUsage
229.1
>>> nvml.device_set_power_limit_w(handle, 175.0)
175.0

The simulated devices keep an internal notion of time (advanced explicitly
via :meth:`SimulatedNvml.advance_time` or implicitly by the
:class:`~repro.telemetry.sampler.PowerSampler`), accumulate energy, and add
small measurement noise so downstream statistics behave like real telemetry.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Optional

import numpy as np

from ..errors import TelemetryError
from ..rng import SeedLike, make_rng
from .gpu_power import GpuPowerModel, GpuSpec, get_gpu_spec

__all__ = ["NvmlNotInitializedError", "SimulatedGpuDevice", "SimulatedNvml"]


class NvmlNotInitializedError(TelemetryError):
    """Raised when the simulated NVML is used before :meth:`SimulatedNvml.init`."""


@dataclass
class SimulatedGpuDevice:
    """Mutable state of one simulated GPU device.

    Attributes mirror what NVML exposes: current utilization, enforced power
    limit, temperature, plus the cumulative energy counter used by the
    tracking layer.
    """

    index: int
    model: GpuPowerModel
    utilization: float = 0.0
    power_limit_w: Optional[float] = None
    temperature_c: float = 30.0
    cumulative_energy_j: float = 0.0
    measurement_noise_fraction: float = 0.01
    _rng: np.random.Generator = field(default_factory=np.random.default_rng, repr=False)

    @property
    def spec(self) -> GpuSpec:
        """The static spec of this device's GPU model."""
        return self.model.spec

    def effective_power_limit_w(self) -> float:
        """The currently enforced power limit (TDP when unset)."""
        if self.power_limit_w is None:
            return self.spec.tdp_w
        return float(self.model.clamp_power_limit(self.power_limit_w))

    def true_power_w(self) -> float:
        """Noise-free instantaneous power draw."""
        return float(self.model.power_w(self.utilization, self.effective_power_limit_w()))

    def measured_power_w(self) -> float:
        """Instantaneous power draw with multiplicative measurement noise."""
        power = self.true_power_w()
        if self.measurement_noise_fraction <= 0:
            return power
        noise = self._rng.normal(1.0, self.measurement_noise_fraction)
        return max(0.0, power * noise)

    def advance(self, dt_s: float) -> float:
        """Advance device time by ``dt_s`` seconds, returning energy consumed (J)."""
        if dt_s < 0:
            raise TelemetryError(f"dt_s must be non-negative, got {dt_s!r}")
        energy = self.true_power_w() * dt_s
        self.cumulative_energy_j += energy
        # Crude thermal response: temperature relaxes towards a load-dependent target.
        target = 30.0 + 50.0 * self.utilization
        tau = 120.0  # seconds
        alpha = 1.0 - float(np.exp(-dt_s / tau))
        self.temperature_c += (target - self.temperature_c) * alpha
        return energy


class SimulatedNvml:
    """Container of simulated GPU devices with an NVML-like API surface.

    Use :meth:`create` for the common homogeneous case, or pass explicit
    devices for heterogeneous setups.  The object must be initialized via
    :meth:`init` before device calls (mirroring ``nvmlInit``); ``create``
    returns an already-initialized instance.
    """

    def __init__(self, devices: Iterable[SimulatedGpuDevice]) -> None:
        self._devices: list[SimulatedGpuDevice] = list(devices)
        if not self._devices:
            raise TelemetryError("SimulatedNvml requires at least one device")
        indices = [d.index for d in self._devices]
        if indices != list(range(len(self._devices))):
            raise TelemetryError(
                f"device indices must be 0..n-1 in order, got {indices}"
            )
        self._initialized = False
        self._clock_s = 0.0

    # ------------------------------------------------------------------
    # Construction helpers
    # ------------------------------------------------------------------
    @classmethod
    def create(
        cls,
        n_devices: int,
        gpu_model: str = "V100",
        *,
        seed: SeedLike = None,
        measurement_noise_fraction: float = 0.01,
    ) -> "SimulatedNvml":
        """Create ``n_devices`` identical simulated GPUs and initialize NVML."""
        if n_devices <= 0:
            raise TelemetryError(f"n_devices must be positive, got {n_devices!r}")
        spec = get_gpu_spec(gpu_model)
        model = GpuPowerModel(spec)
        devices = []
        for index in range(n_devices):
            devices.append(
                SimulatedGpuDevice(
                    index=index,
                    model=model,
                    measurement_noise_fraction=measurement_noise_fraction,
                    _rng=make_rng(seed, "nvml", index),
                )
            )
        nvml = cls(devices)
        nvml.init()
        return nvml

    # ------------------------------------------------------------------
    # Lifecycle (mirrors nvmlInit / nvmlShutdown)
    # ------------------------------------------------------------------
    def init(self) -> None:
        """Initialize the simulated library (idempotent)."""
        self._initialized = True

    def shutdown(self) -> None:
        """Shut the simulated library down; device calls then raise."""
        self._initialized = False

    def _check_initialized(self) -> None:
        if not self._initialized:
            raise NvmlNotInitializedError(
                "SimulatedNvml used before init() or after shutdown()"
            )

    # ------------------------------------------------------------------
    # Device enumeration
    # ------------------------------------------------------------------
    def device_count(self) -> int:
        """Number of simulated devices (``nvmlDeviceGetCount``)."""
        self._check_initialized()
        return len(self._devices)

    def get_handle(self, index: int) -> SimulatedGpuDevice:
        """Return the device handle for ``index`` (``nvmlDeviceGetHandleByIndex``)."""
        self._check_initialized()
        if not 0 <= index < len(self._devices):
            raise TelemetryError(
                f"device index {index} out of range [0, {len(self._devices)})"
            )
        return self._devices[index]

    @property
    def devices(self) -> tuple[SimulatedGpuDevice, ...]:
        """All device handles (initialization not required; used by tests)."""
        return tuple(self._devices)

    # ------------------------------------------------------------------
    # Per-device queries (NVML naming kept recognisable)
    # ------------------------------------------------------------------
    def device_power_usage_w(self, handle: SimulatedGpuDevice) -> float:
        """Current measured power draw in watts."""
        self._check_initialized()
        return handle.measured_power_w()

    # ------------------------------------------------------------------
    # Per-device controls
    # ------------------------------------------------------------------
    def device_set_power_limit_w(self, handle: SimulatedGpuDevice, limit_w: float) -> float:
        """Set (and clamp) the device power limit, returning the enforced value."""
        self._check_initialized()
        if limit_w <= 0:
            raise TelemetryError(f"power limit must be positive, got {limit_w!r}")
        handle.power_limit_w = float(handle.model.clamp_power_limit(limit_w))
        return handle.power_limit_w

    def set_utilization(self, handle: SimulatedGpuDevice, utilization: float) -> None:
        """Set the workload-driven utilization of a device (simulation hook).

        This is the one call with no real-NVML counterpart: in reality the
        running kernels determine utilization, here the workload model sets it.
        """
        self._check_initialized()
        if not 0.0 <= utilization <= 1.0:
            raise TelemetryError(f"utilization must lie in [0, 1], got {utilization!r}")
        handle.utilization = float(utilization)

    # ------------------------------------------------------------------
    # Time
    # ------------------------------------------------------------------
    @property
    def clock_s(self) -> float:
        """Simulated wall-clock time in seconds."""
        return self._clock_s

    def advance_time(self, dt_s: float) -> float:
        """Advance all devices by ``dt_s`` seconds, returning total energy (J)."""
        self._check_initialized()
        if dt_s < 0:
            raise TelemetryError(f"dt_s must be non-negative, got {dt_s!r}")
        total = 0.0
        for device in self._devices:
            total += device.advance(dt_s)
        self._clock_s += dt_s
        return total

    # ------------------------------------------------------------------
    # Aggregates
    # ------------------------------------------------------------------
    def total_energy_j(self) -> float:
        """Sum of cumulative energy across all devices."""
        self._check_initialized()
        return float(sum(d.cumulative_energy_j for d in self._devices))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"SimulatedNvml(n_devices={len(self._devices)}, "
            f"initialized={self._initialized}, clock_s={self._clock_s})"
        )
