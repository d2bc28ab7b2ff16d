"""Simulated hardware telemetry: the GPU power model and power sampling.

The paper's measurement story ("needs a GPU, nvidia-smi power hooks")
is reproduced here with a simulated NVML layer.  The public surface mirrors
how real NVML-based tooling (nvidia-smi, Zeus, CodeCarbon) is used:

* :class:`~repro.telemetry.gpu_power.GpuPowerModel` — analytic power draw as a
  function of utilization, power cap, and clocks, calibrated to published
  V100/A100 envelopes.
* :class:`~repro.telemetry.nvml_sim.SimulatedNvml` — a device-handle API
  (``device_count``, ``get_handle``, ``power_usage_w``, ``set_power_limit_w``,
  ``utilization``) that higher layers poll exactly as they would poll NVML.
* :class:`~repro.telemetry.sampler.PowerSampler` — periodic polling and
  trapezoidal energy integration.
"""

from .gpu_power import GpuSpec, GpuPowerModel, KNOWN_GPUS, get_gpu_spec
from .nvml_sim import SimulatedGpuDevice, SimulatedNvml, NvmlNotInitializedError
from .sampler import PowerSample, PowerSampler, EnergyIntegrator

__all__ = [
    "GpuSpec",
    "GpuPowerModel",
    "KNOWN_GPUS",
    "get_gpu_spec",
    "SimulatedGpuDevice",
    "SimulatedNvml",
    "NvmlNotInitializedError",
    "PowerSample",
    "PowerSampler",
    "EnergyIntegrator",
]
