"""Analytic model of ML training jobs.

The mechanisms the paper proposes (power caps, carbon-aware deferral, the
cap-for-GPUs two-part mechanism) act on *training jobs*; what matters for the
reproduction is how a training job's wall-clock time and energy respond to
the number of GPUs it gets and the power cap it runs under.  The model here
composes:

* a **scaling-efficiency** model (Amdahl-style) mapping GPU count to parallel
  speed-up — doubling GPUs does not halve the time, which is why trading
  "stricter caps for more GPUs" is a genuine trade-off rather than a free lunch;
* the **power-cap response** from :class:`~repro.telemetry.gpu_power.GpuPowerModel`
  (throughput falls gently as the cap tightens);
* an **epochs-to-target** workload size, so energy-to-result (not just power)
  is the reported quantity.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from ..config import require_fraction, require_positive
from ..errors import ConfigurationError
from ..telemetry.gpu_power import GpuPowerModel, get_gpu_spec

__all__ = ["ScalingEfficiencyModel", "TrainingJobSpec", "TrainingRunResult", "TrainingJobModel"]


class ScalingEfficiencyModel:
    """Strong-scaling efficiency of data-parallel training.

    Uses the standard serial-fraction (Amdahl) form plus a per-GPU
    communication overhead that grows logarithmically with the number of
    workers (all-reduce cost), which reproduces the near-linear-then-flat
    scaling curves reported in distributed-DL benchmarking studies.
    """

    def __init__(self, serial_fraction: float = 0.02, comm_overhead_per_log2_gpu: float = 0.015) -> None:
        require_fraction(serial_fraction, "serial_fraction")
        if comm_overhead_per_log2_gpu < 0:
            raise ConfigurationError("comm_overhead_per_log2_gpu must be non-negative")
        self.serial_fraction = float(serial_fraction)
        self.comm_overhead_per_log2_gpu = float(comm_overhead_per_log2_gpu)

    def speedup(self, n_gpus: int) -> float:
        """Speed-up over one GPU when using ``n_gpus`` GPUs."""
        if n_gpus <= 0:
            raise ConfigurationError(f"n_gpus must be positive, got {n_gpus!r}")
        amdahl = 1.0 / (self.serial_fraction + (1.0 - self.serial_fraction) / n_gpus)
        comm_penalty = 1.0 + self.comm_overhead_per_log2_gpu * np.log2(n_gpus)
        return float(amdahl / comm_penalty)


@dataclass(frozen=True)
class TrainingJobSpec:
    """Static description of one training workload.

    Attributes
    ----------
    name:
        Workload name (e.g. ``"resnet50-imagenet"``).
    single_gpu_hours:
        Wall-clock hours to reach the target metric on a single uncapped GPU.
    utilization:
        GPU utilization the workload sustains while training.
    gpu_model:
        GPU model the job runs on.
    host_overhead_w_per_gpu:
        Host (CPU/DRAM/NIC) power attributed per GPU while training.
    checkpoint_overhead_fraction:
        Fraction of time lost to checkpointing/validation (energy counted at
        idle-ish utilization).
    """

    name: str
    single_gpu_hours: float
    utilization: float = 0.92
    gpu_model: str = "V100"
    host_overhead_w_per_gpu: float = 90.0
    checkpoint_overhead_fraction: float = 0.03

    def __post_init__(self) -> None:
        require_positive(self.single_gpu_hours, "single_gpu_hours")
        require_fraction(self.utilization, "utilization")
        require_fraction(self.checkpoint_overhead_fraction, "checkpoint_overhead_fraction")
        if self.host_overhead_w_per_gpu < 0:
            raise ConfigurationError("host_overhead_w_per_gpu must be non-negative")


@dataclass(frozen=True)
class TrainingRunResult:
    """Outcome of one (simulated) training run configuration."""

    spec_name: str
    n_gpus: int
    power_cap_fraction: Optional[float]
    wall_clock_hours: float
    gpu_energy_kwh: float
    host_energy_kwh: float

    @property
    def total_energy_kwh(self) -> float:
        """GPU + host energy for the run."""
        return self.gpu_energy_kwh + self.host_energy_kwh

    @property
    def gpu_hours(self) -> float:
        """GPU-hours consumed by the run."""
        return self.n_gpus * self.wall_clock_hours


class TrainingJobModel:
    """Predicts wall-clock time and energy of a training run configuration."""

    def __init__(
        self,
        spec: TrainingJobSpec,
        *,
        scaling: ScalingEfficiencyModel | None = None,
    ) -> None:
        self.spec = spec
        self.scaling = scaling or ScalingEfficiencyModel()
        self.gpu_spec = get_gpu_spec(spec.gpu_model)
        self.power_model = GpuPowerModel(self.gpu_spec)

    # ------------------------------------------------------------------
    # Time
    # ------------------------------------------------------------------
    def wall_clock_hours(self, n_gpus: int, power_cap_fraction: Optional[float] = None) -> float:
        """Wall-clock hours to finish the workload with the given resources."""
        speedup = self.scaling.speedup(n_gpus)
        base_hours = self.spec.single_gpu_hours / speedup
        if power_cap_fraction is None:
            slowdown = 1.0
        else:
            cap_w = self.power_model.clamp_power_limit(power_cap_fraction * self.gpu_spec.tdp_w)
            slowdown = float(self.power_model.slowdown_factor(cap_w, self.spec.utilization))
        overhead = 1.0 + self.spec.checkpoint_overhead_fraction
        return base_hours * slowdown * overhead

    # ------------------------------------------------------------------
    # Energy
    # ------------------------------------------------------------------
    def run(self, n_gpus: int, power_cap_fraction: Optional[float] = None) -> TrainingRunResult:
        """Simulate one run configuration and return its time/energy outcome."""
        hours = self.wall_clock_hours(n_gpus, power_cap_fraction)
        if power_cap_fraction is None:
            cap_w = None
        else:
            cap_w = float(
                self.power_model.clamp_power_limit(power_cap_fraction * self.gpu_spec.tdp_w)
            )
        gpu_power_w = float(self.power_model.power_w(self.spec.utilization, cap_w))
        gpu_energy_kwh = n_gpus * gpu_power_w * hours / 1e3
        host_energy_kwh = n_gpus * self.spec.host_overhead_w_per_gpu * hours / 1e3
        return TrainingRunResult(
            spec_name=self.spec.name,
            n_gpus=n_gpus,
            power_cap_fraction=power_cap_fraction,
            wall_clock_hours=hours,
            gpu_energy_kwh=gpu_energy_kwh,
            host_energy_kwh=host_energy_kwh,
        )


#: A small catalogue of representative training workloads used by examples
#: and benchmarks (single-GPU hours are order-of-magnitude realistic).
STANDARD_WORKLOADS: dict[str, TrainingJobSpec] = {
    "cifar-resnet": TrainingJobSpec(name="cifar-resnet", single_gpu_hours=2.0, utilization=0.85),
    "imagenet-resnet50": TrainingJobSpec(name="imagenet-resnet50", single_gpu_hours=90.0, utilization=0.93),
    "bert-base-pretrain": TrainingJobSpec(name="bert-base-pretrain", single_gpu_hours=1900.0, utilization=0.95),
    "gpt-medium-pretrain": TrainingJobSpec(
        name="gpt-medium-pretrain", single_gpu_hours=7200.0, utilization=0.96, gpu_model="A100"
    ),
}
