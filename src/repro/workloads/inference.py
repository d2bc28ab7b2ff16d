"""Inference-serving workload model.

Section IV.B of the paper points out that inference, not training, dominates
production ML infrastructure (90% of infrastructure cost, 80-90% of energy)
and that serving fleets run at poor GPU utilization (10-30% on AWS p3
instances, 28% average on TPUs) because online queries cannot exploit the
batch parallelism training enjoys.  The model here captures exactly those
levers: a diurnal query-rate profile, a batching model that converts arrival
rate into achieved utilization, a provisioning rule (peak-rate head-room),
and energy accounting over a serving period.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..config import require_fraction, require_positive
from ..errors import ConfigurationError
from ..rng import SeedLike, make_rng
from ..telemetry.gpu_power import GpuPowerModel, get_gpu_spec

__all__ = ["InferenceWorkloadSpec", "InferenceFleetResult", "InferenceFleetModel"]


@dataclass(frozen=True)
class InferenceWorkloadSpec:
    """Static description of an inference service.

    Attributes
    ----------
    name:
        Service name.
    mean_queries_per_s:
        Mean arrival rate over a day.
    diurnal_amplitude:
        Relative peak-to-mean swing of the arrival rate (0.6 means the peak
        hour sees 1.6x the mean rate and the trough 0.4x).
    peak_to_mean_provisioning:
        The fleet is sized for ``peak_rate * this`` head-room (operators
        provision for peaks plus a safety margin, which is why average
        utilization is poor).
    queries_per_gpu_s_at_full_util:
        Throughput of one GPU at 100% utilization (model-dependent).
    utilization_at_saturation:
        Utilization achieved when a GPU is fed its full throughput; online
        serving rarely exceeds ~0.7 because of batching latency limits.
    gpu_model:
        GPU model used by the fleet.
    host_overhead_w_per_gpu:
        Host power per GPU.
    """

    name: str
    mean_queries_per_s: float
    diurnal_amplitude: float = 0.6
    peak_to_mean_provisioning: float = 1.4
    queries_per_gpu_s_at_full_util: float = 200.0
    utilization_at_saturation: float = 0.70
    gpu_model: str = "T4"
    host_overhead_w_per_gpu: float = 45.0

    def __post_init__(self) -> None:
        require_positive(self.mean_queries_per_s, "mean_queries_per_s")
        require_fraction(self.diurnal_amplitude, "diurnal_amplitude")
        if self.peak_to_mean_provisioning < 1.0:
            raise ConfigurationError("peak_to_mean_provisioning must be >= 1.0")
        require_positive(self.queries_per_gpu_s_at_full_util, "queries_per_gpu_s_at_full_util")
        require_fraction(self.utilization_at_saturation, "utilization_at_saturation")
        if self.host_overhead_w_per_gpu < 0:
            raise ConfigurationError("host_overhead_w_per_gpu must be non-negative")


@dataclass(frozen=True)
class InferenceFleetResult:
    """Outcome of serving the workload for a period."""

    spec_name: str
    n_gpus: int
    period_days: float
    total_queries: float
    mean_utilization: float
    p95_utilization: float
    gpu_energy_kwh: float
    host_energy_kwh: float

    @property
    def total_energy_kwh(self) -> float:
        """GPU + host energy over the serving period."""
        return self.gpu_energy_kwh + self.host_energy_kwh


class InferenceFleetModel:
    """Sizes and simulates an inference-serving GPU fleet."""

    def __init__(self, spec: InferenceWorkloadSpec, *, seed: SeedLike = None) -> None:
        self.spec = spec
        self.gpu_spec = get_gpu_spec(spec.gpu_model)
        self.power_model = GpuPowerModel(self.gpu_spec)
        self._rng = make_rng(seed, "inference", spec.name)

    # ------------------------------------------------------------------
    # Sizing
    # ------------------------------------------------------------------
    def peak_queries_per_s(self) -> float:
        """Peak arrival rate implied by the diurnal profile."""
        return self.spec.mean_queries_per_s * (1.0 + self.spec.diurnal_amplitude)

    def required_gpus(self) -> int:
        """Fleet size: provision for the peak rate with the configured head-room."""
        spec = self.spec
        effective_throughput = spec.queries_per_gpu_s_at_full_util * spec.utilization_at_saturation
        needed = self.peak_queries_per_s() * spec.peak_to_mean_provisioning / effective_throughput
        return max(1, int(np.ceil(needed)))

    # ------------------------------------------------------------------
    # Serving simulation
    # ------------------------------------------------------------------
    def hourly_query_rate(self, n_hours: int) -> np.ndarray:
        """Hourly arrival rates (queries/s) with a diurnal cycle and noise."""
        if n_hours <= 0:
            raise ConfigurationError("n_hours must be positive")
        hours = np.arange(n_hours)
        hod = hours % 24
        diurnal = 1.0 + self.spec.diurnal_amplitude * np.cos(2.0 * np.pi * (hod - 14.0) / 24.0)
        noise = self._rng.lognormal(mean=0.0, sigma=0.08, size=n_hours)
        return self.spec.mean_queries_per_s * diurnal * noise

    def serve(self, period_days: float = 30.0, n_gpus: int | None = None) -> InferenceFleetResult:
        """Serve the workload for ``period_days`` and account energy/utilization."""
        require_positive(period_days, "period_days")
        fleet = n_gpus if n_gpus is not None else self.required_gpus()
        if fleet <= 0:
            raise ConfigurationError("n_gpus must be positive")
        n_hours = int(round(period_days * 24))
        rates = self.hourly_query_rate(n_hours)
        spec = self.spec

        per_gpu_rate = rates / fleet
        # Utilization: fraction of the GPU's saturated throughput demanded,
        # capped at the saturation utilization (beyond that, queries queue).
        demanded = per_gpu_rate / spec.queries_per_gpu_s_at_full_util
        utilization = np.clip(demanded, 0.0, 1.0) * spec.utilization_at_saturation / spec.utilization_at_saturation
        utilization = np.minimum(demanded, spec.utilization_at_saturation)

        gpu_power_w = np.asarray(self.power_model.power_w(utilization, None))
        gpu_energy_kwh = float(np.sum(gpu_power_w) * fleet / 1e3)  # 1-hour steps
        host_energy_kwh = float(fleet * spec.host_overhead_w_per_gpu * n_hours / 1e3)
        served_rates = np.minimum(
            rates, fleet * spec.queries_per_gpu_s_at_full_util * spec.utilization_at_saturation
        )
        total_queries = float(np.sum(served_rates) * 3600.0)
        return InferenceFleetResult(
            spec_name=spec.name,
            n_gpus=fleet,
            period_days=period_days,
            total_queries=total_queries,
            mean_utilization=float(np.mean(utilization)),
            p95_utilization=float(np.percentile(utilization, 95)),
            gpu_energy_kwh=gpu_energy_kwh,
            host_energy_kwh=host_energy_kwh,
        )
