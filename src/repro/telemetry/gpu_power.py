"""Analytic GPU power and performance models.

The toolkit replaces real ``nvidia-smi`` readings with an analytic model of
GPU power draw as a function of utilization, the configured power limit
("power cap"), and clock throttling.  The model is deliberately simple but
captures the three behaviours the paper's mechanisms rely on:

1. Idle GPUs still draw a significant baseline power (tens of watts), which
   is why poor utilization (10-30% on cloud GPU instances, Section IV.B)
   translates into poor energy efficiency.
2. Power grows roughly affinely with utilization up to the enforced power
   limit, where it saturates.
3. Tightening the power cap below TDP reduces power superlinearly relative
   to the induced slowdown — the empirical observation of Frey et al. [15]
   that makes power caps an attractive control mechanism ``c`` in Eq. 1.

The throughput model follows the usual DVFS-style response: throughput is
roughly proportional to clock frequency, and frequency falls off gently as
the cap tightens, so moderate caps (e.g. 75% of TDP) cost only a few percent
of training speed while saving 15-25% of energy.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Optional, Union

import numpy as np

from ..config import require_positive
from ..errors import ConfigurationError, TelemetryError

__all__ = ["GpuSpec", "GpuPowerModel", "KNOWN_GPUS", "get_gpu_spec"]

ArrayLike = Union[float, np.ndarray]


@dataclass(frozen=True)
class GpuSpec:
    """Static description of a GPU model.

    Attributes
    ----------
    name:
        Marketing name, e.g. ``"V100"``.
    tdp_w:
        Thermal design power — the default power limit in watts.
    idle_power_w:
        Power draw with no work scheduled.
    min_power_limit_w:
        Lowest power limit the (simulated) driver accepts.
    max_boost_clock_mhz / base_clock_mhz:
        Clock range used by the throttling model.
    memory_gb:
        Device memory, used only for placement constraints.
    peak_fp16_tflops:
        Peak throughput used to convert utilization into useful work.
    """

    name: str
    tdp_w: float
    idle_power_w: float
    min_power_limit_w: float
    base_clock_mhz: float
    max_boost_clock_mhz: float
    memory_gb: float
    peak_fp16_tflops: float

    def __post_init__(self) -> None:
        require_positive(self.tdp_w, "tdp_w")
        require_positive(self.base_clock_mhz, "base_clock_mhz")
        require_positive(self.max_boost_clock_mhz, "max_boost_clock_mhz")
        require_positive(self.memory_gb, "memory_gb")
        require_positive(self.peak_fp16_tflops, "peak_fp16_tflops")
        if self.idle_power_w < 0 or self.idle_power_w >= self.tdp_w:
            raise ConfigurationError(
                f"idle_power_w must lie in [0, tdp_w), got {self.idle_power_w!r}"
            )
        if not 0 < self.min_power_limit_w <= self.tdp_w:
            raise ConfigurationError(
                f"min_power_limit_w must lie in (0, tdp_w], got {self.min_power_limit_w!r}"
            )
        if self.max_boost_clock_mhz < self.base_clock_mhz:
            raise ConfigurationError("max_boost_clock_mhz must be >= base_clock_mhz")


#: Specs for the GPU models found in the MIT SuperCloud TX-GAIA system (V100)
#: and in the power-cap study of Frey et al. [15] (V100 and A100).
KNOWN_GPUS: Mapping[str, GpuSpec] = {
    "V100": GpuSpec(
        name="V100",
        tdp_w=250.0,
        idle_power_w=38.0,
        min_power_limit_w=100.0,
        base_clock_mhz=1230.0,
        max_boost_clock_mhz=1380.0,
        memory_gb=32.0,
        peak_fp16_tflops=125.0,
    ),
    "A100": GpuSpec(
        name="A100",
        tdp_w=400.0,
        idle_power_w=52.0,
        min_power_limit_w=100.0,
        base_clock_mhz=1095.0,
        max_boost_clock_mhz=1410.0,
        memory_gb=80.0,
        peak_fp16_tflops=312.0,
    ),
    "A100-40GB": GpuSpec(
        name="A100-40GB",
        tdp_w=400.0,
        idle_power_w=50.0,
        min_power_limit_w=100.0,
        base_clock_mhz=1095.0,
        max_boost_clock_mhz=1410.0,
        memory_gb=40.0,
        peak_fp16_tflops=312.0,
    ),
    "T4": GpuSpec(
        name="T4",
        tdp_w=70.0,
        idle_power_w=10.0,
        min_power_limit_w=60.0,
        base_clock_mhz=585.0,
        max_boost_clock_mhz=1590.0,
        memory_gb=16.0,
        peak_fp16_tflops=65.0,
    ),
}


def get_gpu_spec(name: str) -> GpuSpec:
    """Look up a known GPU spec by (case-insensitive) name."""
    key = name.strip().upper()
    for spec_name, spec in KNOWN_GPUS.items():
        if spec_name.upper() == key:
            return spec
    raise TelemetryError(
        f"unknown GPU model {name!r}; known models: {sorted(KNOWN_GPUS)}"
    )


class GpuPowerModel:
    """Analytic power/throughput model for a single GPU model.

    Parameters
    ----------
    spec:
        The GPU's static description.
    utilization_exponent:
        Shape of the power-vs-utilization curve.  1.0 gives an affine
        response; values slightly below 1.0 make mid-range utilization
        relatively more expensive, which matches measured DL workloads.
    cap_slowdown_exponent:
        Controls how fast throughput degrades as the cap tightens.  With the
        default 0.25, capping a V100 at 70% TDP costs roughly 9% of
        throughput while saving roughly 23% of energy on a saturating job,
        and an 80% cap costs ~6% for ~15% savings — the "large savings for
        minimal slowdown" knee reported by the power-cap study the paper
        cites [15].
    """

    def __init__(
        self,
        spec: GpuSpec,
        *,
        utilization_exponent: float = 0.92,
        cap_slowdown_exponent: float = 0.25,
    ) -> None:
        require_positive(utilization_exponent, "utilization_exponent")
        require_positive(cap_slowdown_exponent, "cap_slowdown_exponent")
        self.spec = spec
        self.utilization_exponent = float(utilization_exponent)
        self.cap_slowdown_exponent = float(cap_slowdown_exponent)

    # ------------------------------------------------------------------
    # Power
    # ------------------------------------------------------------------
    def clamp_power_limit(self, power_limit_w: ArrayLike) -> ArrayLike:
        """Clamp a requested power limit into the driver-supported range."""
        return np.clip(
            np.asarray(power_limit_w, dtype=float),
            self.spec.min_power_limit_w,
            self.spec.tdp_w,
        )

    def uncapped_power_w(self, utilization: ArrayLike) -> ArrayLike:
        """Power draw at the given utilization if no cap were enforced.

        ``utilization`` is the fraction of SM busy time in [0, 1].
        """
        util = np.clip(np.asarray(utilization, dtype=float), 0.0, 1.0)
        dynamic_range = self.spec.tdp_w - self.spec.idle_power_w
        return self.spec.idle_power_w + dynamic_range * util**self.utilization_exponent

    def power_w(self, utilization: ArrayLike, power_limit_w: ArrayLike | None = None) -> ArrayLike:
        """Instantaneous power draw under an enforced power limit.

        The device draws the uncapped power or the cap, whichever is lower —
        exactly the behaviour of NVML power-limit enforcement for sustained
        workloads (transient excursions are ignored).
        """
        uncapped = self.uncapped_power_w(utilization)
        if power_limit_w is None:
            return uncapped
        limit = self.clamp_power_limit(power_limit_w)
        return np.minimum(uncapped, limit)

    # ------------------------------------------------------------------
    # Scalar fast paths
    # ------------------------------------------------------------------
    # The cluster simulator evaluates the power/throughput model once per job
    # event (thousands of times per run) on plain floats; routing those calls
    # through the array API costs an order of magnitude in ``np.asarray``
    # round-trips.  These scalar twins perform the identical IEEE-754
    # arithmetic (clip = min/max composition, same ``**`` exponentiation), so
    # their results are bit-equal to the array versions on scalar inputs —
    # asserted by the state-parity test suite.
    def clamp_power_limit_scalar(self, power_limit_w: float) -> float:
        """Scalar twin of :meth:`clamp_power_limit`."""
        return min(max(float(power_limit_w), self.spec.min_power_limit_w), self.spec.tdp_w)

    def uncapped_power_w_scalar(self, utilization: float) -> float:
        """Scalar twin of :meth:`uncapped_power_w`."""
        util = min(max(float(utilization), 0.0), 1.0)
        dynamic_range = self.spec.tdp_w - self.spec.idle_power_w
        return self.spec.idle_power_w + dynamic_range * util**self.utilization_exponent

    def power_w_scalar(self, utilization: float, power_limit_w: Optional[float] = None) -> float:
        """Scalar twin of :meth:`power_w`."""
        uncapped = self.uncapped_power_w_scalar(utilization)
        if power_limit_w is None:
            return uncapped
        return min(uncapped, self.clamp_power_limit_scalar(power_limit_w))

    def relative_throughput_scalar(self, power_limit_w: float, utilization: float = 1.0) -> float:
        """Scalar twin of :meth:`relative_throughput`."""
        limit = self.clamp_power_limit_scalar(power_limit_w)
        demanded = self.uncapped_power_w_scalar(utilization)
        ratio = min(max(limit / max(demanded, 1e-9), 0.0), 1.0)
        return ratio**self.cap_slowdown_exponent

    def slowdown_factor_scalar(self, power_limit_w: float, utilization: float = 1.0) -> float:
        """Scalar twin of :meth:`slowdown_factor`."""
        return 1.0 / self.relative_throughput_scalar(power_limit_w, utilization)

    # ------------------------------------------------------------------
    # Performance under power caps
    # ------------------------------------------------------------------
    def relative_throughput(self, power_limit_w: ArrayLike, utilization: ArrayLike = 1.0) -> ArrayLike:
        """Throughput at the given cap relative to running uncapped (in (0, 1]).

        A cap only throttles the device while the workload would otherwise
        draw more than the cap, so the relevant ratio is the cap over the
        *uncapped power at the job's utilization*, not over TDP.  For a
        saturating job (utilization 1.0) this reduces to ``(cap / TDP)``.
        The concave exponent reproduces the knee shape reported in the
        power-cap benchmarking study the paper cites [15]: the first watts of
        cap reduction are nearly free.
        """
        limit = self.clamp_power_limit(power_limit_w)
        demanded = np.asarray(self.uncapped_power_w(utilization), dtype=float)
        ratio = np.clip(limit / np.maximum(demanded, 1e-9), 0.0, 1.0)
        return np.asarray(ratio, dtype=float) ** self.cap_slowdown_exponent

    def slowdown_factor(self, power_limit_w: ArrayLike, utilization: ArrayLike = 1.0) -> ArrayLike:
        """Multiplicative job-duration factor induced by a power cap (>= 1)."""
        return 1.0 / self.relative_throughput(power_limit_w, utilization)

    # ------------------------------------------------------------------
    # Energy of a fixed amount of work
    # ------------------------------------------------------------------
    def energy_for_work(
        self,
        baseline_duration_s: ArrayLike,
        utilization: ArrayLike = 1.0,
        power_limit_w: ArrayLike | None = None,
    ) -> ArrayLike:
        """Energy (J) to finish a fixed piece of work under a power cap.

        ``baseline_duration_s`` is how long the work takes at TDP with the
        given utilization; tightening the cap stretches the duration by
        :meth:`slowdown_factor` while lowering instantaneous power, and the
        net effect is the energy/time trade-off of the power-cap benchmark.
        """
        duration = np.asarray(baseline_duration_s, dtype=float)
        if np.any(duration < 0):
            raise TelemetryError("baseline_duration_s must be non-negative")
        if power_limit_w is None:
            power = self.power_w(utilization)
            return power * duration
        slowdown = self.slowdown_factor(power_limit_w, utilization)
        power = self.power_w(utilization, power_limit_w)
        return power * duration * slowdown

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"GpuPowerModel(spec={self.spec.name!r})"
