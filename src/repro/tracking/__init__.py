"""Energy & carbon tracking for (simulated) ML experiments.

Section IV.B of the paper argues that consistent measurement and reporting of
energy/carbon alongside accuracy is a precondition for Green A.I.  This
package is the measurement toolchain the paper asks facilities to provide:

* :class:`~repro.tracking.tracker.EnergyTracker` — a context manager that
  polls the (simulated) NVML devices while a workload runs and reports energy,
  average power and utilization, in the style of CodeCarbon / Zeus.
* :mod:`~repro.tracking.emissions` — emission factors and the conversion of
  measured energy into CO2e under a given grid mix.
* :mod:`~repro.tracking.reporting` — structured experiment reports
  (dict / CSV / JSON / markdown table) for papers and leaderboards.
* :mod:`~repro.tracking.lifecycle` — model life-cycle accounting: training +
  experimentation + serving, reproducing the "inference is 80-90% of the
  energy" observation.
"""

from .tracker import EnergyTracker, TrackerReport
from .emissions import EmissionFactor, REGIONAL_EMISSION_FACTORS, emissions_from_energy, equivalent_miles_driven
from .reporting import ExperimentReport, ReportCollection
from .lifecycle import LifecycleStage, LifecycleCostModel, LifecycleBreakdown
from .embodied import HardwareFootprint, HARDWARE_FOOTPRINTS, EmbodiedCarbonModel, TotalFootprint

__all__ = [
    "EnergyTracker",
    "TrackerReport",
    "EmissionFactor",
    "REGIONAL_EMISSION_FACTORS",
    "emissions_from_energy",
    "equivalent_miles_driven",
    "ExperimentReport",
    "ReportCollection",
    "LifecycleStage",
    "LifecycleCostModel",
    "LifecycleBreakdown",
    "HardwareFootprint",
    "HARDWARE_FOOTPRINTS",
    "EmbodiedCarbonModel",
    "TotalFootprint",
]
