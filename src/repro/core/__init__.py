"""The paper's primary contribution: the green-datacenter optimization framework.

* :mod:`~repro.core.objective` — the Eq. 1 objective ``E(·)`` (in any of the
  currencies the paper lists: kWh, CO2e, dollars, PUE, water) and the activity
  constraint ``A(·) ≥ α``.
* :mod:`~repro.core.levers` — the decision levers ``q_s`` (supply), ``p``
  (scheduling policy) and ``c`` (power caps) as an enumerable operating point,
  and :func:`~repro.core.levers.build_simulator`, the one factory that wires
  a cluster simulator from them.
  The policy lever is an *open registry*: :func:`~repro.core.levers.
  register_policy` names canned stage compositions (the five named
  policies are pre-registered with bit-identical job records), and any pipeline
  spec string in the :mod:`~repro.scheduler.compose` grammar — ordering +
  gates + placement + power chain, e.g. ``"backfill+carbon(cap=0.7)+budget"``
  — is a valid ``p`` everywhere a policy is addressed (operating points, the
  optimizer, experiments, campaign grids, the CLI).
* :mod:`~repro.core.optimizer` — the datacenter-level optimizer that searches
  operating points on the cluster simulator subject to the activity floor.
* :mod:`~repro.core.user_level` — the Eq. 2 per-user decomposition of energy
  and activity.
* :mod:`~repro.core.mechanism` — the two-part mechanism (fixed power-cap base
  + caps-for-GPUs menu) and its population-level evaluation.
* :mod:`~repro.core.adverse_selection` — self-selected queue segmentation and
  its failure mode.
* :mod:`~repro.core.policies` — carbon-aware load shifting and the
  deadline-restructuring options of Section III.
* :mod:`~repro.core.opportunity_cost` — the environmental/financial
  opportunity-cost accounting of Section II.A.
* :mod:`~repro.core.stress` — the Dodd-Frank-style stress-test harness of
  Section II.B.
"""

from .objective import ObjectiveKind, EnergyObjective, ActivityConstraint, ObjectiveEvaluation
from .levers import (
    OperatingPoint,
    PolicyDefinition,
    SCHEDULER_REGISTRY,
    Substrates,
    build_simulator,
    default_operating_grid,
    make_scheduler,
    register_policy,
    registered_policies,
    resolve_policy,
)
from .optimizer import DatacenterOptimizer, OptimizationOutcome
from .user_level import UserProfile, UserLevelAccounting, per_user_decomposition
from .mechanism import MechanismOption, TwoPartMechanism, UserPreference, MechanismOutcome
from .adverse_selection import AdverseSelectionStudy, QueueChoiceOutcome
from .policies import (
    LoadShiftingPolicy,
    ShiftingOutcome,
    evaluate_load_shifting,
    DeadlinePolicyOutcome,
    evaluate_deadline_restructuring,
)
from .opportunity_cost import OpportunityCostReport, opportunity_cost_of_profile
from .stress import StressTestResult, StressTestHarness

__all__ = [
    "ObjectiveKind",
    "EnergyObjective",
    "ActivityConstraint",
    "ObjectiveEvaluation",
    "OperatingPoint",
    "PolicyDefinition",
    "SCHEDULER_REGISTRY",
    "register_policy",
    "registered_policies",
    "resolve_policy",
    "make_scheduler",
    "default_operating_grid",
    "Substrates",
    "build_simulator",
    "DatacenterOptimizer",
    "OptimizationOutcome",
    "UserProfile",
    "UserLevelAccounting",
    "per_user_decomposition",
    "MechanismOption",
    "TwoPartMechanism",
    "UserPreference",
    "MechanismOutcome",
    "AdverseSelectionStudy",
    "QueueChoiceOutcome",
    "LoadShiftingPolicy",
    "ShiftingOutcome",
    "evaluate_load_shifting",
    "DeadlinePolicyOutcome",
    "evaluate_deadline_restructuring",
    "OpportunityCostReport",
    "opportunity_cost_of_profile",
    "StressTestResult",
    "StressTestHarness",
]
