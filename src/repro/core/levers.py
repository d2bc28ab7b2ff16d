"""The decision levers of Eq. 1 as an enumerable operating point.

An :class:`OperatingPoint` fixes the three traditional levers the paper names:

* ``q_s`` — the supplied resource quantity, expressed as the fraction of the
  cluster's nodes kept in service (the rest are drained);
* ``p`` — the scheduling policy: a registered policy name *or* a pipeline
  spec string in the :mod:`~repro.scheduler.compose` grammar
  (``"backfill+carbon(cap=0.7)+budget"``), so the optimizer's search space is
  the full combinatorial stage composition space rather than a closed enum;
* ``c`` — the control mechanism, here the GPU power-cap fraction applied by
  the policy (``None`` = uncapped) and the facility power budget.

The optimizer enumerates operating points (grid search is entirely adequate —
the levers are low-dimensional and partly categorical, exactly why the paper
frames this as an operational rather than algorithmic problem) and evaluates
each on the cluster simulator.

Policies are registered through :func:`register_policy`; the five named
policies (``fifo``, ``backfill``, ``energy-aware``, ``carbon-aware``,
``deadline-aware``) are pre-registered as *canned pipeline compositions*
whose job records are bit-identical to the pre-pipeline schedulers (pinned in
``tests/test_policy_compose.py``).  ``greenhpc policies`` lists the registry
and the stage vocabulary.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Optional, Sequence

from ..errors import OptimizationError, SchedulingError
from ..scheduler.base import Scheduler
from ..scheduler.compose import build_pipeline, parse_policy

__all__ = [
    "PolicyDefinition",
    "register_policy",
    "registered_policies",
    "resolve_policy",
    "SCHEDULER_REGISTRY",
    "OperatingPoint",
    "make_scheduler",
    "default_operating_grid",
]


def _cap_token(cap: float) -> str:
    """The static-cap stage token appended for an operating point's ``c`` lever.

    ``float()`` first: NumPy scalars (np.linspace sweeps) repr as
    ``np.float64(...)``, which the spec grammar would reject.
    """
    return f"cap(fraction={float(cap)!r})"


@dataclass(frozen=True)
class PolicyDefinition:
    """One registered policy: a canned pipeline spec plus cap semantics.

    Attributes
    ----------
    name:
        Registry name (the ``p`` lever value).
    spec:
        The pipeline spec the name expands to (before the cap lever).
    help:
        One-line description for listings.
    cap_mode:
        How the operating point's ``power_cap_fraction`` maps onto the
        pipeline:

        * ``"append"`` — append a static-cap stage when a cap is given
          (carbon-/deadline-aware semantics);
        * ``"always"`` — always append one, defaulting to full TDP when no
          cap is given (the pre-pipeline energy-aware quirk: its cap policy is
          never absent);
        * ``"ignored"`` — the policy takes no cap (pre-pipeline fifo/backfill
          factories discarded it; preserved for reproducibility).
    """

    name: str
    spec: str
    help: str = ""
    cap_mode: str = "append"

    def __post_init__(self) -> None:
        if self.cap_mode not in ("append", "always", "ignored"):
            raise OptimizationError(f"unknown cap_mode {self.cap_mode!r}")
        # Fail registration (not first use) on bad grammar, unknown stages or
        # missing/invalid stage parameters.
        build_pipeline(self.spec)

    def effective_spec(self, power_cap_fraction: Optional[float]) -> str:
        """The full pipeline spec once the cap lever is applied."""
        if self.cap_mode == "ignored":
            return self.spec
        if self.cap_mode == "always":
            cap = power_cap_fraction if power_cap_fraction is not None else 1.0
            return f"{self.spec}+{_cap_token(cap)}"
        if power_cap_fraction is None:
            return self.spec
        return f"{self.spec}+{_cap_token(power_cap_fraction)}"

    def build(self, power_cap_fraction: Optional[float] = None) -> Scheduler:
        """A fresh pipeline for this policy at the given cap, named after it."""
        return build_pipeline(self.effective_spec(power_cap_fraction), name=self.name)


_POLICIES: dict[str, PolicyDefinition] = {}


def register_policy(
    name: str,
    spec: str,
    *,
    help: str = "",
    cap_mode: str = "append",
    overwrite: bool = False,
) -> PolicyDefinition:
    """Register ``spec`` as the policy ``name``; duplicate names raise.

    The registered name becomes valid everywhere a policy is addressed: the
    :class:`OperatingPoint` ``p`` lever, :func:`make_scheduler`, the
    ``optimize``/``schedule`` experiments, campaign grids and the CLI.
    """
    if name in _POLICIES and not overwrite:
        raise OptimizationError(f"policy {name!r} is already registered")
    definition = PolicyDefinition(name=name, spec=spec, help=help, cap_mode=cap_mode)
    _POLICIES[name] = definition
    return definition


def registered_policies() -> Iterator[PolicyDefinition]:
    """Iterate over the registered policy definitions, in registration order."""
    return iter(tuple(_POLICIES.values()))


#: Registered policies by name.  Kept under the historical name so existing
#: ``name in SCHEDULER_REGISTRY`` / ``sorted(SCHEDULER_REGISTRY)`` call sites
#: keep working; mutate it through :func:`register_policy` only.
SCHEDULER_REGISTRY: dict[str, PolicyDefinition] = _POLICIES


def resolve_policy(policy: str) -> PolicyDefinition:
    """Resolve a policy name or spec string to a buildable definition.

    Registered names win; anything else must parse in the pipeline grammar
    (its canonical spelling becomes the definition name).  Raises
    :class:`OptimizationError` either way on failure.
    """
    definition = _POLICIES.get(policy)
    if definition is not None:
        return definition
    try:
        canonical = str(parse_policy(policy))
        return PolicyDefinition(name=canonical, spec=canonical, cap_mode="append")
    except SchedulingError as exc:
        raise OptimizationError(
            f"unknown scheduling policy {policy!r} ({exc}); registered policies: "
            f"{sorted(_POLICIES)} — run `greenhpc policies` for the full catalogue"
        ) from None


def make_scheduler(policy_name: str, power_cap_fraction: Optional[float] = None) -> Scheduler:
    """Instantiate a scheduler by registry name or pipeline spec string."""
    if power_cap_fraction is not None and not 0.0 < power_cap_fraction <= 1.0:
        raise OptimizationError("power_cap_fraction must lie in (0, 1]")
    return resolve_policy(policy_name).build(power_cap_fraction)


# ---------------------------------------------------------------------------
# The five named policies (bit-identical to the pre-pipeline schedulers)
# ---------------------------------------------------------------------------

register_policy(
    "fifo",
    "fifo",
    help="strict submission-order FIFO (the naive baseline)",
    cap_mode="ignored",
)
register_policy(
    "backfill",
    "backfill",
    help="FIFO order with backfilling around blocked head-of-line jobs",
    cap_mode="ignored",
)
register_policy(
    "energy-aware",
    "backfill+budget",
    help="backfill with static power caps, packing and the facility power budget",
    cap_mode="always",
)
register_policy(
    "carbon-aware",
    "backfill+carbon(cap=0.7)",
    help="backfill that defers deferrable jobs (and caps the rest) in dirty hours",
    cap_mode="append",
)
register_policy(
    "deadline-aware",
    "edf+backfill+slack(margin=2.0)",
    help="earliest-deadline-first, spending deadline slack on green hours",
    cap_mode="append",
)


@dataclass(frozen=True)
class OperatingPoint:
    """One candidate setting of the Eq. 1 levers.

    Attributes
    ----------
    supply_fraction:
        Fraction of the cluster's nodes kept in service (``q_s``).
    policy_name:
        Scheduling policy (``p``): a registered name or a pipeline spec
        string in the :mod:`~repro.scheduler.compose` grammar.
    power_cap_fraction:
        GPU power-cap fraction applied by the policy (``c``); ``None`` means
        no cap.
    facility_power_budget_w:
        Optional facility power ceiling handed to the scheduler (also ``c``).
    """

    supply_fraction: float = 1.0
    policy_name: str = "backfill"
    power_cap_fraction: Optional[float] = None
    facility_power_budget_w: Optional[float] = None

    def __post_init__(self) -> None:
        if not 0.0 < self.supply_fraction <= 1.0:
            raise OptimizationError("supply_fraction must lie in (0, 1]")
        resolve_policy(self.policy_name)  # name or spec must be buildable
        if self.power_cap_fraction is not None and not 0.0 < self.power_cap_fraction <= 1.0:
            raise OptimizationError("power_cap_fraction must lie in (0, 1]")
        if self.facility_power_budget_w is not None and self.facility_power_budget_w <= 0:
            raise OptimizationError("facility_power_budget_w must be positive when given")

    def build_scheduler(self) -> Scheduler:
        """A fresh scheduler configured for this operating point."""
        return make_scheduler(self.policy_name, self.power_cap_fraction)

    def label(self) -> str:
        """Compact human-readable label for tables."""
        cap = "uncapped" if self.power_cap_fraction is None else f"cap={self.power_cap_fraction:.0%}"
        return f"{self.policy_name}/{cap}/supply={self.supply_fraction:.0%}"


def default_operating_grid(
    *,
    supply_fractions: Sequence[float] = (1.0, 0.85),
    policy_names: Sequence[str] = ("backfill", "energy-aware", "carbon-aware"),
    power_cap_fractions: Sequence[Optional[float]] = (None, 0.75, 0.6),
) -> list[OperatingPoint]:
    """The default grid of operating points searched by the Eq. 1 benchmark."""
    points = []
    for supply in supply_fractions:
        for policy in policy_names:
            for cap in power_cap_fractions:
                points.append(
                    OperatingPoint(
                        supply_fraction=supply,
                        policy_name=policy,
                        power_cap_fraction=cap,
                    )
                )
    return points
