"""The policy-spec grammar: every stage composition addressable by string.

A *policy spec* names a :class:`~repro.scheduler.pipeline.PolicyPipeline` as
a ``+``-joined sequence of stage tokens, each optionally parameterized::

    spec   := token ('+' token)*
    token  := name | name '(' arg (',' arg)* ')' | name '()'
    arg    := key '=' value
    value  := int | float | true | false | none | bare-word

Examples::

    backfill
    backfill+carbon(cap=0.7)+budget
    edf+backfill+slack(margin=2.0)+cap(fraction=0.8)
    sjf+fifo+price(ceiling=60)+deadline-cap(min_fraction=0.5)

Token order is meaningful only within a slot: gates run (and short-circuit)
in spec order, and power stages chain in spec order over the job's own cap.
Ordering and placement may each appear at most once; omitting them defaults
to submission order and backfill.

:func:`parse_policy` turns text into a :class:`PolicySpec` (raising
:class:`~repro.errors.SchedulingError` naming the offending token on bad
input); ``str(spec)`` renders the canonical spelling, and
``parse_policy(str(spec)) == spec`` round-trips.  :func:`build_pipeline`
instantiates the composition.  The stage vocabulary itself is an open
:class:`~repro.registry.Registry` (:func:`register_stage` /
:func:`list_stage_definitions`), which is what the ``greenhpc policies``
listing and the CLI sweep grids are generated from.  Stage and router tokens
resolve their arguments through one :class:`TokenDefinition`.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import Any, Callable, ClassVar, Optional, Union

from ..errors import SchedulingError
from ..registry import Registry
from .pipeline import PolicyPipeline
from .stages import (
    AdaptiveCapStage,
    AdmissionGate,
    DeadlineOrdering,
    DeadlineSlackCapStage,
    DeadlineSlackGate,
    DirtyHourCapStage,
    GreenHourGate,
    OrderingStage,
    Placement,
    PowerBudgetGate,
    PowerStage,
    PriceCeilingGate,
    RenewableShareGate,
    ShortestJobOrdering,
    StaticCapStage,
    SubmitOrdering,
)

__all__ = [
    "StageSpec",
    "PolicySpec",
    "parse_policy",
    "build_pipeline",
    "split_top_level",
    "StageParam",
    "TokenDefinition",
    "StageDefinition",
    "register_stage",
    "get_stage",
    "stage_names",
    "list_stage_definitions",
]

_TOKEN_RE = re.compile(r"^(?P<name>[a-z][a-z0-9-]*)(?:\((?P<args>.*)\))?$", re.DOTALL)
_KEY_RE = re.compile(r"^[a-z][a-z0-9_]*$")
_INT_RE = re.compile(r"^-?\d+$")
_BARE_RE = re.compile(r"^[A-Za-z0-9_.:-]+$")

#: Values a spec parameter may carry.
ParamValue = Union[int, float, bool, str, None]


def split_top_level(text: str, sep: str = ",") -> list[str]:
    """Split ``text`` on ``sep`` occurrences outside parentheses.

    The CLI uses this for comma-separated lists whose items may themselves be
    parameterized specs (``backfill,backfill+carbon(cap=0.7)``).  Raises
    :class:`SchedulingError` on unbalanced parentheses.
    """
    parts: list[str] = []
    depth = 0
    current: list[str] = []
    for char in text:
        if char == "(":
            depth += 1
        elif char == ")":
            depth -= 1
            if depth < 0:
                raise SchedulingError(f"unbalanced ')' in {text!r}")
        if char == sep and depth == 0:
            parts.append("".join(current))
            current = []
        else:
            current.append(char)
    if depth != 0:
        raise SchedulingError(f"unbalanced '(' in {text!r}")
    parts.append("".join(current))
    return parts


def _parse_value(raw: str, token: str) -> ParamValue:
    raw = raw.strip()
    if _INT_RE.match(raw):
        return int(raw)
    try:
        return float(raw)
    except ValueError:
        pass
    lowered = raw.lower()
    if lowered == "true":
        return True
    if lowered == "false":
        return False
    if lowered == "none":
        return None
    if not raw or not _BARE_RE.match(raw):
        raise SchedulingError(f"invalid value {raw!r} in policy token {token!r}")
    return raw


def _render_value(value: ParamValue) -> str:
    if value is None:
        return "none"
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, (int, float)):
        return repr(value)
    if not _BARE_RE.match(value):
        raise SchedulingError(f"string parameter value {value!r} is not grammar-safe")
    return value


@dataclass(frozen=True)
class StageSpec:
    """One parsed stage token: a name plus its (ordered) parameters."""

    name: str
    params: tuple[tuple[str, ParamValue], ...] = ()

    def param_dict(self) -> dict[str, ParamValue]:
        return dict(self.params)

    def __str__(self) -> str:
        if not self.params:
            return self.name
        args = ",".join(f"{key}={_render_value(value)}" for key, value in self.params)
        return f"{self.name}({args})"


@dataclass(frozen=True)
class PolicySpec:
    """A parsed policy spec: the ordered stage tokens of one composition."""

    stages: tuple[StageSpec, ...] = ()

    def __post_init__(self) -> None:
        if not self.stages:
            raise SchedulingError("policy spec must contain at least one stage token")

    def __str__(self) -> str:
        return "+".join(str(stage) for stage in self.stages)

    @classmethod
    def parse(cls, text: str) -> "PolicySpec":
        """Parse spec text; raises :class:`SchedulingError` naming the bad token."""
        if not isinstance(text, str) or not text.strip():
            raise SchedulingError(f"policy spec must be a non-empty string, got {text!r}")
        stages: list[StageSpec] = []
        for raw_token in split_top_level(text.strip(), "+"):
            token = raw_token.strip()
            if not token:
                raise SchedulingError(f"empty stage token in policy spec {text!r}")
            match = _TOKEN_RE.match(token)
            if match is None:
                raise SchedulingError(f"invalid policy token {token!r} in spec {text!r}")
            args_raw = match.group("args")
            params: list[tuple[str, ParamValue]] = []
            if args_raw is not None and args_raw.strip():
                for arg in split_top_level(args_raw, ","):
                    key, sep, raw_value = arg.partition("=")
                    key = key.strip()
                    if not sep or not _KEY_RE.match(key):
                        raise SchedulingError(
                            f"invalid argument {arg.strip()!r} in policy token {token!r} "
                            "(expected key=value)"
                        )
                    if key in dict(params):
                        raise SchedulingError(
                            f"duplicate argument {key!r} in policy token {token!r}"
                        )
                    params.append((key, _parse_value(raw_value, token)))
            stages.append(StageSpec(name=match.group("name"), params=tuple(params)))
        return cls(stages=tuple(stages))

    def build(self, *, name: Optional[str] = None) -> PolicyPipeline:
        """Instantiate the composition (see :func:`build_pipeline`)."""
        builder = _Builder()
        for stage in self.stages:
            definition = get_stage(stage.name)
            resolved = definition.resolve_params(stage)
            definition.contribute(builder, resolved, stage)
        return builder.finish(name=name if name is not None else str(self))


def parse_policy(text: str) -> PolicySpec:
    """Parse ``text`` into a :class:`PolicySpec` (module-level convenience)."""
    return PolicySpec.parse(text)


def build_pipeline(
    spec: Union[str, PolicySpec], *, name: Optional[str] = None
) -> PolicyPipeline:
    """Build the :class:`PolicyPipeline` a spec (string or parsed) describes."""
    if isinstance(spec, str):
        spec = PolicySpec.parse(spec)
    return spec.build(name=name)


# ---------------------------------------------------------------------------
# Stage registry
# ---------------------------------------------------------------------------

#: Sentinel for parameters that must be supplied explicitly.
REQUIRED = object()


@dataclass(frozen=True)
class StageParam:
    """One declared parameter of a stage token.

    ``allow_none`` marks parameters for which the grammar literal ``none`` is
    meaningful (e.g. ``carbon(cap=none)`` disables the dirty-hour cap);
    elsewhere ``none`` is rejected at parse-resolution time rather than
    crashing the stage constructor.
    """

    name: str
    type: type
    default: Any = REQUIRED
    help: str = ""
    allow_none: bool = False

    @property
    def required(self) -> bool:
        return self.default is REQUIRED

    def coerce(self, value: ParamValue, where: str, error: type[Exception]) -> Any:
        """Validate/coerce a parsed grammar value; ``where`` names the token in ``error``."""
        if value is None:
            if not self.allow_none:
                raise error(f"argument {self.name!r} of {where} does not accept 'none'")
            return None
        if self.type is float and isinstance(value, int) and not isinstance(value, bool):
            return float(value)
        if self.type is str and not isinstance(value, str):
            return _render_value(value)
        if not isinstance(value, self.type) or (self.type is not bool and isinstance(value, bool)):
            raise error(
                f"argument {self.name!r} of {where} must be "
                f"{self.type.__name__}, got {value!r}"
            )
        return value


class TokenDefinition:
    """Parameter resolution shared by registered stage and router tokens.

    Subclasses are frozen dataclasses with a ``params`` field; ``error`` and
    ``noun`` name their grammar in messages (:class:`SchedulingError` and
    "policy token" here, :class:`~repro.errors.FleetError` and "router token"
    for :class:`~repro.fleet.routing.RouterDefinition`).
    """

    error: ClassVar[type[Exception]] = SchedulingError
    noun: ClassVar[str] = "policy token"
    params: tuple[StageParam, ...]

    def resolve_params(self, token: StageSpec) -> dict[str, Any]:
        """The token's arguments over the declared defaults, coerced and checked."""
        where = f"{self.noun} {str(token)!r}"
        declared = {p.name: p for p in self.params}
        unknown = [key for key, _ in token.params if key not in declared]
        if unknown:
            raise self.error(
                f"unknown argument(s) {unknown} for {where}; declared: {sorted(declared)}"
            )
        given = token.param_dict()
        resolved: dict[str, Any] = {}
        for param in self.params:
            if param.name in given:
                resolved[param.name] = param.coerce(given[param.name], where, self.error)
            elif param.required:
                raise self.error(f"{where} is missing required argument {param.name!r}")
            else:
                resolved[param.name] = param.default
        return resolved


class _Builder:
    """Accumulates stage contributions into one pipeline."""

    def __init__(self) -> None:
        self.ordering: Optional[OrderingStage] = None
        self.placement: Optional[Placement] = None
        self.gates: list[AdmissionGate] = []
        self.power: list[PowerStage] = []

    def set_ordering(self, stage: OrderingStage, token: StageSpec) -> None:
        if self.ordering is not None:
            raise SchedulingError(
                f"policy token {str(token)!r} sets a second ordering "
                f"(already {self.ordering.name!r})"
            )
        self.ordering = stage

    def set_placement(self, placement: Placement, token: StageSpec) -> None:
        if self.placement is not None:
            raise SchedulingError(
                f"policy token {str(token)!r} sets a second placement "
                f"(already {self.placement.name!r})"
            )
        self.placement = placement

    def finish(self, *, name: Optional[str]) -> PolicyPipeline:
        return PolicyPipeline(
            ordering=self.ordering,
            gates=self.gates,
            placement=self.placement,
            power=self.power,
            name=name,
        )


@dataclass(frozen=True)
class StageDefinition(TokenDefinition):
    """A registered stage token: metadata plus its pipeline contribution."""

    name: str
    kind: str  # "ordering" | "placement" | "gate" | "power"
    help: str
    params: tuple[StageParam, ...] = ()
    contribute: Callable[[_Builder, dict[str, Any], StageSpec], None] = field(
        default=lambda builder, params, token: None, repr=False
    )


_STAGES: Registry[StageDefinition] = Registry("policy token", "stages", SchedulingError)


def register_stage(definition: StageDefinition, *, overwrite: bool = False) -> StageDefinition:
    """Register a stage token; duplicate names raise unless ``overwrite``."""
    if definition.kind not in ("ordering", "placement", "gate", "power"):
        raise SchedulingError(f"unknown stage kind {definition.kind!r}")
    return _STAGES.register(definition.name, definition, overwrite=overwrite)


#: Look up a registered stage token by name.
get_stage = _STAGES.get
#: Names of all registered stage tokens, in registration order.
stage_names = _STAGES.names
#: Iterate over registered stage definitions, in registration order.
list_stage_definitions = _STAGES.values


# ---------------------------------------------------------------------------
# Built-in vocabulary
# ---------------------------------------------------------------------------


def _exempt_queues(exempt: Optional[str]) -> tuple[str, ...]:
    """Parse the ``exempt`` parameter: colon-separated queue names, or none."""
    if exempt is None or exempt == "none" or exempt == "":
        return ()
    return tuple(part for part in exempt.split(":") if part)


register_stage(
    StageDefinition(
        name="submit-order",
        kind="ordering",
        help="consider jobs in submission order (the FIFO/backfill default)",
        contribute=lambda b, p, t: b.set_ordering(SubmitOrdering(), t),
    )
)
register_stage(
    StageDefinition(
        name="edf",
        kind="ordering",
        help="earliest-deadline-first; jobs without deadlines fill in behind",
        contribute=lambda b, p, t: b.set_ordering(DeadlineOrdering(), t),
    )
)
register_stage(
    StageDefinition(
        name="sjf",
        kind="ordering",
        help="shortest baseline duration first",
        contribute=lambda b, p, t: b.set_ordering(ShortestJobOrdering(), t),
    )
)
register_stage(
    StageDefinition(
        name="fifo",
        kind="placement",
        help="strict head-of-line placement: a job that does not fit blocks the round",
        params=(StageParam("pack", bool, True, "pack allocations onto few nodes"),),
        contribute=lambda b, p, t: b.set_placement(
            Placement(name="fifo", stop_at_first_blocked=True, pack=p["pack"]), t
        ),
    )
)
register_stage(
    StageDefinition(
        name="backfill",
        kind="placement",
        help="EASY-style backfill: smaller jobs flow around a blocked head",
        params=(StageParam("pack", bool, True, "pack allocations onto few nodes"),),
        contribute=lambda b, p, t: b.set_placement(
            Placement(name="backfill", stop_at_first_blocked=False, pack=p["pack"]), t
        ),
    )
)


def _contribute_carbon(builder: _Builder, params: dict[str, Any], token: StageSpec) -> None:
    builder.gates.append(
        GreenHourGate(defer_non_deferrable=params["defer_all"], grace_h=params["grace"])
    )
    if params["cap"] is not None:
        builder.power.append(DirtyHourCapStage(cap_fraction=params["cap"]))


register_stage(
    StageDefinition(
        name="carbon",
        kind="gate",
        help=(
            "defer deferrable work in carbon-intense hours; optionally cap the "
            "jobs that cannot wait (cap=none disables the dirty-hour cap)"
        ),
        params=(
            StageParam(
                "cap",
                float,
                0.7,
                "power cap for jobs started in dirty hours",
                allow_none=True,
            ),
            StageParam("defer_all", bool, False, "hold even non-deferrable jobs for grace hours"),
            StageParam("grace", float, 6.0, "deferral granted to non-deferrable jobs"),
        ),
        contribute=_contribute_carbon,
    )
)
register_stage(
    StageDefinition(
        name="budget",
        kind="gate",
        help="stop starting work once the facility power budget would be exceeded",
        contribute=lambda b, p, t: b.gates.append(PowerBudgetGate()),
    )
)
register_stage(
    StageDefinition(
        name="price",
        kind="gate",
        help="defer deferrable work while electricity price exceeds a ceiling",
        params=(
            StageParam("ceiling", float, help="price ceiling in $/MWh"),
            StageParam("defer_all", bool, False, "hold even non-deferrable jobs for grace hours"),
            StageParam("grace", float, 6.0, "deferral granted to non-deferrable jobs"),
        ),
        contribute=lambda b, p, t: b.gates.append(
            PriceCeilingGate(
                p["ceiling"], defer_non_deferrable=p["defer_all"], grace_h=p["grace"]
            )
        ),
    )
)
register_stage(
    StageDefinition(
        name="renewable",
        kind="gate",
        help="defer deferrable work while the grid's renewable share is low",
        params=(
            StageParam("min_share", float, 0.3, "minimum solar+wind generation share"),
            StageParam("defer_all", bool, False, "hold even non-deferrable jobs for grace hours"),
            StageParam("grace", float, 6.0, "deferral granted to non-deferrable jobs"),
        ),
        contribute=lambda b, p, t: b.gates.append(
            RenewableShareGate(
                p["min_share"], defer_non_deferrable=p["defer_all"], grace_h=p["grace"]
            )
        ),
    )
)
register_stage(
    StageDefinition(
        name="slack",
        kind="gate",
        help="use deadline slack to ride out dirty hours (deadline-aware deferral)",
        params=(
            StageParam("margin", float, 2.0, "safety margin before the latest feasible start"),
        ),
        contribute=lambda b, p, t: b.gates.append(DeadlineSlackGate(slack_margin_h=p["margin"])),
    )
)
register_stage(
    StageDefinition(
        name="cap",
        kind="power",
        help="static power cap as a fraction of TDP, with queue exemptions",
        params=(
            StageParam("fraction", float, 0.75, "cap as a fraction of TDP"),
            StageParam(
                "exempt",
                str,
                "urgent",
                "colon-separated exempt queues ('none' disables)",
                allow_none=True,
            ),
        ),
        contribute=lambda b, p, t: b.power.append(
            StaticCapStage(cap_fraction=p["fraction"], exempt_queues=_exempt_queues(p["exempt"]))
        ),
    )
)
register_stage(
    StageDefinition(
        name="dirty-cap",
        kind="power",
        help="additionally cap jobs started during carbon-intense hours",
        params=(StageParam("fraction", float, 0.7, "cap as a fraction of TDP"),),
        contribute=lambda b, p, t: b.power.append(DirtyHourCapStage(cap_fraction=p["fraction"])),
    )
)
register_stage(
    StageDefinition(
        name="deadline-cap",
        kind="power",
        help="per-job deadline-aware caps: run each job as slow as its deadline allows",
        params=(
            StageParam("min_fraction", float, 0.5, "tightest cap considered"),
            StageParam("step", float, 0.05, "cap search increment"),
        ),
        contribute=lambda b, p, t: b.power.append(
            DeadlineSlackCapStage(min_fraction=p["min_fraction"], step_fraction=p["step"])
        ),
    )
)


def _contribute_adaptive(builder: _Builder, params: dict[str, Any], token: StageSpec) -> None:
    builder.power.append(
        AdaptiveCapStage(
            params["budget_w"],
            min_cap_fraction=params["min_fraction"],
            step_fraction=params["step"],
        )
    )


register_stage(
    StageDefinition(
        name="adaptive",
        kind="power",
        help=(
            "budget-following caps on running jobs, adjusted at every simulator "
            "tick through the lifecycle-hook API"
        ),
        params=(
            StageParam("budget_w", float, help="target IT power ceiling in watts"),
            StageParam("min_fraction", float, 0.5, "tightest cap the controller imposes"),
            StageParam("step", float, 0.05, "cap adjustment per control interval"),
        ),
        contribute=_contribute_adaptive,
    )
)
