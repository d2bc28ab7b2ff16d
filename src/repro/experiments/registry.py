"""The experiment registry.

Every paper analysis is registered here as an :class:`ExperimentDefinition`:
a runner callable ``(session, **params) -> ExperimentResult`` plus declared,
typed parameters.  The registry is the single source the CLI generates its
subcommands from, so registering a new experiment automatically gives it a
``greenhpc <name>`` surface with ``--seed/--months/--site/--json`` handling
and per-parameter flags — no CLI edits required.  The table is a
:class:`~repro.registry.Registry`.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Any, Callable, Optional, TYPE_CHECKING

from ..errors import ConfigurationError
from ..obs.profile import RunProfile
from ..obs.recorder import get_recorder
from ..registry import Registry

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .result import ExperimentResult
    from .session import ExperimentSession

__all__ = [
    "ExperimentParam",
    "ExperimentDefinition",
    "experiment",
    "register_experiment",
    "get_experiment",
    "experiment_names",
    "list_experiments",
]


@dataclass(frozen=True)
class ExperimentParam:
    """One declared, typed parameter of an experiment.

    Attributes
    ----------
    name:
        Python-identifier parameter name (also the argparse dest).
    type:
        Callable coercing a CLI string to the parameter's type.
    default:
        Value used when the parameter is not supplied.
    help:
        One-line description for ``--help``.
    choices:
        Optional closed set of allowed values.
    """

    name: str
    type: Callable[[str], Any]
    default: Any
    help: str = ""
    choices: Optional[tuple[Any, ...]] = None

    def __post_init__(self) -> None:
        if not self.name.isidentifier():
            raise ConfigurationError(f"parameter name must be an identifier, got {self.name!r}")

    @property
    def cli_flag(self) -> str:
        """The generated command-line flag (underscores become dashes)."""
        return "--" + self.name.replace("_", "-")

    def validate(self, value: Any) -> Any:
        """Check ``value`` against ``choices`` (returns it for chaining)."""
        if self.choices is not None and value not in self.choices:
            raise ConfigurationError(
                f"parameter {self.name!r} must be one of {list(self.choices)}, got {value!r}"
            )
        return value


@dataclass(frozen=True)
class ExperimentDefinition:
    """A registered experiment: runner + metadata + declared parameters."""

    name: str
    runner: Callable[..., "ExperimentResult"]
    help: str = ""
    params: tuple[ExperimentParam, ...] = ()
    min_months: int = 1

    def resolve_params(self, **overrides: Any) -> dict[str, Any]:
        """Merge ``overrides`` over declared defaults, rejecting unknown names."""
        declared = {p.name: p for p in self.params}
        unknown = set(overrides) - set(declared)
        if unknown:
            raise ConfigurationError(
                f"unknown parameter(s) {sorted(unknown)} for experiment {self.name!r}; "
                f"declared: {sorted(declared)}"
            )
        resolved = {name: param.default for name, param in declared.items()}
        for name, value in overrides.items():
            resolved[name] = declared[name].validate(value)
        return resolved

    def run(self, session: "ExperimentSession", **overrides: Any) -> "ExperimentResult":
        """Run the experiment on ``session`` with resolved parameters.

        Every run is wrapped in an ``experiment.<name>`` span.  When tracing
        is enabled, the spans recorded during the run are condensed into a
        :class:`~repro.obs.profile.RunProfile` and attached to the returned
        result; with tracing off the result is bit-identical to an untraced
        build (``profile=None``, no clocks read).
        """
        if session.spec.n_months < self.min_months:
            raise ConfigurationError(
                f"experiment {self.name!r} needs a horizon of at least "
                f"{self.min_months} months, got {session.spec.n_months}"
            )
        recorder = get_recorder()
        if not recorder.enabled:
            return self.runner(session, **self.resolve_params(**overrides))
        mark = recorder.mark()
        with recorder.span(
            "experiment.run", experiment=self.name, scenario=session.spec.name
        ) as run_span:
            result = self.runner(session, **self.resolve_params(**overrides))
        profile = RunProfile.from_spans(
            recorder.spans_since(mark),
            total_s=run_span.record.wall_s,
            metrics=recorder.metrics.snapshot(),
        )
        return dataclasses.replace(result, profile=profile)


_EXPERIMENTS: Registry[ExperimentDefinition] = Registry(
    "experiment", "experiments", ConfigurationError
)


def register_experiment(definition: ExperimentDefinition, *, overwrite: bool = False) -> ExperimentDefinition:
    """Register ``definition`` under its name; returns it for chaining."""
    return _EXPERIMENTS.register(definition.name, definition, overwrite=overwrite)


def experiment(
    name: str,
    *,
    help: str = "",
    params: tuple[ExperimentParam, ...] = (),
    min_months: int = 1,
) -> Callable[[Callable[..., "ExperimentResult"]], Callable[..., "ExperimentResult"]]:
    """Decorator registering a runner as the experiment ``name``."""

    def decorate(runner: Callable[..., "ExperimentResult"]) -> Callable[..., "ExperimentResult"]:
        register_experiment(
            ExperimentDefinition(
                name=name, runner=runner, help=help, params=tuple(params), min_months=min_months
            )
        )
        return runner

    return decorate


#: Look up a registered experiment by name.
get_experiment = _EXPERIMENTS.get
#: Names of all registered experiments, in registration order.
experiment_names = _EXPERIMENTS.names
#: Iterate over the registered experiments, in registration order.
list_experiments = _EXPERIMENTS.values
