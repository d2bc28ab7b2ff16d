"""The unified experiment API.

This package is the toolkit's front door: declare *which world* to simulate
with a :class:`ScenarioSpec` (or pick a registered one by name), open an
:class:`ExperimentSession` over it, and run any registered experiment — every
paper analysis returns the same structured :class:`ExperimentResult`.

>>> from repro.experiments import ExperimentSession
>>> session = ExperimentSession("single-year", seed=7)
>>> figures = session.run("figures")
>>> figures.scalar("fig2_correlation") < 0
True

The experiment registry also drives the ``greenhpc`` CLI: each registered
experiment automatically becomes a subcommand with shared
``--seed/--months/--site/--json`` handling.

For sweep-shaped questions ("compare N policies × M sites × K seeds"),
declare a :class:`CampaignSpec` — a base scenario, a grid over spec fields,
a grid over experiment parameters, and one or more experiments — and hand it
to :func:`run_campaign`, which fans the expanded points out across processes
(one substrate-caching session per distinct world per worker) and collects a
columnar :class:`CampaignResult`:

>>> from repro.experiments import CampaignSpec, run_campaign
>>> campaign = CampaignSpec(
...     experiments=("table1", "powercap"),
...     scenario_grid={"seed": [0, 1], "n_months": [3, 4]},
... )
>>> rows = run_campaign(campaign).rows   # 2 experiments x 4 worlds
>>> len(rows)
8

The same sweeps are available from the command line as ``greenhpc sweep``
(``--experiments``, repeatable ``--grid key=v1,v2,...``, ``--workers``,
``--json``/``--csv``).

Campaign caching and reports
----------------------------
Campaigns become *incremental* when run against a content-addressed
:class:`~repro.artifacts.ArtifactStore`: ``run_campaign(campaign,
store=...)`` serves already-computed points from disk (zero simulator
executions on an unchanged re-sweep, rows byte-identical to the cold run)
and simulates only points whose cache key — a stable hash of (scenario
spec, experiment, params, derived seed, code version) — is new.
:func:`~repro.experiments.report.campaign_report` runs a campaign through
the store and renders its comparison across every swept dimension as a
figure battery (markdown + embedded-SVG HTML).  Only the run artifacts are
stored; the report is rebuilt from them in memory.  From the command line::

    greenhpc sweep --experiments table1 --grid seed=0,1 --cache-dir ./cache
    greenhpc sweep --experiments table1 --grid seed=0,1 --cache-dir ./cache
    # second run: 0 simulated
    greenhpc report --experiments table1 --grid seed=0,1 \\
        --cache-dir ./cache --out ./report   # renders without re-simulating
"""

from .registry import (
    ExperimentDefinition,
    ExperimentParam,
    experiment,
    experiment_names,
    get_experiment,
    list_experiments,
    register_experiment,
)
from .result import ExperimentResult
from .session import ExperimentSession
from .spec import (
    GridSpec,
    ScenarioSpec,
    WorkloadSpec,
    get_scenario,
    get_site,
    list_scenarios,
    register_scenario,
    register_site,
    scenario_names,
    site_names,
)
from . import builtin as _builtin  # noqa: F401 - populates the registry on import
from .campaign import CampaignPoint, CampaignResult, CampaignSpec, run_campaign
from .report import CampaignReport, campaign_report

__all__ = [
    "CampaignPoint",
    "CampaignResult",
    "CampaignSpec",
    "CampaignReport",
    "campaign_report",
    "run_campaign",
    "ScenarioSpec",
    "WorkloadSpec",
    "GridSpec",
    "register_scenario",
    "get_scenario",
    "list_scenarios",
    "scenario_names",
    "register_site",
    "get_site",
    "site_names",
    "ExperimentResult",
    "ExperimentParam",
    "ExperimentDefinition",
    "experiment",
    "register_experiment",
    "get_experiment",
    "experiment_names",
    "list_experiments",
    "ExperimentSession",
]
