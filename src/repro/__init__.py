"""repro — an energy- and carbon-aware HPC/datacenter toolkit.

A production-style reproduction of *"A Green(er) World for A.I."*
(Zhao et al., IEEE IPDPSW 2022, DOI 10.1109/IPDPSW55747.2022.00126): the
optimization framework, mechanisms, and empirical analyses the paper sketches,
built on simulated-but-calibrated substrates (GPU telemetry, cluster,
New-England-like grid, site weather, conference-driven demand).

Subpackages
-----------
``repro.core``
    The paper's contribution: Eq. 1 datacenter optimization, Eq. 2 per-user
    decomposition, the two-part power-cap mechanism, adverse selection,
    load shifting, deadline restructuring, opportunity costs, stress tests.
``repro.telemetry`` / ``repro.cluster`` / ``repro.scheduler``
    Simulated NVML power telemetry, the cluster + discrete-event simulator,
    and the scheduling policies (FIFO/backfill/energy/carbon/deadline-aware).
``repro.grid`` / ``repro.climate`` / ``repro.workloads``
    The environment ``ε``: fuel mix, carbon intensity, prices, storage,
    weather and climate scenarios, training/inference/trace/deadline workloads.
``repro.tracking`` / ``repro.forecasting`` / ``repro.analysis``
    Experiment energy/carbon tracking, forecasting models, and the
    figure/table builders (Fig. 1-5, Table I).
``repro.parallel``
    Process-pool parameter sweeps.
``repro.artifacts``
    Content-addressed artifact caching: an on-disk :class:`~repro.artifacts.
    ArtifactStore` keyed by stable hashes of (scenario spec, experiment,
    params, derived seed, code version), the persistence layer behind
    incremental campaigns and the campaign reports rendered from it.
``repro.experiments``
    The unified experiment API: declarative scenarios, the experiment
    registry, the substrate-caching session behind the ``greenhpc`` CLI,
    and the campaign layer for declarative multi-scenario sweeps.
``repro.fleet``
    Multi-site fleet co-simulation: declarative :class:`~repro.fleet.
    FleetSpec` fleets of registered scenarios relocated across sites
    (``"supercloud-small@phoenix-az"``), per-site cluster simulators stepped
    in hourly lockstep, and geo-aware job routing through an open, composable
    router registry (``round-robin``, ``least-queued``, ``carbon-min``,
    ``price-min``, ``renewable-max``, filters like ``queue-cap(max=50)``).
``repro.serve``
    The long-running simulation service: a ``greenhpc serve`` HTTP daemon
    holding warm simulated worlds, with mid-run job submission, bounded
    ``advance`` requests, NDJSON per-tick telemetry streaming, what-if
    routing queries across live sessions, and periodic checkpoints that
    journal each session's inputs and restore by replaying them
    (:mod:`repro.serve.checkpoint`).
``repro.obs``
    Stdlib tracing and metrics: an ambient
    :class:`~repro.obs.TraceRecorder` of nested spans, a
    :class:`~repro.obs.MetricsRegistry` of counters/gauges/histograms, and
    exporters (Chrome ``trace_event`` JSON, NDJSON, Prometheus text) behind
    ``--trace-out``/``greenhpc obs`` and the daemon's ``GET /metrics``.

Quick start
-----------
Open an :class:`~repro.experiments.ExperimentSession` over a scenario (a
registered name, or a custom :class:`~repro.experiments.ScenarioSpec`) and
run any registered experiment; every analysis returns a structured
:class:`~repro.experiments.ExperimentResult`:

>>> from repro import ExperimentSession
>>> session = ExperimentSession("default")        # the paper's 2020-2021 world
>>> figures = session.run("figures")
>>> figures.scalar("fig2_correlation") < 0        # consumption vs. green share
True
>>> shifting = session.run("shifting", signal="price")   # substrates reused
>>> sorted(shifting.to_dict())
['experiment', 'notes', 'params', 'rows', 'scalars', 'spec']

The same experiments are available from the command line (one subcommand per
registered experiment, with shared ``--seed/--months/--site/--workers/--json``
flags)::

    greenhpc figures --months 12 --json

Job-level runs go through the same session: ``session.simulate_policy(p)``
runs one (composed) scheduling policy and ``session.optimize_operations()``
runs the Eq. 1 search.  Both, like the fleet's member sites and the serve
daemon's sessions, build their simulator with
:func:`repro.core.build_simulator`, the one construction path.

Campaigns
---------
Sweep-shaped questions — power-cap fractions, stress batteries, "compare N
policies × M sites × K seeds" — go through the campaign layer: declare a
:class:`~repro.experiments.CampaignSpec` (base scenario + a grid over spec
fields + a grid over experiment parameters + the experiments to run) and
:func:`~repro.experiments.run_campaign` expands it into reproducibly seeded
points (identical whether executed serially or across processes), reuses one
substrate-caching session per distinct world per worker, and collects a
columnar :class:`~repro.experiments.CampaignResult` with ``rows``,
``group_by``/``summarize`` and ``to_json``/``to_csv``:

>>> from repro.experiments import CampaignSpec, run_campaign
>>> campaign = CampaignSpec(
...     experiments=("table1", "powercap"),
...     scenario_grid={"seed": [0, 1], "n_months": [3, 4]},
... )
>>> len(run_campaign(campaign).rows)
8

From the command line::

    greenhpc sweep --experiments table1,powercap \\
        --grid seed=0,1 --grid n_months=3,4 --workers 2 --json

Campaigns re-run *incrementally* against a content-addressed artifact
store: ``run_campaign(campaign, store=ArtifactStore("./cache"))`` (or
``greenhpc sweep --cache-dir ./cache``) serves unchanged points from disk
— an unchanged re-sweep performs zero simulator executions and returns
byte-identical rows — and :func:`~repro.experiments.campaign_report`
renders a browsable figure battery (``greenhpc report``) from those run
artifacts without re-simulating anything.

Fleets
------
Multi-site questions — "what if this facility were three facilities routing
work to follow sun, wind and cheap/clean power?" — go through
:mod:`repro.fleet`: a :class:`~repro.fleet.FleetSpec` names member sites
(``"supercloud-small@phoenix-az"`` relocates a registered scenario to a
registered site, adopting that region's grid profile) and a routing policy;
the :class:`~repro.fleet.FleetSimulator` co-simulates the sites in hourly
lockstep and dispatches each arriving job through the router.  Routers
compose in the same spec grammar as scheduling policies
(``"carbon-min+queue-cap(max=50)"``), the ``fleet`` experiment makes
``router`` a sweepable campaign lever, and fleet totals equal the sum of the
member-site totals bit-for-bit::

    greenhpc fleet --router "round-robin,carbon-min" --json
    greenhpc sweep --experiments fleet \\
        --grid "router=round-robin,carbon-min,renewable-max"

Serving
-------
Everything above is batch: build a world, run it, exit.  :mod:`repro.serve`
keeps worlds *warm* instead — ``greenhpc serve`` starts a daemon that holds
any number of live :class:`~repro.cluster.simulator.ClusterSimulator`
sessions (concurrent sessions over the same scenario share one cached
substrate build), accepts job submissions and ``advance-to`` requests over a
JSON/HTTP API, streams per-tick power telemetry as NDJSON, answers what-if
routing queries with the fleet's router grammar, and checkpoints every
session's inputs (a journal of its client jobs) to disk so month-long
co-simulations survive a restart bit-identically::

    greenhpc serve --port 8714 --checkpoint-dir ./ckpt
    python examples/serve_client.py      # submit, stream, kill, restore

Observability
-------------
Every layer above is instrumented against :mod:`repro.obs`.  Tracing is off
by default — the ambient recorder is a shared no-op whose spans cost no
clock reads and no allocations, and every pinned-parity suite runs
bit-identically either way.  Enable it per run with ``--trace-out``::

    greenhpc fleet --workers 4 --trace-out fleet.json   # Chrome trace_event
    greenhpc obs fleet.json                             # per-phase digest

The exported ``*.json`` loads directly in Perfetto (https://ui.perfetto.dev)
or ``chrome://tracing`` with one timeline per worker process; ``*.ndjson``
writes a greppable event log instead.  Programmatic use is one context
manager — spans land in the recorder you install::

    from repro.obs import TraceRecorder, recording

    rec = TraceRecorder()
    with recording(rec):
        session.run("fleet")

Traced runs also attach a compact :class:`~repro.obs.RunProfile` (per-phase
totals plus a metrics snapshot) to experiment/fleet/campaign results, and
the serve daemon exposes a Prometheus text endpoint at ``GET /metrics``
(request counters by method/route/status, per-session uptime/progress
gauges) ready for scraping.
"""

from .artifacts import ArtifactStore
from .config import FacilityConfig, SiteConfig
from .errors import GreenHPCError
from .experiments import (
    CampaignReport,
    CampaignResult,
    CampaignSpec,
    ExperimentResult,
    ExperimentSession,
    ScenarioSpec,
    campaign_report,
    get_scenario,
    list_experiments,
    list_scenarios,
    register_scenario,
    run_campaign,
)
from .fleet import FleetResult, FleetSimulator, FleetSpec, get_fleet, list_fleets
from .timeutils import SimulationCalendar

def _detect_version() -> str:
    """The package version, from installed metadata or the source checkout.

    ``pyproject.toml`` is the single authority: installed distributions
    expose it through ``importlib.metadata``; a source checkout run via
    ``PYTHONPATH=src`` falls back to parsing the file two levels up.
    """
    from importlib import metadata

    try:
        return metadata.version("repro-greenhpc")
    except metadata.PackageNotFoundError:
        pass
    import pathlib
    import re

    pyproject = pathlib.Path(__file__).resolve().parent.parent.parent / "pyproject.toml"
    try:
        match = re.search(
            r"^version\s*=\s*\"([^\"]+)\"", pyproject.read_text(), re.MULTILINE
        )
    except OSError:
        match = None
    return match.group(1) if match else "0+unknown"


__version__ = _detect_version()

#: Citation of the reproduced paper.
PAPER_REFERENCE = (
    "D. Zhao, N. C. Frey, J. McDonald, M. Hubbell, D. Bestor, M. Jones, A. Prout, "
    "V. Gadepally, S. Samsi, 'A Green(er) World for A.I.', 2022 IEEE International "
    "Parallel and Distributed Processing Symposium Workshops (IPDPSW), "
    "DOI 10.1109/IPDPSW55747.2022.00126"
)

__all__ = [
    "__version__",
    "PAPER_REFERENCE",
    "GreenHPCError",
    "FacilityConfig",
    "SiteConfig",
    "SimulationCalendar",
    "ExperimentSession",
    "ExperimentResult",
    "ScenarioSpec",
    "CampaignSpec",
    "CampaignResult",
    "CampaignReport",
    "ArtifactStore",
    "campaign_report",
    "run_campaign",
    "register_scenario",
    "get_scenario",
    "list_scenarios",
    "list_experiments",
    "FleetSpec",
    "FleetSimulator",
    "FleetResult",
    "get_fleet",
    "list_fleets",
]
