"""Multi-site fleet co-simulation with geo-aware job routing.

Real green-computing operators do not run one datacenter: they route work
*across* sites to follow sun, wind and cheap/clean power.  This package adds
that dimension to the toolkit:

* :mod:`~repro.fleet.spec` — the declarative :class:`FleetSpec` (N member
  sites, each an ordinary scenario — the ``scenario@site`` shorthand
  relocates a registered scenario to a registered site, adopting the target
  region's grid profile) plus the named fleet registry.
* :mod:`~repro.fleet.routing` — pluggable routing policies in an open
  registry sharing the ``+``/parenthesis spec grammar of
  :mod:`repro.scheduler.compose`: scorers (``round-robin``,
  ``least-queued``, ``carbon-min``, ``price-min``, ``renewable-max``)
  composed with filters (``queue-cap(max=50)``, ``carbon-cap``,
  ``price-cap``, ``renewable-floor``, ``free-gpus``).
* :mod:`~repro.fleet.simulator` — the :class:`FleetSimulator`, stepping one
  :class:`~repro.cluster.ClusterSimulator` per site in hourly lockstep and
  dispatching each arriving job of the shared workload through the router.
* :mod:`~repro.fleet.parallel` — the process-parallel stepping backend: a
  :class:`FleetWorkerPool` hosts the per-site simulators on worker processes
  behind a pipe protocol while routing stays in the coordinator.
* :mod:`~repro.fleet.result` — the :class:`FleetResult`: per-site results,
  the job→site assignment table, the :class:`FleetStepTimings` breakdown,
  and fleet totals that equal the sum of the member sites bit-for-bit.

Quick start::

    >>> from repro.fleet import FleetSimulator
    >>> result = FleetSimulator(
    ...     "tri-site-small", router="carbon-min+queue-cap(max=50)"
    ... ).run(n_jobs=120)                                   # doctest: +SKIP
    >>> result.dispatch_counts()                            # doctest: +SKIP

A one-site fleet reproduces the single-site
:class:`~repro.experiments.ExperimentSession` results bit-identically, and
the ``fleet`` experiment makes ``router`` a sweepable campaign lever::

    greenhpc fleet --router "round-robin,carbon-min" --json
    greenhpc sweep --experiments fleet --grid "router=round-robin,carbon-min,renewable-max"

Scaling guide — when to step in parallel
----------------------------------------

``FleetSimulator(..., parallel=ParallelConfig(n_workers=N))`` (the CLI's
``--workers`` / ``GREENHPC_WORKERS``) moves the per-site event loops onto
worker processes.  Results are **bit-identical** to serial stepping in
either mode — routing never leaves the coordinator — so the only question
is wall-clock:

* The steady-state IPC cost is two pipe messages down and one up, per
  worker, per hourly window (a routed batch plus a pipelined ``advance``),
  roughly a tenth of a millisecond each; worker start-up is a ``fork`` plus
  one build acknowledgement, and full results ship once, at ``finalize``.
* Parallel stepping wins when per-window simulator work dominates that
  exchange: big facilities (``supercloud-medium`` and up, e.g. the
  ``quad-climate-medium`` speedup fleet of the scale benchmarks), dense
  traces, or many members (``deca-continental-*``, ``duo-xlarge``).
* Keep the serial default for small fleets of small sites — a 3x
  ``supercloud-small`` week steps in well under a second.  Campaign sweeps
  always step their ``fleet`` points serially: a campaign fans out across
  its points, never within one.
"""

from .parallel import (
    FleetWorkerPool,
    SiteFinal,
    SitePayload,
    fleet_start_method,
)
from .result import FleetResult, FleetStepTimings, JobAssignment
from .routing import (
    CompositeRouter,
    Router,
    RouterDefinition,
    SiteFilter,
    SiteScorer,
    SiteSnapshot,
    get_router_definition,
    list_router_definitions,
    make_router,
    parse_router,
    register_router,
    router_names,
)
from .simulator import FleetSimulator
from .spec import (
    REGION_GRIDS,
    FleetSpec,
    fleet_names,
    get_fleet,
    list_fleets,
    register_fleet,
    resolve_member,
)

__all__ = [
    "FleetSpec",
    "REGION_GRIDS",
    "resolve_member",
    "register_fleet",
    "get_fleet",
    "fleet_names",
    "list_fleets",
    "Router",
    "SiteScorer",
    "SiteFilter",
    "SiteSnapshot",
    "CompositeRouter",
    "RouterDefinition",
    "register_router",
    "get_router_definition",
    "router_names",
    "list_router_definitions",
    "parse_router",
    "make_router",
    "FleetSimulator",
    "FleetWorkerPool",
    "SitePayload",
    "SiteFinal",
    "fleet_start_method",
    "FleetResult",
    "FleetStepTimings",
    "JobAssignment",
]
