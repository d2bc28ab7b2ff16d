"""Geo-aware job routing: pluggable, composable site-selection policies.

A *router* decides, for each arriving job, which member site of a fleet
receives it.  Routers see one :class:`SiteSnapshot` per site — queue length,
free GPUs, and the site's current grid signals (carbon intensity, price,
renewable share) — and return the index of the chosen site.

Like scheduling policies (:mod:`repro.scheduler.compose`), routers are
addressable by a spec string in the same ``token('+')token`` grammar::

    round-robin
    carbon-min
    carbon-min+queue-cap(max=50)
    renewable-max+free-gpus(min=4)+queue-cap(max=100)

Tokens come in two kinds:

* **scorer** — picks among the candidate sites (``round-robin``,
  ``least-queued``, ``carbon-min``, ``price-min``, ``renewable-max``); at
  most one per spec, defaulting to ``round-robin``;
* **filter** — prunes the candidate set before scoring (``queue-cap``,
  ``carbon-cap``, ``price-cap``, ``renewable-floor``, ``free-gpus``).  When
  every site is filtered out, the filters are waived for that job (a router
  must always route) — the scorer then picks among all feasible sites.

Sites that cannot ever fit a job (``job.n_gpus`` exceeding the site's total
GPU count) are never candidates; a job too large for every member raises
:class:`~repro.errors.FleetError`.

The vocabulary is an open :class:`~repro.registry.Registry` —
:func:`register_router` adds new tokens, and :func:`make_router` resolves
any spec (or a :class:`Router` instance) everywhere a router is addressed:
:class:`~repro.fleet.FleetSpec`, the ``fleet`` experiment, campaign grids
(``--grid "router=..."``), and the CLI.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Callable, Optional, Sequence, Union

from ..errors import FleetError, SchedulingError
from ..registry import Registry
from ..scheduler.compose import PolicySpec, StageParam, StageSpec, TokenDefinition
from ..scheduler.job import Job

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..cluster.simulator import ClusterSimulator

__all__ = [
    "SiteSnapshot",
    "Router",
    "SiteScorer",
    "SiteFilter",
    "CompositeRouter",
    "RouterDefinition",
    "register_router",
    "get_router_definition",
    "router_names",
    "list_router_definitions",
    "parse_router",
    "make_router",
]


@dataclass(slots=True)
class SiteSnapshot:
    """What a router sees of one member site at a dispatch instant.

    :meth:`of` builds it from the site's live
    :class:`~repro.cluster.simulator.ClusterSimulator`: its queue and
    occupancy, and its own hourly grid signals at the dispatch hour.
    Mutable on purpose (and ``__slots__``-backed for cheap construction): the fleet
    dispatch loop bumps ``queue_length``/``dispatched`` in place as a
    window's arrivals land, so routers see in-flight dispatches without a
    rebuild per job.  ``dispatched`` is the site's cumulative dispatch count
    over the whole run — the hook for balance-style custom routers
    (``score = site.dispatched`` evens out assignment without O(n) replays
    of the assignment table).
    """

    index: int
    name: str
    queue_length: int
    running_jobs: int
    free_gpus: int
    total_gpus: int
    it_power_w: float
    carbon_intensity_g_per_kwh: Optional[float] = None
    price_per_mwh: Optional[float] = None
    renewable_share: Optional[float] = None
    dispatched: int = 0

    @classmethod
    def of(
        cls, simulator: "ClusterSimulator", index: int, name: str, now_h: float
    ) -> "SiteSnapshot":
        """The routing view of a live ``simulator`` at ``now_h``.

        Fleet sites (stepped in-process or on a worker) and the serve
        daemon's live sessions are all seen through this one builder.
        ``dispatched`` is left at 0: only the fleet coordinator knows it.
        """
        context = simulator.scheduling_context(now_h)
        return cls(
            index=index,
            name=name,
            queue_length=simulator.n_pending,
            running_jobs=simulator.n_running,
            free_gpus=simulator.cluster.n_free_gpus,
            total_gpus=simulator.cluster.total_gpus,
            it_power_w=simulator.current_it_power_w,
            carbon_intensity_g_per_kwh=context.carbon_intensity_g_per_kwh,
            price_per_mwh=context.price_per_mwh,
            renewable_share=context.renewable_share,
        )


class Router:
    """Base class: route each arriving job to a member site by index."""

    name: str = "router"

    def begin_fleet(self, n_sites: int) -> None:
        """Reset per-run state; called once before a fleet run starts."""

    def select(self, job: Job, sites: Sequence[SiteSnapshot], now_h: float) -> int:
        """The index of the site that should receive ``job``."""
        raise NotImplementedError

    def __str__(self) -> str:  # pragma: no cover - trivial
        return self.name


class SiteScorer:
    """A scorer token: rank candidate sites, lowest (score, index) wins."""

    name: str = "scorer"

    def begin_fleet(self, n_sites: int) -> None:
        """Reset per-run state; called once before a fleet run starts."""

    def score(self, job: Job, site: SiteSnapshot, now_h: float) -> float:
        raise NotImplementedError

    def choose(self, job: Job, candidates: Sequence[SiteSnapshot], now_h: float) -> SiteSnapshot:
        """The winning candidate (minimum score; ties go to the lowest index)."""
        return min(candidates, key=lambda site: (self.score(job, site, now_h), site.index))


class SiteFilter:
    """A filter token: prune candidate sites before scoring."""

    name: str = "filter"

    def admits(self, job: Job, site: SiteSnapshot, now_h: float) -> bool:
        raise NotImplementedError


# ---------------------------------------------------------------------------
# Built-in scorers
# ---------------------------------------------------------------------------


def _signal_or_inf(value: Optional[float]) -> float:
    """Missing grid signals sort last (sites without a grid are avoided)."""
    return value if value is not None else float("inf")


class RoundRobinScorer(SiteScorer):
    """Cycle through the sites, skipping non-candidates without losing turn order."""

    name = "round-robin"

    def __init__(self) -> None:
        self._next = 0
        self._n_sites = 1

    def begin_fleet(self, n_sites: int) -> None:
        self._next = 0
        self._n_sites = max(n_sites, 1)

    def choose(self, job: Job, candidates: Sequence[SiteSnapshot], now_h: float) -> SiteSnapshot:
        chosen = min(
            candidates, key=lambda site: (site.index - self._next) % self._n_sites
        )
        self._next = (chosen.index + 1) % self._n_sites
        return chosen


class LeastQueuedScorer(SiteScorer):
    name = "least-queued"

    def score(self, job: Job, site: SiteSnapshot, now_h: float) -> float:
        return float(site.queue_length)


class CarbonMinScorer(SiteScorer):
    name = "carbon-min"

    def score(self, job: Job, site: SiteSnapshot, now_h: float) -> float:
        return _signal_or_inf(site.carbon_intensity_g_per_kwh)


class PriceMinScorer(SiteScorer):
    name = "price-min"

    def score(self, job: Job, site: SiteSnapshot, now_h: float) -> float:
        return _signal_or_inf(site.price_per_mwh)


class RenewableMaxScorer(SiteScorer):
    name = "renewable-max"

    def score(self, job: Job, site: SiteSnapshot, now_h: float) -> float:
        share = site.renewable_share if site.renewable_share is not None else 0.0
        return -share


# ---------------------------------------------------------------------------
# Built-in filters
# ---------------------------------------------------------------------------


class QueueCapFilter(SiteFilter):
    name = "queue-cap"

    def __init__(self, max_queue: int) -> None:
        self.max_queue = int(max_queue)

    def admits(self, job: Job, site: SiteSnapshot, now_h: float) -> bool:
        return site.queue_length <= self.max_queue


class CarbonCapFilter(SiteFilter):
    name = "carbon-cap"

    def __init__(self, max_intensity: float) -> None:
        self.max_intensity = float(max_intensity)

    def admits(self, job: Job, site: SiteSnapshot, now_h: float) -> bool:
        signal = site.carbon_intensity_g_per_kwh
        return signal is None or signal <= self.max_intensity

class PriceCapFilter(SiteFilter):
    name = "price-cap"

    def __init__(self, max_price: float) -> None:
        self.max_price = float(max_price)

    def admits(self, job: Job, site: SiteSnapshot, now_h: float) -> bool:
        signal = site.price_per_mwh
        return signal is None or signal <= self.max_price


class RenewableFloorFilter(SiteFilter):
    name = "renewable-floor"

    def __init__(self, min_share: float) -> None:
        self.min_share = float(min_share)

    def admits(self, job: Job, site: SiteSnapshot, now_h: float) -> bool:
        signal = site.renewable_share
        return signal is not None and signal >= self.min_share


class FreeGpusFilter(SiteFilter):
    name = "free-gpus"

    def __init__(self, min_free: int) -> None:
        self.min_free = int(min_free)

    def admits(self, job: Job, site: SiteSnapshot, now_h: float) -> bool:
        return site.free_gpus >= self.min_free


# ---------------------------------------------------------------------------
# Composition
# ---------------------------------------------------------------------------


class CompositeRouter(Router):
    """Filters prune the candidate set; one scorer picks the winner.

    Candidates start as the sites that can ever fit the job (total GPUs);
    filters then prune in spec order.  An over-constrained filter chain (no
    site admitted) is waived for that job — a router must always route — and
    the scorer decides among all feasible sites.
    """

    def __init__(
        self,
        scorer: SiteScorer,
        filters: Sequence[SiteFilter] = (),
        *,
        name: Optional[str] = None,
    ) -> None:
        self.scorer = scorer
        self.filters = tuple(filters)
        self.name = name if name is not None else scorer.name

    def begin_fleet(self, n_sites: int) -> None:
        self.scorer.begin_fleet(n_sites)

    def select(self, job: Job, sites: Sequence[SiteSnapshot], now_h: float) -> int:
        feasible = [site for site in sites if site.total_gpus >= job.n_gpus]
        if not feasible:
            largest = max((site.total_gpus for site in sites), default=0)
            raise FleetError(
                f"job {job.job_id!r} needs {job.n_gpus} GPUs but the largest fleet "
                f"member has {largest}"
            )
        candidates = feasible
        for site_filter in self.filters:
            admitted = [
                site for site in candidates if site_filter.admits(job, site, now_h)
            ]
            candidates = admitted
            if not candidates:
                break
        if not candidates:
            candidates = feasible
        return self.scorer.choose(job, candidates, now_h).index


# ---------------------------------------------------------------------------
# Registry and grammar
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class RouterDefinition(TokenDefinition):
    """A registered router token: metadata plus a factory for its stage.

    ``kind`` is ``"scorer"`` or ``"filter"``; ``build`` receives the resolved
    parameter dictionary and returns the corresponding stage instance.
    Parameters resolve through the
    :class:`~repro.scheduler.compose.TokenDefinition` shared with
    scheduling-stage tokens, so defaults, ``none`` handling and type coercion
    behave exactly alike; its errors are :class:`FleetError` and name the
    router token.
    """

    error = FleetError
    noun = "router token"

    name: str
    kind: str  # "scorer" | "filter"
    help: str
    params: tuple[StageParam, ...] = ()
    build: Callable[[dict[str, Any]], Union[SiteScorer, SiteFilter]] = field(
        default=lambda params: RoundRobinScorer(), repr=False
    )


_ROUTERS: Registry[RouterDefinition] = Registry("router token", "tokens", FleetError)


def register_router(definition: RouterDefinition, *, overwrite: bool = False) -> RouterDefinition:
    """Register a router token; duplicate names raise unless ``overwrite``."""
    if definition.kind not in ("scorer", "filter"):
        raise FleetError(f"unknown router token kind {definition.kind!r}")
    return _ROUTERS.register(definition.name, definition, overwrite=overwrite)


#: Look up a registered router token by name.
get_router_definition = _ROUTERS.get
#: Names of all registered router tokens, in registration order.
router_names = _ROUTERS.names
#: Iterate over registered router definitions, in registration order.
list_router_definitions = _ROUTERS.values


def parse_router(text: str) -> tuple[StageSpec, ...]:
    """Parse a router spec into stage tokens (shared ``+``/paren grammar).

    Raises :class:`FleetError` naming the offending token; every token must
    be registered, and at most one may be a scorer.
    """
    if isinstance(text, Router):  # pragma: no cover - defensive convenience
        raise FleetError("parse_router expects spec text; pass Router instances to make_router")
    try:
        tokens = PolicySpec.parse(text).stages
    except SchedulingError as exc:
        raise FleetError(
            str(exc).replace("policy spec", "router spec").replace("policy token", "router token")
        ) from None
    scorers = []
    for token in tokens:
        definition = get_router_definition(token.name)
        if definition.kind == "scorer":
            scorers.append(token.name)
    if len(scorers) > 1:
        raise FleetError(
            f"router spec {text!r} names {len(scorers)} scorers {scorers}; at most one "
            "scorer is allowed (filters compose freely)"
        )
    return tokens


def make_router(spec: Union[str, Router]) -> Router:
    """Resolve a router spec string (or pass through a :class:`Router`).

    The returned router is freshly built — stateful scorers such as
    ``round-robin`` do not share state between fleet runs resolved from the
    same spec string.
    """
    if isinstance(spec, Router):
        return spec
    tokens = parse_router(spec)
    scorer: Optional[SiteScorer] = None
    filters: list[SiteFilter] = []
    for token in tokens:
        definition = get_router_definition(token.name)
        stage = definition.build(definition.resolve_params(token))
        if definition.kind == "scorer":
            scorer = stage
        else:
            filters.append(stage)
    if scorer is None:
        scorer = RoundRobinScorer()
    canonical = "+".join(str(token) for token in tokens)
    return CompositeRouter(scorer, filters, name=canonical)


# ---------------------------------------------------------------------------
# Built-in vocabulary
# ---------------------------------------------------------------------------

register_router(
    RouterDefinition(
        name="round-robin",
        kind="scorer",
        help="cycle dispatches through the member sites in index order",
        build=lambda params: RoundRobinScorer(),
    )
)
register_router(
    RouterDefinition(
        name="least-queued",
        kind="scorer",
        help="send each job to the site with the shortest pending queue",
        build=lambda params: LeastQueuedScorer(),
    )
)
register_router(
    RouterDefinition(
        name="carbon-min",
        kind="scorer",
        help="send each job to the site with the lowest current carbon intensity",
        build=lambda params: CarbonMinScorer(),
    )
)
register_router(
    RouterDefinition(
        name="price-min",
        kind="scorer",
        help="send each job to the site with the lowest current electricity price",
        build=lambda params: PriceMinScorer(),
    )
)
register_router(
    RouterDefinition(
        name="renewable-max",
        kind="scorer",
        help="send each job to the site with the highest current renewable share",
        build=lambda params: RenewableMaxScorer(),
    )
)
register_router(
    RouterDefinition(
        name="queue-cap",
        kind="filter",
        help="exclude sites whose pending queue exceeds a maximum length",
        params=(StageParam("max", int, 50, "largest admissible queue length"),),
        build=lambda params: QueueCapFilter(params["max"]),
    )
)
register_router(
    RouterDefinition(
        name="carbon-cap",
        kind="filter",
        help="exclude sites whose current carbon intensity exceeds a ceiling",
        params=(StageParam("max", float, help="carbon-intensity ceiling in g/kWh"),),
        build=lambda params: CarbonCapFilter(params["max"]),
    )
)
register_router(
    RouterDefinition(
        name="price-cap",
        kind="filter",
        help="exclude sites whose current electricity price exceeds a ceiling",
        params=(StageParam("max", float, help="price ceiling in $/MWh"),),
        build=lambda params: PriceCapFilter(params["max"]),
    )
)
register_router(
    RouterDefinition(
        name="renewable-floor",
        kind="filter",
        help="exclude sites whose current renewable share is below a floor",
        params=(StageParam("min", float, 0.3, "minimum solar+wind share"),),
        build=lambda params: RenewableFloorFilter(params["min"]),
    )
)
register_router(
    RouterDefinition(
        name="free-gpus",
        kind="filter",
        help="exclude sites with fewer than a minimum number of free GPUs",
        params=(StageParam("min", int, 1, "minimum free GPUs at dispatch time"),),
        build=lambda params: FreeGpusFilter(params["min"]),
    )
)
