"""Declarative multi-scenario campaigns over the experiment registry.

A :class:`CampaignSpec` describes a whole *sweep* of experiment runs in one
object: a base :class:`~repro.experiments.spec.ScenarioSpec`, a grid over
spec fields (``seed``, ``site``, ``n_months``, ...), a grid over experiment
parameters, and one or more registered experiment names.  :meth:`CampaignSpec.
expand` turns that description into an ordered list of
:class:`CampaignPoint`\\ s — grid combination ``i`` (in product order) is
seeded with ``derive_seed(seed, "sweep", i)``, so the points (and therefore
every row of the output) are identical whether the campaign runs serially
or across processes.

:func:`run_campaign` executes the points with
:func:`~repro.parallel.pool.map_parallel`, handing it the points grouped by
scenario spec.  Each worker process keeps one
:class:`~repro.experiments.session.ExperimentSession` per distinct scenario
spec, so the expensive substrates (weather, load trace, grid series) are
built once per world per worker and shared by every experiment/parameter
point that runs in it — the same economy the session gives a single-process
multi-analysis run.  Results are collected into a columnar
:class:`CampaignResult` with flat ``rows``, ``group_by``/``summarize``
aggregation and ``to_json``/``to_csv`` export.

Campaign caching
----------------
``run_campaign(campaign, store=ArtifactStore(...))`` makes re-runs
incremental: before dispatching any point, the driver consults the
content-addressed store (:mod:`repro.artifacts`) under each point's
:func:`~repro.artifacts.keys.run_key` — a stable hash of (scenario spec,
experiment, resolved params, derived seed, code version).  Hits skip the
simulation entirely; misses run and are persisted, so an unchanged re-sweep
performs **zero** simulator executions and returns rows byte-identical to
the cold run (cached and fresh results alike are normalized through the
stored JSON form).  Editing one grid value, one experiment parameter, or
upgrading the package changes only the affected keys, so only that
subgraph reruns.  Hit/miss counts surface as
:attr:`CampaignResult.cache_hits` / :attr:`CampaignResult.cache_misses`,
and the ``greenhpc sweep --cache-dir`` flag wires the same store through
the CLI.  :func:`~repro.experiments.report.campaign_report` renders a
campaign's report from the same run artifacts.

>>> from repro.experiments import CampaignSpec, run_campaign
>>> campaign = CampaignSpec(
...     experiments=("table1", "powercap"),
...     scenario_grid={"seed": [0, 1], "n_months": [3, 4]},
... )
>>> result = run_campaign(campaign)            # doctest: +SKIP
>>> result.summarize("experiment")             # doctest: +SKIP

Because experiment parameters are ordinary grid dimensions, the composable
policy space sweeps directly: a ``param_grid`` over the ``schedule``
experiment's ``policy`` parameter enumerates pipeline spec strings
(``{"policy": ["backfill", "backfill+carbon(cap=0.7)+budget", ...]}``) —
see ``examples/policy_composition.py``.
"""

from __future__ import annotations

import csv
import functools
import io
import itertools
import json
import math
from dataclasses import dataclass, field, fields
from typing import Any, Iterable, Mapping, Optional, Sequence, Union

from ..artifacts.keys import run_key
from ..artifacts.store import ArtifactStore
from ..config import config_to_jsonable
from ..errors import ArtifactError, ConfigurationError, DataError, SchedulingError
from ..obs.profile import RunProfile
from ..obs.recorder import get_recorder
from ..parallel.pool import ParallelConfig, map_parallel
from ..rng import derive_seed
from ..scheduler.compose import split_top_level
from .registry import get_experiment
from .result import ExperimentResult
from .session import ExperimentSession
from .spec import ScenarioSpec, get_scenario, get_site

__all__ = [
    "CampaignPoint",
    "CampaignSpec",
    "CampaignResult",
    "run_campaign",
    "result_to_payload",
    "result_from_payload",
    "split_value_list",
]


def split_value_list(raw: str, what: str = "value list") -> tuple[str, ...]:
    """Parse a non-empty comma-separated value list, paren-aware.

    The shared splitting rule for every comma-separated grid/list surface
    (``greenhpc sweep --grid key=v1,v2``, ``--experiments``, the ``fleet``
    experiment's ``router`` list, the ``optimize`` experiment's policies):
    commas inside parentheses do not split, so parameterized specs like
    ``backfill+carbon(cap=0.7)`` or ``carbon-min+queue-cap(max=50)`` survive
    as single values.  Raises :class:`ConfigurationError` (naming ``what``)
    on unbalanced parentheses or an empty list.
    """
    try:
        parts = split_top_level(raw)
    except SchedulingError as exc:
        raise ConfigurationError(f"could not parse {what}: {exc}") from None
    values = tuple(value for value in (part.strip() for part in parts) if value)
    if not values:
        raise ConfigurationError(
            f"{what} must be a non-empty comma-separated list, got {raw!r}"
        )
    return values

#: Fields of :class:`ScenarioSpec` a campaign's ``scenario_grid`` may sweep.
SPEC_GRID_FIELDS: frozenset[str] = frozenset(f.name for f in fields(ScenarioSpec))


@dataclass(frozen=True)
class CampaignPoint:
    """One expanded run of a campaign: experiment × scenario × parameters.

    Attributes
    ----------
    index:
        Position of the point in the expanded campaign (stable across runs
        and across serial/parallel execution).
    experiment:
        Registered experiment name to run at this point.
    spec:
        The fully resolved scenario spec for this point.
    params:
        Experiment parameter overrides (only parameters the experiment
        declares).
    seed:
        Seed derived from the campaign's master seed, the point's grid index
        and the experiment name — the point's stable identity, recorded in
        result rows as ``point_seed`` so two runs of the same campaign are
        verifiably the same sweep.  Experiment randomness is governed by
        ``spec.seed`` (sweep the ``seed`` spec field to vary it); the derived
        seed is the handle for point-level stochastic extensions (e.g.
        replica noise).
    varied:
        The grid values this point was built from, with human-readable labels
        (e.g. a swept site appears under its registered name) — these become
        the identifying columns of the result row.
    """

    index: int
    experiment: str
    spec: ScenarioSpec
    params: Mapping[str, Any]
    seed: int
    varied: Mapping[str, Any]


def _label_value(value: Any) -> Any:
    """A row/CSV-friendly label for one grid value (configs label by name)."""
    if hasattr(value, "__dataclass_fields__"):
        return getattr(value, "name", str(value))
    return value


@dataclass(frozen=True)
class CampaignSpec:
    """A declarative multi-scenario, multi-experiment sweep.

    Attributes
    ----------
    experiments:
        Names of registered experiments to run at every grid point.
    base:
        The scenario spec every point starts from — a :class:`ScenarioSpec`
        or the name of a registered scenario.
    scenario_grid:
        Spec field name -> values to sweep (``seed``, ``site``, ``n_months``,
        ...).  ``site`` values may be registered site names.
    param_grid:
        Experiment parameter name -> values to sweep.  Each parameter must be
        declared by at least one of the campaign's experiments; experiments
        that do not declare a swept parameter run once per remaining
        combination (duplicates are dropped).
    seed:
        Master seed from which every point's ``point_seed`` is derived.
    """

    experiments: tuple[str, ...]
    base: Union[ScenarioSpec, str] = "default"
    scenario_grid: Mapping[str, Sequence[Any]] = field(default_factory=dict)
    param_grid: Mapping[str, Sequence[Any]] = field(default_factory=dict)
    seed: int = 0

    def __post_init__(self) -> None:
        object.__setattr__(self, "experiments", tuple(self.experiments))
        if not self.experiments:
            raise ConfigurationError("campaign requires at least one experiment")
        declared: set[str] = set()
        for name in self.experiments:
            declared.update(p.name for p in get_experiment(name).params)
        base = self.base
        if isinstance(base, str):
            base = get_scenario(base)
        object.__setattr__(self, "base", base)
        scenario_grid = {key: tuple(values) for key, values in dict(self.scenario_grid).items()}
        param_grid = {key: tuple(values) for key, values in dict(self.param_grid).items()}
        unknown_fields = set(scenario_grid) - SPEC_GRID_FIELDS
        if unknown_fields:
            raise ConfigurationError(
                f"unknown scenario field(s) {sorted(unknown_fields)} in scenario_grid; "
                f"valid fields: {sorted(SPEC_GRID_FIELDS)}"
            )
        overlap = set(scenario_grid) & set(param_grid)
        if overlap:
            raise ConfigurationError(
                f"key(s) {sorted(overlap)} appear in both scenario_grid and param_grid"
            )
        unknown_params = set(param_grid) - declared
        if unknown_params:
            raise ConfigurationError(
                f"parameter(s) {sorted(unknown_params)} in param_grid are declared by none of "
                f"the campaign's experiments {list(self.experiments)}; declared: {sorted(declared)}"
            )
        for key, values in {**scenario_grid, **param_grid}.items():
            if not values:
                raise ConfigurationError(f"grid key {key!r} has no values")
        object.__setattr__(self, "scenario_grid", scenario_grid)
        object.__setattr__(self, "param_grid", param_grid)

    # ------------------------------------------------------------------
    # Expansion
    # ------------------------------------------------------------------
    def _resolve_spec(self, changes: Mapping[str, Any]) -> ScenarioSpec:
        """The base spec with one grid combination of field changes applied."""
        resolved = dict(changes)
        if isinstance(resolved.get("site"), str):
            resolved["site"] = get_site(resolved["site"])
        return self.base.replace(**resolved) if resolved else self.base

    def expand(self) -> list[CampaignPoint]:
        """All campaign points, in a deterministic, reproducible order.

        The order (experiments outermost, then the grid in product order) and
        each point's derived seed depend only on the campaign definition —
        never on how the campaign is later executed — which is what makes
        serial and multi-process runs produce identical rows.  Grid
        combination ``i`` is seeded with ``derive_seed(seed, "sweep", i)``; a
        campaign without grids is the product's single empty combination.
        Experiments that do not declare a swept parameter would see duplicate
        points; those are dropped, keeping the first (lowest-index) occurrence.
        """
        grid = {**self.scenario_grid, **self.param_grid}
        combinations = [
            (dict(zip(grid, values)), derive_seed(self.seed, "sweep", i))
            for i, values in enumerate(itertools.product(*grid.values()))
        ]
        points: list[CampaignPoint] = []
        seen: set[tuple[str, ScenarioSpec, tuple[tuple[str, Any], ...]]] = set()
        index = 0
        for name in self.experiments:
            declared = {p.name for p in get_experiment(name).params}
            for combination, grid_seed in combinations:
                spec_changes = {
                    key: value for key, value in combination.items() if key in self.scenario_grid
                }
                params = {
                    key: value
                    for key, value in combination.items()
                    if key in self.param_grid and key in declared
                }
                spec = self._resolve_spec(spec_changes)
                key = (name, spec, tuple(sorted(params.items())))
                if key in seen:
                    continue
                seen.add(key)
                varied = {k: _label_value(v) for k, v in spec_changes.items()}
                varied.update(params)
                points.append(
                    CampaignPoint(
                        index=index,
                        experiment=name,
                        spec=spec,
                        params=params,
                        seed=derive_seed(grid_seed, name),
                        varied=varied,
                    )
                )
                index += 1
        return points

    def to_dict(self) -> dict[str, Any]:
        """Strict-JSON-ready dictionary form of the campaign definition."""
        return {
            "experiments": list(self.experiments),
            "base": self.base.to_dict(),
            "scenario_grid": {
                key: [config_to_jsonable(_label_value(v)) for v in values]
                for key, values in self.scenario_grid.items()
            },
            "param_grid": {
                key: [config_to_jsonable(v) for v in values]
                for key, values in self.param_grid.items()
            },
            "seed": self.seed,
        }


# ---------------------------------------------------------------------------
# Execution
# ---------------------------------------------------------------------------

#: One session per distinct scenario spec, local to this (worker) process.
#: ``map_parallel`` hands each worker a chunk of points; points sharing a
#: spec reuse the session's cached substrates instead of rebuilding them.
_WORKER_SESSIONS: dict[tuple[ScenarioSpec, Optional[ParallelConfig]], ExperimentSession] = {}

#: Cache bound: ``run_campaign`` dispatches same-spec points adjacently, so a
#: small FIFO window keeps the reuse win while a serial driver process (or a
#: long-lived worker) cannot accumulate every world it ever built.
_MAX_WORKER_SESSIONS = 8


def _worker_session(
    spec: ScenarioSpec, parallel: Optional[ParallelConfig] = None
) -> ExperimentSession:
    """The process-local session for ``spec`` (created on first use)."""
    key = (spec, parallel)
    session = _WORKER_SESSIONS.get(key)
    if session is None:
        while len(_WORKER_SESSIONS) >= _MAX_WORKER_SESSIONS:
            _WORKER_SESSIONS.pop(next(iter(_WORKER_SESSIONS)))
        session = ExperimentSession(spec, parallel=parallel)
        _WORKER_SESSIONS[key] = session
    return session


def clear_worker_sessions() -> None:
    """Drop this process's cached sessions (tests and long-lived services)."""
    _WORKER_SESSIONS.clear()


def _evaluate_campaign_point(
    point: CampaignPoint, parallel: Optional[ParallelConfig] = None
) -> ExperimentResult:
    """Run one campaign point on the worker-local session for its spec.

    The ``campaign.evaluate`` span lands in the coordinator's trace for
    serial point execution; with process-parallel points the workers' spans
    stay worker-local (point results, not traces, cross that boundary).
    """
    with get_recorder().span(
        "campaign.evaluate", index=point.index, experiment=point.experiment
    ):
        session = _worker_session(point.spec, parallel)
        return session.run(point.experiment, **dict(point.params))


def result_to_payload(result: ExperimentResult) -> dict[str, Any]:
    """The cacheable JSON payload of one point's experiment result.

    The scenario spec is deliberately *not* stored: it is part of the
    artifact's content address, and the live :class:`CampaignPoint` carries
    the authoritative spec object on reconstruction.
    """
    return {
        "experiment": result.name,
        "rows": config_to_jsonable(result.rows),
        "scalars": config_to_jsonable(result.scalars),
        "params": config_to_jsonable(result.params),
        "notes": list(result.notes),
    }


def result_from_payload(point: CampaignPoint, payload: Mapping[str, Any]) -> ExperimentResult:
    """Rebuild a point's :class:`ExperimentResult` from its cached payload."""
    try:
        return ExperimentResult(
            name=str(payload["experiment"]),
            spec=point.spec,
            rows=tuple(payload["rows"]),
            scalars=dict(payload["scalars"]),
            params=dict(payload["params"]),
            notes=tuple(payload["notes"]),
        )
    except (KeyError, TypeError, AttributeError) as exc:
        raise DataError(
            f"cached artifact for point {point.index} ({point.experiment!r}) "
            f"has an unusable payload: {exc}"
        ) from None


def run_campaign(
    campaign: CampaignSpec,
    parallel: Optional[ParallelConfig] = None,
    *,
    store: Optional[ArtifactStore] = None,
    force: bool = False,
    simulate: bool = True,
) -> "CampaignResult":
    """Expand ``campaign`` and evaluate every point, in processes when asked.

    Results come back in point order regardless of execution order, so the
    returned :class:`CampaignResult` is byte-identical between serial and
    parallel runs of the same campaign.

    ``parallel`` distributes the *points*, and each point's worker-local
    session receives it too, where inner layers pick it up — most notably
    the ``fleet`` experiment, whose member sites then step on worker
    processes of their own (:mod:`repro.fleet.parallel`), so a router sweep
    exploits both axes at once (points × sites).  The two multiply: a
    campaign over F-site fleets with W workers can occupy up to W×(F+1)
    processes.  Points are dispatched grouped by scenario spec (in order of
    first appearance), so a world is built once per worker however many
    experiments share it.

    ``store`` (an :class:`~repro.artifacts.ArtifactStore`) makes the run
    incremental: points whose :func:`~repro.artifacts.keys.run_key` is
    already cached skip simulation entirely; the rest run (through the same
    parallel dispatch) and are persisted.  ``force=True`` recomputes every
    point and overwrites its artifact.  With a store, every result — cached
    or fresh — is normalized through its stored JSON form, so warm and cold
    runs of the same campaign yield byte-identical rows.  ``simulate=False``
    forbids simulation: it needs a ``store`` and refuses ``force``, and when
    any point has no readable cached artifact it raises
    :class:`~repro.errors.ArtifactError` naming them, before anything runs.
    """
    if not simulate:
        if store is None:
            raise ArtifactError(
                "simulate=False needs an artifact store to read the run artifacts from"
            )
        if force:
            raise ArtifactError("cannot force-recompute a campaign with simulate=False")
    points = campaign.expand()  # point.index is the point's position
    recorder = get_recorder()
    mark = recorder.mark()
    results: list[Optional[ExperimentResult]] = [None] * len(points)
    with recorder.span(
        "campaign.run", n_points=len(points), cached=store is not None
    ) as run_span:
        if store is not None:
            keys = [run_key(point) for point in points]
            for point in points:
                payload = None if force else store.get(keys[point.index])
                if payload is not None:
                    results[point.index] = result_from_payload(point, payload)
                    recorder.event(
                        "campaign.point", index=point.index, experiment=point.experiment, cache="hit"
                    )
        missed = [point for point in points if results[point.index] is None]
        if missed and not simulate:
            indices = [point.index for point in missed]
            raise ArtifactError(
                f"{len(missed)} of {len(points)} run artifact(s) missing from the "
                f"artifact store (point indices {indices[:10]}"
                f"{', ...' if len(indices) > 10 else ''}); run the sweep with "
                f"--cache-dir first, or pass simulate=True (greenhpc report --simulate)"
            )
        if missed:
            # Grouped by spec, first appearance first (sorted computes each
            # key once, in list order), so no world is evicted from a
            # worker's session cache before its last experiment has run.
            rank: dict[ScenarioSpec, int] = {}
            batch = sorted(missed, key=lambda point: rank.setdefault(point.spec, len(rank)))
            # Cache-hit points never enter this span: a warm trace shows
            # campaign.point hit markers and no campaign.simulate at all.
            with recorder.span("campaign.simulate", n_points=len(missed)):
                evaluate = functools.partial(_evaluate_campaign_point, parallel=parallel)
                fresh = map_parallel(evaluate, batch, parallel)
            for point, result in zip(batch, fresh):
                results[point.index] = result
        if store is not None:
            for point in missed:
                payload = result_to_payload(results[point.index])
                store.put(keys[point.index], payload)
                results[point.index] = result_from_payload(point, payload)
                recorder.event(
                    "campaign.point", index=point.index, experiment=point.experiment, cache="miss"
                )
            run_span.set("cache_hits", len(points) - len(missed))
            run_span.set("cache_misses", len(missed))
    profile = None
    if recorder.enabled:
        profile = RunProfile.from_spans(
            recorder.spans_since(mark),
            total_s=run_span.record.wall_s,
            metrics=recorder.metrics.snapshot(),
        )
    return CampaignResult(
        campaign=campaign,
        points=tuple(points),
        results=tuple(results),
        cache_hits=None if store is None else len(points) - len(missed),
        cache_misses=None if store is None else len(missed),
        profile=profile,
    )


# ---------------------------------------------------------------------------
# Results
# ---------------------------------------------------------------------------


def _is_numeric(value: Any) -> bool:
    """A finite number; NaN and ±inf count as missing, as in the stored rows."""
    if isinstance(value, float):
        return math.isfinite(value)
    return isinstance(value, int) and not isinstance(value, bool)


@dataclass(frozen=True)
class CampaignResult:
    """Columnar outcome of a campaign: one flat row per evaluated point.

    ``results`` keeps every full :class:`ExperimentResult` (aligned with
    ``points``) for drill-down; ``rows`` flattens each point's identifying
    grid values and headline scalars into one record for tables, grouping
    and export.

    When the campaign ran against an :class:`~repro.artifacts.ArtifactStore`
    (``run_campaign(..., store=...)``), ``cache_hits``/``cache_misses``
    record how many points were served from the store versus simulated;
    both are ``None`` for uncached runs.

    ``profile`` is the run's :class:`~repro.obs.profile.RunProfile` when the
    campaign executed under tracing, else ``None``; it never participates in
    ``rows`` or cached payloads, so warm/cold and traced/untraced campaign
    rows stay byte-identical.
    """

    campaign: CampaignSpec
    points: tuple[CampaignPoint, ...]
    results: tuple[ExperimentResult, ...]
    cache_hits: Optional[int] = None
    cache_misses: Optional[int] = None
    profile: Optional[RunProfile] = None

    def __post_init__(self) -> None:
        if len(self.points) != len(self.results):
            raise ConfigurationError("points and results must have the same length")

    def __len__(self) -> int:
        return len(self.points)

    @property
    def rows(self) -> list[dict[str, Any]]:
        """One flat record per point: identity columns, then result scalars.

        Built once and cached (the dataclass is frozen, so the rows are
        deterministic); callers receive fresh copies of each record so they
        can mutate them freely.
        """
        cached = getattr(self, "_rows", None)
        if cached is None:
            cached = []
            for point, result in zip(self.points, self.results):
                record: dict[str, Any] = {"index": point.index, "experiment": point.experiment}
                record.update(point.varied)
                record["point_seed"] = point.seed
                for key, value in result.scalars.items():
                    record.setdefault(key, value)
                cached.append(record)
            object.__setattr__(self, "_rows", cached)
        return [dict(record) for record in cached]

    def column(self, key: str) -> list[Any]:
        """One column of :attr:`rows` (missing values become ``None``)."""
        return [row.get(key) for row in self.rows]

    def result_for(self, index: int) -> ExperimentResult:
        """The full experiment result of the point with campaign ``index``."""
        for point, result in zip(self.points, self.results):
            if point.index == index:
                return result
        raise DataError(f"campaign has no point with index {index}")

    # ------------------------------------------------------------------
    # Aggregation
    # ------------------------------------------------------------------
    def group_by(self, *keys: str) -> dict[tuple[Any, ...], list[dict[str, Any]]]:
        """Rows grouped by the values of ``keys``, in first-seen order."""
        if not keys:
            raise ConfigurationError("group_by requires at least one key")
        groups: dict[tuple[Any, ...], list[dict[str, Any]]] = {}
        for row in self.rows:
            group = tuple(row.get(key) for key in keys)
            groups.setdefault(group, []).append(row)
        return groups

    def summarize(
        self, *keys: str, values: Optional[Iterable[str]] = None
    ) -> list[dict[str, Any]]:
        """Per-group ``mean``/``min``/``max`` of numeric columns.

        Non-finite values (NaN, ±inf) count as missing, so a campaign
        summarizes the same whether or not its rows went through a store.

        Parameters
        ----------
        keys:
            Columns to group by (e.g. ``"experiment"``, a swept spec field).
        values:
            Numeric columns to aggregate; by default every numeric *result*
            column — grouping keys, point-identity columns and the swept
            grid columns themselves are excluded (name them explicitly in
            ``values`` to aggregate them anyway).
        """
        rows = self.rows
        if values is None:
            excluded = (
                set(keys)
                | {"index", "point_seed"}
                | set(self.campaign.scenario_grid)
                | set(self.campaign.param_grid)
            )
            ordered: list[str] = []
            for row in rows:
                for key, value in row.items():
                    if key not in excluded and key not in ordered and _is_numeric(value):
                        ordered.append(key)
            values = ordered
        else:
            values = list(values)
        groups = self.group_by(*keys) if keys else {(): rows}
        summary = []
        for group, group_rows in groups.items():
            record: dict[str, Any] = dict(zip(keys, group))
            record["n_points"] = len(group_rows)
            for column in values:
                samples = [row[column] for row in group_rows if _is_numeric(row.get(column))]
                if not samples:
                    continue
                record[f"{column}_mean"] = sum(samples) / len(samples)
                record[f"{column}_min"] = min(samples)
                record[f"{column}_max"] = max(samples)
            summary.append(record)
        return summary

    # ------------------------------------------------------------------
    # Export
    # ------------------------------------------------------------------
    def to_dict(self, *, include_results: bool = False) -> dict[str, Any]:
        """Strict-JSON-ready dictionary form (rows by default; full results on request)."""
        payload = {
            "campaign": self.campaign.to_dict(),
            "n_points": len(self.points),
            "rows": config_to_jsonable(self.rows),
        }
        if self.cache_hits is not None:
            payload["cache_hits"] = self.cache_hits
            payload["cache_misses"] = self.cache_misses
        if self.profile is not None:
            payload["profile"] = config_to_jsonable(self.profile.to_dict())
        if include_results:
            payload["results"] = [result.to_dict() for result in self.results]
        return payload

    def to_json(self, *, indent: int | None = None, include_results: bool = False) -> str:
        """Serialize :meth:`to_dict` as strict JSON text."""
        return json.dumps(
            self.to_dict(include_results=include_results), indent=indent, allow_nan=False
        )

    def to_csv(self) -> str:
        """The flat rows as CSV text (column set is the union over all rows).

        Quoting follows RFC 4180 via the :mod:`csv` module, so cell values
        containing commas, double quotes or newlines (policy/router pipeline
        specs are the usual source) round-trip through any CSV reader.
        Missing cells, ``None`` and non-finite floats (NaN/±inf are mapped
        to ``None`` by the JSON normalization) all render as empty cells.
        Lines end in ``"\\n"`` regardless of platform, so the text is stable
        for byte-level comparison.
        """
        rows = config_to_jsonable(self.rows)
        columns: list[str] = []
        for row in rows:
            for key in row:
                if key not in columns:
                    columns.append(key)
        buffer = io.StringIO()
        writer = csv.DictWriter(buffer, fieldnames=columns, restval="", lineterminator="\n")
        writer.writeheader()
        for row in rows:
            writer.writerow({key: ("" if value is None else value) for key, value in row.items()})
        return buffer.getvalue()
