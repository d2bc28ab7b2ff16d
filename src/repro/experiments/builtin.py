"""The built-in experiment catalogue (every headline analysis of the paper).

Each runner takes the session, pulls the cached substrates it needs, and
returns an :class:`~repro.experiments.result.ExperimentResult`.  Importing
:mod:`repro.experiments` imports this module, which populates the registry —
and thereby the CLI, whose subcommands are generated from it.
"""

from __future__ import annotations

from ..analysis.figures import (
    fig2_power_vs_green_share,
    fig3_price_vs_green_share,
    fig4_power_vs_temperature,
    fig5_energy_vs_deadlines,
)
from ..analysis.tables import table1_conferences
from ..core.levers import SCHEDULER_REGISTRY, default_operating_grid, resolve_policy
from ..core.policies import LoadShiftingPolicy, evaluate_deadline_restructuring, evaluate_load_shifting
from ..core.stress import StressTestHarness
from ..errors import ConfigurationError, FleetError, OptimizationError, SchedulingError
from ..scheduler.powercap import powercap_energy_tradeoff
from .campaign import split_value_list
from .registry import ExperimentParam, experiment
from .result import ExperimentResult
from .session import ExperimentSession

__all__ = [
    "run_figures",
    "run_table1",
    "run_powercap",
    "run_shifting",
    "run_deadlines",
    "run_stress",
    "run_schedule",
    "run_optimize",
    "run_fleet",
]


def _resolve_policy_list(policies: str) -> tuple[str, ...]:
    """Parse and validate a comma-separated list of policy names/specs.

    Splitting is the shared :func:`split_value_list` rule (commas inside
    stage parentheses do not split, so ``backfill,backfill+carbon(cap=0.7)``
    is two policies), and every entry must resolve against the policy
    registry or the pipeline grammar.
    """
    names = split_value_list(policies, "policies")
    try:
        for name in names:
            resolve_policy(name)
    except (OptimizationError, SchedulingError) as exc:
        message = f"invalid policies {policies!r}: {exc}"
        if "greenhpc policies" not in message:
            message += (
                f"; registered: {sorted(SCHEDULER_REGISTRY)} (run `greenhpc "
                "policies` for the policy and stage catalogue)"
            )
        raise ConfigurationError(message) from None
    return names

#: Minimum horizon for the Fig. 5 (two partial years) analysis.
FIG5_MIN_MONTHS = 16


@experiment("figures", help="the Fig. 2-5 monthly series and their statistics")
def run_figures(session: ExperimentSession) -> ExperimentResult:
    """Figs. 2-5: monthly power/price/temperature series vs. the green share."""
    scenario = session.scenario()
    fig2 = fig2_power_vs_green_share(scenario)
    fig3 = fig3_price_vs_green_share(scenario)
    fig4 = fig4_power_vs_temperature(scenario)
    rows = [
        {
            "month": label,
            "power_kw": float(fig2.monthly_power_kw[i]),
            "solar_wind_pct": float(fig2.monthly_renewable_share_pct[i]),
            "price_per_mwh": float(fig3.monthly_price_per_mwh[i]),
            "temperature_f": float(fig4.monthly_temperature_f[i]),
        }
        for i, label in enumerate(fig2.month_labels)
    ]
    scalars = {
        "fig2_correlation": fig2.correlation,
        "fig3_correlation": fig3.correlation,
        "fig4_spearman": fig4.spearman,
        "fig4_pearson": fig4.pearson,
    }
    notes = [
        f"Fig.2 corr(power, green share)      = {fig2.correlation:+.3f}",
        f"Fig.3 corr(price, green share)      = {fig3.correlation:+.3f}",
        f"Fig.4 spearman(power, temperature)  = {fig4.spearman:+.3f}",
    ]
    if session.spec.n_months >= FIG5_MIN_MONTHS:
        fig5 = fig5_energy_vs_deadlines(scenario)
        scalars["fig5_same_month_correlation"] = fig5.same_month_correlation
        scalars["fig5_early_2021_vs_2020_ratio"] = fig5.early_2021_vs_2020_ratio
        scalars["fig5_lead_lag_months"] = fig5.lead_lag_months
        notes.append(f"Fig.5 corr(energy, deadlines)       = {fig5.same_month_correlation:+.3f}")
        notes.append(f"Fig.5 early-2021 / early-2020 ratio = {fig5.early_2021_vs_2020_ratio:.3f}")
    return ExperimentResult(
        name="figures", spec=session.spec, rows=tuple(rows), scalars=scalars, notes=tuple(notes)
    )


@experiment("table1", help="the reproduced Table I conference catalogue")
def run_table1(session: ExperimentSession) -> ExperimentResult:
    """Table I: the conference catalogue and its deadline seasonality."""
    table = table1_conferences()
    rows = [
        {"area": area, "conferences": ", ".join(names)} for area, names in table.rows.items()
    ]
    scalars = {
        "n_conferences": table.n_conferences,
        "spring_summer_fraction": table.spring_summer_fraction,
        "winter_fraction": table.winter_fraction,
        "busiest_deadline_month": table.busiest_deadline_month(),
    }
    notes = [
        f"conferences: {table.n_conferences}",
        f"spring/summer deadline share: {table.spring_summer_fraction:.0%}",
    ]
    return ExperimentResult(
        name="table1", spec=session.spec, rows=tuple(rows), scalars=scalars, notes=tuple(notes)
    )


@experiment("powercap", help="the power-cap energy/time trade-off sweep")
def run_powercap(session: ExperimentSession) -> ExperimentResult:
    """Section II.C: the energy/runtime frontier of GPU power caps."""
    points = powercap_energy_tradeoff(session.spec.workload.gpu_model)
    rows = [
        {
            "cap_fraction": p.cap_fraction,
            "cap_w": p.cap_w,
            "runtime_penalty_pct": p.runtime_penalty_pct,
            "energy_savings_pct": p.energy_savings_pct,
        }
        for p in points
    ]
    scalars = {
        "gpu_model": session.spec.workload.gpu_model,
        "n_caps": len(points),
        "max_energy_savings_pct": max(p.energy_savings_pct for p in points),
    }
    return ExperimentResult(name="powercap", spec=session.spec, rows=tuple(rows), scalars=scalars)


@experiment(
    "shifting",
    help="carbon/price-aware load-shifting savings",
    params=(
        ExperimentParam("deferrable", float, 0.3, help="deferrable load fraction"),
        ExperimentParam("window", int, 24, help="shifting window in hours"),
        ExperimentParam(
            "signal",
            str,
            "carbon",
            help="signal to shift toward",
            choices=("carbon", "price", "renewable"),
        ),
    ),
)
def run_shifting(
    session: ExperimentSession, deferrable: float, window: int, signal: str
) -> ExperimentResult:
    """Section II.A: what re-timing deferrable load would capture."""
    policy = LoadShiftingPolicy(deferrable_fraction=deferrable, window_h=window, signal=signal)
    outcome = evaluate_load_shifting(
        facility_load_kwh=session.hourly_facility_load_kwh(),
        grid=session.grid,
        policy=policy,
    )
    summary = dict(outcome.summary())
    scalars = {
        "emissions_savings_pct": summary["emissions_savings_pct"],
        "cost_savings_pct": summary["cost_savings_pct"],
        "peak_power_change_pct": summary["peak_power_change_pct"],
    }
    return ExperimentResult(
        name="shifting",
        spec=session.spec,
        rows=(summary,),
        scalars=scalars,
        params={"deferrable": deferrable, "window": window, "signal": signal},
    )


@experiment("deadlines", help="the deadline-restructuring comparison")
def run_deadlines(session: ExperimentSession) -> ExperimentResult:
    """Section III: the conference-calendar restructuring options."""
    spec = session.spec
    scenario = session.scenario()
    outcomes = evaluate_deadline_restructuring(
        seed=spec.seed,
        start_year=spec.start_year,
        n_months=spec.n_months,
        demand_model=scenario.demand_model,
        weather_hourly_c=scenario.weather_hourly_c,
        grid=scenario.grid,
        trace_config=spec.trace_config(),
    )
    rows = [dict(outcome.summary()) for outcome in outcomes.values()]
    greenest = min(outcomes.values(), key=lambda o: o.total_emissions_t)
    scalars = {
        "n_options": len(outcomes),
        "greenest_option": greenest.option,
        "greenest_emissions_t": greenest.total_emissions_t,
    }
    return ExperimentResult(name="deadlines", spec=session.spec, rows=tuple(rows), scalars=scalars)


@experiment("stress", help="the Section II.B stress-test battery")
def run_stress(session: ExperimentSession) -> ExperimentResult:
    """Section II.B: degradation under the standard stress battery."""
    spec = session.spec
    scenario = session.scenario()
    harness = StressTestHarness(
        start_year=spec.start_year,
        n_months=spec.n_months,
        seed=spec.seed,
        trace_config=spec.trace_config(),
        baseline_weather_c=scenario.weather_hourly_c,
        grid=scenario.grid,
    )
    results = harness.run_battery()
    rows = StressTestHarness.degradation_table(results)
    worst = max(rows, key=lambda row: row["energy_increase_pct"])
    scalars = {
        "n_scenarios": len(results),
        "worst_scenario": worst["scenario"],
        "worst_energy_increase_pct": worst["energy_increase_pct"],
        "total_hours_cooling_overloaded": int(
            sum(r.hours_cooling_overloaded for r in results.values())
        ),
    }
    return ExperimentResult(name="stress", spec=session.spec, rows=tuple(rows), scalars=scalars)


@experiment(
    "schedule",
    help="one (composed) scheduling policy end-to-end on a job-level trace",
    params=(
        ExperimentParam(
            "policy",
            str,
            "backfill",
            help=(
                "registered policy name or pipeline spec string, e.g. "
                "'backfill+carbon(cap=0.7)+budget' (see `greenhpc policies`)"
            ),
        ),
        ExperimentParam("jobs", int, 300, help="number of jobs in the generated trace"),
        ExperimentParam("horizon_days", float, 7.0, help="trace horizon in days"),
    ),
)
def run_schedule(
    session: ExperimentSession, policy: str, jobs: int, horizon_days: float
) -> ExperimentResult:
    """One simulator run of any policy composition, with the headline metrics.

    This is the sweep surface for the composable-policy space: a campaign
    grid over ``policy`` (``--grid "policy=backfill,backfill+carbon(cap=0.7)"``)
    compares arbitrary pipeline spellings on identical seeded worlds.
    """
    names = _resolve_policy_list(policy)
    if len(names) != 1:
        raise ConfigurationError(
            f"schedule takes exactly one policy, got {len(names)}: {list(names)}"
        )
    (policy,) = names
    result = session.simulate_policy(
        policy, n_jobs=jobs, horizon_h=horizon_days * 24.0
    )
    summary = result.summary()
    scalars = dict(summary)
    scalars["deadline_miss_rate"] = result.deadline_miss_rate
    notes = [
        f"policy: {result.scheduler_name}",
        f"facility energy: {result.facility_energy_kwh:.1f} kWh, "
        f"emissions: {result.total_emissions_kg:.1f} kg, "
        f"mean wait: {result.mean_wait_h:.2f} h",
    ]
    return ExperimentResult(
        name="schedule",
        spec=session.spec,
        rows=(summary,),
        scalars=scalars,
        params={"policy": policy, "jobs": jobs, "horizon_days": horizon_days},
        notes=tuple(notes),
    )


@experiment(
    "fleet",
    help="multi-site fleet co-simulation with geo-aware job routing",
    params=(
        ExperimentParam(
            "fleet",
            str,
            "tri-site-small",
            help="registered fleet name (see repro.fleet.fleet_names())",
        ),
        ExperimentParam(
            "router",
            str,
            "",
            help=(
                "routing spec(s), e.g. 'carbon-min+queue-cap(max=50)'; "
                "comma-separated to compare several in one run; empty = the "
                "fleet's own default (see `greenhpc policies` for the tokens)"
            ),
        ),
        ExperimentParam("policy", str, "backfill", help="per-site scheduling policy"),
        ExperimentParam("jobs", int, 300, help="number of jobs in the shared generated trace"),
        ExperimentParam("horizon_days", float, 7.0, help="co-simulation horizon in days"),
    ),
)
def run_fleet(
    session: ExperimentSession,
    fleet: str,
    router: str,
    policy: str,
    jobs: int,
    horizon_days: float,
) -> ExperimentResult:
    """Route a shared workload across a fleet's member sites, per router.

    The session's world overrides (``--seed``, ``--months``, a swept
    ``seed``/``n_months`` campaign dimension) apply to *every* member site,
    so a fleet point and a single-site point of the same campaign describe
    the same worlds.  ``router`` is the sweepable lever: a campaign grid over
    it (``--grid "router=round-robin,carbon-min,renewable-max"``) compares
    routing policies on identical seeded fleets, and a comma-separated list
    compares them within one run.
    """
    # Imported lazily: repro.fleet builds on this package, so a module-level
    # import would be circular when repro.fleet is imported first.
    from ..fleet import FleetSimulator, get_fleet, make_router

    fleet_spec = get_fleet(fleet)
    spec = session.spec
    fleet_spec = fleet_spec.with_member_overrides(
        seed=spec.seed, start_year=spec.start_year, n_months=spec.n_months
    )
    routers = (
        split_value_list(router, "fleet routers") if router.strip() else (fleet_spec.router,)
    )
    try:
        routers = tuple(make_router(name).name for name in routers)  # canonical spellings
    except FleetError as exc:
        raise ConfigurationError(
            f"invalid router {router!r}: {exc} (run `greenhpc policies` for the "
            "router catalogue)"
        ) from None

    rows: list[dict] = []
    results = []
    for router_name in routers:
        # The session's --workers / GREENHPC_WORKERS configuration is the
        # fleet stepping mode: >1 workers steps the member sites on worker
        # processes (bit-identical records, see repro.fleet.parallel).
        # Campaign points run with a serial session, so their rows never
        # depend on the campaign's worker count.
        result = FleetSimulator(
            fleet_spec,
            router=router_name,
            policy=policy,
            horizon_h=horizon_days * 24.0,
            parallel=session.parallel,
            session=session,
        ).run(n_jobs=jobs)
        results.append(result)
        fleet_row = {"site": "(fleet)"}
        fleet_row.update(result.summary())
        rows.append(fleet_row)
        rows.extend(result.site_rows())

    greenest = min(results, key=lambda r: r.total_emissions_kg)
    headline = results[0]
    scalars = dict(headline.summary())
    scalars["n_routers"] = len(results)
    scalars["greenest_router"] = greenest.router
    scalars["greenest_emissions_kg"] = greenest.total_emissions_kg
    # Only the (deterministic) worker count enters the scalars: campaign rows
    # must stay byte-identical across serial/parallel runs, so wall-clock
    # stays on FleetResult.step_timings rather than in result rows.
    timings = headline.step_timings
    stepping = "serial"
    if timings is not None:
        scalars["step_workers"] = timings.n_workers
        if timings.mode == "parallel":
            stepping = f"parallel x{timings.n_workers}"
    notes = [
        f"fleet: {fleet_spec.name} ({fleet_spec.n_sites} sites), policy: {policy}, "
        f"stepping: {stepping}",
    ]
    for result in results:
        counts = ", ".join(f"{name}={n}" for name, n in result.dispatch_counts().items())
        notes.append(
            f"router {result.router}: {result.facility_energy_kwh:.1f} kWh, "
            f"{result.total_emissions_kg:.1f} kgCO2e, "
            f"mean wait {result.mean_wait_h:.2f} h [{counts}]"
        )
    return ExperimentResult(
        name="fleet",
        spec=session.spec,
        rows=tuple(rows),
        scalars=scalars,
        params={
            "fleet": fleet,
            "router": ",".join(routers),
            "policy": policy,
            "jobs": jobs,
            "horizon_days": horizon_days,
        },
        notes=tuple(notes),
    )


@experiment(
    "optimize",
    help="the Eq. 1 operating-point search on a job-level trace",
    params=(
        ExperimentParam("jobs", int, 300, help="number of jobs in the generated trace"),
        ExperimentParam("horizon_days", float, 7.0, help="trace horizon in days"),
        ExperimentParam(
            "floor", float, 0.9, help="activity floor as a fraction of baseline GPU-hours"
        ),
        ExperimentParam(
            "policies",
            str,
            "backfill,energy-aware,carbon-aware",
            help=(
                "comma-separated policy names or pipeline spec strings to search "
                f"over (registered: {', '.join(SCHEDULER_REGISTRY)}; "
                "`greenhpc policies` lists the stage grammar)"
            ),
        ),
    ),
)
def run_optimize(
    session: ExperimentSession, jobs: int, horizon_days: float, floor: float, policies: str
) -> ExperimentResult:
    """Eq. 1: exhaustive search over supply/policy/power-cap operating points."""
    policy_names = _resolve_policy_list(policies)
    outcome = session.optimize_operations(
        n_jobs=jobs,
        horizon_h=horizon_days * 24.0,
        activity_floor_fraction=floor,
        points=default_operating_grid(policy_names=policy_names),
    )
    rows = outcome.frontier_records()
    savings_pct = 100.0 * outcome.savings_vs_baseline()
    best_label = outcome.best.point.label() if outcome.best is not None else None
    scalars = {
        "n_evaluated": len(outcome.evaluated),
        "n_feasible": len(outcome.feasible_points),
        "best_point": best_label,
        "savings_vs_baseline_pct": savings_pct,
    }
    notes = []
    if best_label is not None:
        notes.append(f"best operating point: {best_label}")
        notes.append(f"objective savings vs. baseline: {savings_pct:.1f}%")
    return ExperimentResult(
        name="optimize",
        spec=session.spec,
        rows=tuple(rows),
        scalars=scalars,
        params={"jobs": jobs, "horizon_days": horizon_days, "floor": floor, "policies": policies},
        notes=tuple(notes),
    )
