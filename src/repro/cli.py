"""Command-line interface, generated from the experiment registry.

``greenhpc`` exposes every experiment registered in
:mod:`repro.experiments` as a subcommand, so an operator (or a reviewer
reproducing the paper) can run each analysis without writing Python::

    greenhpc figures                    # the Fig. 2-5 monthly series
    greenhpc table1                     # the reproduced Table I
    greenhpc powercap                   # the power-cap energy/time trade-off
    greenhpc shifting --signal price    # load-shifting savings
    greenhpc deadlines                  # deadline restructuring comparison
    greenhpc stress                     # the stress-test battery
    greenhpc optimize --jobs 120        # the Eq. 1 operating-point search
    greenhpc fleet --router carbon-min  # multi-site co-simulation + routing

``greenhpc sweep`` fans any registered experiments out over a declarative
grid of scenario fields and experiment parameters (a campaign), optionally
across worker processes.  Grid values split on top-level commas only, so
policy pipeline specs with parameters sweep directly::

    greenhpc sweep --experiments table1,powercap \\
        --grid seed=0,1 --grid n_months=3,4 --workers 2 --json
    greenhpc sweep --experiments schedule \\
        --grid "policy=backfill,backfill+carbon(cap=0.7)+budget"

``greenhpc policies`` prints the policy registry and the stage grammar the
``schedule``/``optimize`` experiments accept, generated from the registries.

Sweeps become *incremental* with ``--cache-dir`` (or the
``GREENHPC_CACHE_DIR`` environment variable): every campaign point is
cached in a content-addressed artifact store, so re-running an unchanged
sweep simulates nothing and editing one grid value reruns only the
affected points (``--force`` recomputes everything, ``--no-cache`` ignores
the environment's cache directory).  ``greenhpc report`` renders the
standard figure battery — per-metric comparison grids across the swept
dimensions, as markdown and embedded-SVG HTML — from those cached
artifacts *without re-simulating*::

    greenhpc sweep --experiments fleet --grid "router=round-robin,carbon-min" \\
        --cache-dir ./cache
    greenhpc report --experiments fleet --grid "router=round-robin,carbon-min" \\
        --cache-dir ./cache --out ./report

Every subcommand accepts ``--trace-out PATH``, which installs the ambient
:mod:`repro.obs` recorder for the run and exports the trace on exit —
Chrome ``trace_event`` JSON (drop into https://ui.perfetto.dev) unless PATH
ends in ``.ndjson``.  ``greenhpc obs PATH`` digests a recorded trace into
per-phase totals and the longest individual spans.

Shared flags are handled once for every subcommand: ``--seed``, ``--months``
and ``--site`` override the chosen ``--scenario``'s spec, ``--workers`` (or
the ``GREENHPC_WORKERS`` environment variable) sets the process count for
sweep-capable subcommands, and ``--json`` switches the output from aligned
text tables to a machine-readable :class:`~repro.experiments.
ExperimentResult` dump.  Registering a new experiment automatically gives it
a CLI surface (and makes it sweepable) — this module contains no per-command
wiring.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
from typing import Iterable, Sequence

from .core.levers import registered_policies
from .errors import ConfigurationError, GreenHPCError
from .scheduler.compose import REQUIRED, list_stage_definitions
from .experiments import (
    CampaignSpec,
    ExperimentResult,
    ExperimentSession,
    get_experiment,
    get_scenario,
    get_site,
    list_experiments,
    run_campaign,
    scenario_names,
    site_names,
)
from .experiments.campaign import split_value_list
from .experiments.spec import SCENARIO_OVERRIDES
from .fleet import list_router_definitions
from .parallel import ParallelConfig

__all__ = ["main", "build_parser"]


def _format_cell(value: object) -> str:
    """Render one table cell, tolerating missing and non-finite values."""
    if value is None:
        return "-"
    if isinstance(value, float):
        if math.isnan(value):
            return "nan"
        if math.isinf(value):
            return "inf" if value > 0 else "-inf"
        return f"{value:.4g}"
    return str(value)


def _print_rows(rows: Iterable[dict], *, stream=None) -> None:
    """Print dict records as an aligned text table.

    Robust to ragged records (the column set is the union over all rows) and
    to ``None``/NaN values, which render as placeholders instead of crashing.
    """
    stream = stream or sys.stdout
    rows = list(rows)
    if not rows:
        print("(no rows)", file=stream)
        return
    keys: list[str] = []
    for row in rows:
        for key in row:
            if key not in keys:
                keys.append(key)
    formatted = [{k: _format_cell(row.get(k)) for k in keys} for row in rows]
    widths = {k: max(len(k), *(len(r[k]) for r in formatted)) for k in keys}
    header = "  ".join(k.ljust(widths[k]) for k in keys)
    print(header, file=stream)
    print("-" * len(header), file=stream)
    for row in formatted:
        print("  ".join(row[k].ljust(widths[k]) for k in keys), file=stream)


def _render_text(result: ExperimentResult, *, stream=None) -> None:
    """Human-oriented rendering: the rows table plus summary lines."""
    stream = stream or sys.stdout
    _print_rows(result.rows, stream=stream)
    extras = list(result.notes) or [
        f"{key} = {_format_cell(value)}" for key, value in result.scalars.items()
    ]
    if extras:
        print(file=stream)
        for line in extras:
            print(line, file=stream)


def _add_shared_arguments(parser: argparse.ArgumentParser, *, in_subcommand: bool) -> None:
    """Add the flags every subcommand shares.

    They are registered on the top-level parser (with real defaults) *and* on
    each subparser (with ``SUPPRESS`` defaults, so a subcommand-level flag
    overrides the top-level value but an absent one does not reset it).  This
    makes both ``greenhpc --months 12 figures`` and
    ``greenhpc figures --months 12`` work.
    """
    suppress = argparse.SUPPRESS

    def default(value):
        return suppress if in_subcommand else value

    parser.add_argument(
        "--scenario",
        default=default("default"),
        choices=scenario_names(),
        help="registered scenario to start from",
    )
    parser.add_argument(
        "--seed", type=int, default=default(None), help="master random seed override"
    )
    parser.add_argument(
        "--months", type=int, default=default(None), help="simulation horizon override in months"
    )
    parser.add_argument(
        "--site", default=default(None), choices=site_names(), help="registered site override"
    )
    parser.add_argument(
        "--workers",
        type=int,
        default=default(None),
        help=(
            "worker processes for sweep-capable subcommands and for fleet "
            "stepping (greenhpc fleet --workers N steps member sites on worker "
            "processes with bit-identical results; 0 = all cores; default: the "
            "GREENHPC_WORKERS environment variable, else serial)"
        ),
    )
    parser.add_argument(
        "--json",
        action="store_true",
        default=default(False),
        help="emit the structured ExperimentResult as JSON instead of text tables",
    )
    parser.add_argument(
        "--trace-out",
        default=default(None),
        metavar="PATH",
        help=(
            "record a trace of this run and write it to PATH on exit: *.ndjson "
            "writes the newline-delimited event log, anything else writes "
            "Chrome trace_event JSON (loadable in Perfetto / about:tracing); "
            "summarize either with 'greenhpc obs PATH'"
        ),
    )


def _add_campaign_arguments(parser: argparse.ArgumentParser) -> None:
    """Flags shared by the campaign-shaped subcommands (``sweep``/``report``)."""
    parser.add_argument(
        "--experiments",
        required=True,
        help="comma-separated registered experiment names to run at every grid point",
    )
    parser.add_argument(
        "--grid",
        action="append",
        default=[],
        metavar="KEY=V1,V2,...",
        help=(
            "one grid dimension; KEY is a scenario field "
            f"({', '.join(SCENARIO_OVERRIDES)}) or a parameter declared by a "
            "selected experiment; repeat for more dimensions"
        ),
    )
    parser.add_argument(
        "--cache-dir",
        default=None,
        metavar="DIR",
        help=(
            "content-addressed artifact store: cached campaign points skip "
            "simulation, fresh ones are persisted (default: the "
            "GREENHPC_CACHE_DIR environment variable, else uncached; "
            "required by 'report')"
        ),
    )
    parser.add_argument(
        "--no-cache",
        action="store_true",
        help="run uncached even when GREENHPC_CACHE_DIR is set",
    )
    parser.add_argument(
        "--force",
        action="store_true",
        help="recompute every cached stage and overwrite its artifacts",
    )


def build_parser() -> argparse.ArgumentParser:
    """The CLI argument parser, with one subcommand per registered experiment."""
    parser = argparse.ArgumentParser(
        prog="greenhpc",
        description="Reproduction toolkit for 'A Green(er) World for A.I.' (IPDPSW 2022).",
    )
    from . import __version__

    parser.add_argument(
        "--version", action="version", version=f"%(prog)s {__version__}"
    )
    _add_shared_arguments(parser, in_subcommand=False)
    subparsers = parser.add_subparsers(dest="command", required=True)
    for definition in list_experiments():
        subparser = subparsers.add_parser(definition.name, help=definition.help)
        _add_shared_arguments(subparser, in_subcommand=True)
        for param in definition.params:
            subparser.add_argument(
                param.cli_flag,
                dest=param.name,
                type=param.type,
                default=param.default,
                choices=param.choices,
                help=param.help or None,
            )
    sweep = subparsers.add_parser(
        "sweep",
        help="run a campaign: registered experiments over a scenario/parameter grid",
    )
    _add_shared_arguments(sweep, in_subcommand=True)
    _add_campaign_arguments(sweep)
    sweep.add_argument(
        "--csv",
        action="store_true",
        help="emit the campaign rows as CSV instead of a text table",
    )
    report = subparsers.add_parser(
        "report",
        help=(
            "render the campaign figure battery (markdown + SVG HTML) from "
            "cached artifacts, without re-simulating"
        ),
    )
    _add_shared_arguments(report, in_subcommand=True)
    _add_campaign_arguments(report)
    report.add_argument(
        "--out",
        default=None,
        metavar="DIR",
        help=(
            "directory to write report.md and report.html into (created if "
            "missing); omit to print the markdown report to stdout"
        ),
    )
    report.add_argument(
        "--simulate",
        action="store_true",
        help=(
            "allow simulating campaign points missing from the cache instead of "
            "failing (the default insists the store is warm)"
        ),
    )
    policies = subparsers.add_parser(
        "policies",
        help="list registered scheduling policies and pipeline stages (the spec grammar)",
    )
    _add_shared_arguments(policies, in_subcommand=True)
    obs = subparsers.add_parser(
        "obs",
        help="summarize a trace file recorded with --trace-out (top spans, per-phase totals)",
    )
    obs.add_argument("trace", help="trace file to read (Chrome trace_event JSON or NDJSON)")
    obs.add_argument(
        "--top",
        type=int,
        default=15,
        help="how many individual spans to list in the top-spans table",
    )
    obs.add_argument(
        "--json",
        action="store_true",
        help="emit the structured summary as JSON instead of text tables",
    )
    serve = subparsers.add_parser(
        "serve",
        help="run the long-running simulation daemon (warm sessions over JSON/HTTP)",
    )
    serve.add_argument("--host", default="127.0.0.1", help="bind address")
    serve.add_argument(
        "--port", type=int, default=8714, help="bind port (0 picks an ephemeral port)"
    )
    serve.add_argument(
        "--checkpoint-dir",
        default=None,
        help=(
            "directory for periodic/shutdown checkpoints; a restarting daemon "
            "pointed here restores every session (omit to disable checkpointing)"
        ),
    )
    serve.add_argument(
        "--checkpoint-every-h",
        type=float,
        default=24.0,
        help="simulated hours between automatic checkpoints during advance requests",
    )
    serve.add_argument(
        "--request-timeout-s",
        type=float,
        default=30.0,
        help="per-request socket timeout and default advance wall-clock bound",
    )
    serve.add_argument(
        "--verbose", action="store_true", help="log every HTTP request to stderr"
    )
    serve.add_argument(
        "--trace-out",
        default=None,
        metavar="PATH",
        help="record per-request serve spans and write the trace to PATH on shutdown",
    )
    return parser


def _stage_param_summary(param) -> str:
    """Render one stage parameter as ``name=default`` (or ``name=<required>``)."""
    if param.default is REQUIRED:
        return f"{param.name}=<required>"
    if isinstance(param.default, bool):
        return f"{param.name}={'true' if param.default else 'false'}"
    return f"{param.name}={param.default!r}"


def _run_policies(args: argparse.Namespace) -> int:
    """The ``greenhpc policies`` subcommand: the registry-generated catalogue."""
    policy_rows = [
        {
            "policy": definition.name,
            "pipeline": definition.spec,
            "cap_lever": definition.cap_mode,
            "description": definition.help,
        }
        for definition in registered_policies()
    ]
    stage_rows = [
        {
            "stage": definition.name,
            "kind": definition.kind,
            "parameters": ", ".join(_stage_param_summary(p) for p in definition.params) or "-",
            "description": definition.help,
        }
        for definition in list_stage_definitions()
    ]
    router_rows = [
        {
            "router": definition.name,
            "kind": definition.kind,
            "parameters": ", ".join(_stage_param_summary(p) for p in definition.params) or "-",
            "description": definition.help,
        }
        for definition in list_router_definitions()
    ]
    if args.json:
        import json

        print(
            json.dumps(
                {"policies": policy_rows, "stages": stage_rows, "routers": router_rows},
                indent=2,
            )
        )
        return 0
    print("Registered policies (usable anywhere a policy is addressed):")
    _print_rows(policy_rows)
    print()
    print("Pipeline stages (compose with '+', parameterize with 'name(key=value,...)'):")
    _print_rows(stage_rows)
    print()
    print(
        "Any composition is a valid policy, e.g. "
        "'backfill+carbon(cap=0.7)+budget' or 'edf+backfill+slack(margin=2.0)'."
    )
    print()
    print("Fleet routing tokens (same grammar; at most one scorer per spec):")
    _print_rows(router_rows)
    print()
    print(
        "Any composition is a valid router for the fleet experiment, e.g. "
        "'carbon-min+queue-cap(max=50)' (sweep with --grid \"router=...\")."
    )
    return 0


def _run_obs(args: argparse.Namespace) -> int:
    """The ``greenhpc obs`` subcommand: digest a ``--trace-out`` file."""
    from .obs import load_trace, summarize_trace

    trace = load_trace(args.trace)
    summary = summarize_trace(trace, top=args.top)
    if args.json:
        import json

        print(json.dumps({"format": trace["format"], **summary}, indent=2))
        return 0
    print(
        f"{args.trace}: {trace['format']} trace, {summary['n_spans']} span(s) on "
        f"{summary['n_tracks']} track(s), "
        f"{summary['recorded_total_s']:.3f}s recorded span time"
    )
    print()
    print("Per-phase totals (share is relative to the largest aggregate):")
    _print_rows(
        {
            "phase": entry["name"],
            "count": entry["count"],
            "total_s": entry["total_s"],
            "mean_s": entry["mean_s"],
            "max_s": entry["max_s"],
            "share": entry["share"],
        }
        for entry in summary["phases"]
    )
    print()
    print(f"Top {len(summary['top_spans'])} span(s) by wall time:")
    _print_rows(
        {
            "span": s["name"],
            "wall_s": s["wall_s"],
            "pid": s["pid"],
            "attributes": ", ".join(f"{k}={v}" for k, v in s["attributes"].items()) or "-",
        }
        for s in summary["top_spans"]
    )
    if summary["metrics"]:
        print()
        print(
            f"{len(summary['metrics'])} metric familie(s) recorded "
            "(rerun with --json for the values)."
        )
    return 0


def _parse_grid_arguments(
    grid_args: Sequence[str], experiments: Sequence[str]
) -> tuple[dict[str, list], dict[str, list]]:
    """Split repeated ``--grid key=v1,v2`` flags into scenario and param grids.

    Scenario-field values are coerced by
    :data:`~repro.experiments.spec.SCENARIO_OVERRIDES`; experiment-parameter
    values are coerced by the parameter's declared type, so ``--grid
    deferrable=0.2,0.4`` produces floats exactly as ``--deferrable`` would.
    """
    param_types: dict[str, type] = {}
    for name in experiments:
        for param in get_experiment(name).params:
            param_types.setdefault(param.name, param.type)
    scenario_grid: dict[str, list] = {}
    param_grid: dict[str, list] = {}
    for item in grid_args:
        key, sep, raw_values = item.partition("=")
        key = key.strip()
        if not sep or not key:
            raise ConfigurationError(f"--grid expects KEY=V1,V2,..., got {item!r}")
        if key in scenario_grid or key in param_grid:
            raise ConfigurationError(
                f"duplicate grid key {key!r}; give each --grid key once, "
                f"with all its values comma-separated"
            )
        values = split_value_list(raw_values, f"--grid {key}")
        if key in SCENARIO_OVERRIDES:
            coerce, target = SCENARIO_OVERRIDES[key], scenario_grid
        elif key in param_types:
            coerce, target = param_types[key], param_grid
        else:
            valid = sorted(set(SCENARIO_OVERRIDES) | set(param_types))
            raise ConfigurationError(
                f"unknown grid key {key!r}; sweepable keys for this campaign: {valid}"
            )
        try:
            target[key] = [coerce(value) for value in values]
        except (TypeError, ValueError) as exc:
            raise ConfigurationError(f"could not parse --grid {key} values: {exc}") from None
    return scenario_grid, param_grid


def _resolve_workers(cli_value: int | None) -> int | None:
    """The worker count from ``--workers``, else ``GREENHPC_WORKERS``, else ``None``."""
    if cli_value is not None:
        return cli_value
    raw = os.environ.get("GREENHPC_WORKERS", "").strip()
    if not raw:
        return None
    try:
        return int(raw)
    except ValueError:
        raise ConfigurationError(
            f"GREENHPC_WORKERS must be an integer, got {raw!r}"
        ) from None


def _build_campaign(args: argparse.Namespace, base_spec) -> CampaignSpec:
    """The campaign described by ``--experiments``/``--grid`` over ``base_spec``.

    Shared by ``sweep`` and ``report`` so both address the *same* cache
    keys: a report over the flags of a finished sweep finds its artifacts.
    """
    experiments = split_value_list(args.experiments, "--experiments")
    scenario_grid, param_grid = _parse_grid_arguments(args.grid, experiments)
    return CampaignSpec(
        experiments=experiments,
        base=base_spec,
        scenario_grid=scenario_grid,
        param_grid=param_grid,
        seed=base_spec.seed,
    )


def _resolve_store(args: argparse.Namespace):
    """The artifact store from ``--cache-dir`` / ``GREENHPC_CACHE_DIR``, if any."""
    if args.no_cache:
        if args.cache_dir is not None:
            raise ConfigurationError("--cache-dir and --no-cache are mutually exclusive")
        return None
    cache_dir = args.cache_dir or os.environ.get("GREENHPC_CACHE_DIR", "").strip() or None
    if cache_dir is None:
        return None
    from .artifacts import ArtifactStore

    return ArtifactStore(cache_dir)


def _run_sweep(args: argparse.Namespace, parallel: ParallelConfig | None, base_spec) -> int:
    """The ``greenhpc sweep`` subcommand: build, run and render a campaign."""
    if args.json and args.csv:
        raise ConfigurationError("--json and --csv are mutually exclusive")
    campaign = _build_campaign(args, base_spec)
    store = _resolve_store(args)
    result = run_campaign(campaign, parallel, store=store, force=args.force)
    if args.json:
        print(result.to_json(indent=2))
    elif args.csv:
        print(result.to_csv(), end="")
    else:
        _print_rows(result.rows)
        workers = parallel.resolved_workers() if parallel is not None else 1
        print()
        print(
            f"{len(result)} campaign point(s) across "
            f"{len(campaign.experiments)} experiment(s), {workers} worker(s)"
        )
        if result.cache_hits is not None:
            print(
                f"artifact cache: {result.cache_hits} hit(s), "
                f"{result.cache_misses} simulated ({store.root})"
            )
    return 0


def _run_report(args: argparse.Namespace, parallel: ParallelConfig | None, base_spec) -> int:
    """The ``greenhpc report`` subcommand: the figure battery from the store."""
    from .experiments.report import campaign_report

    campaign = _build_campaign(args, base_spec)
    store = _resolve_store(args)
    if store is None:
        raise ConfigurationError(
            "report needs an artifact store: pass --cache-dir DIR (or set "
            "GREENHPC_CACHE_DIR) pointing at a directory a sweep populated"
        )
    report = campaign_report(
        campaign,
        store,
        parallel=parallel,
        simulate=args.simulate or args.force,
        force=args.force,
    )
    written: list[str] = []
    if args.out is not None:
        import pathlib

        out_dir = pathlib.Path(args.out)
        out_dir.mkdir(parents=True, exist_ok=True)
        for name, text in (("report.md", report.markdown), ("report.html", report.html)):
            path = out_dir / name
            path.write_text(text)
            written.append(str(path))
    if args.json:
        import json

        payload = report.to_dict()
        payload["written"] = written
        print(json.dumps(payload, indent=2))
    elif written:
        print(
            f"artifact cache: {report.result.cache_hits} hit(s), "
            f"{report.result.cache_misses} simulated ({store.root})"
        )
        for path in written:
            print(f"wrote {path}")
    else:
        print(report.markdown)
    return 0


def _dispatch_command(args: argparse.Namespace) -> int:
    """Run the parsed subcommand (tracing, if requested, is already installed)."""
    if args.command == "policies":
        return _run_policies(args)
    if args.command == "obs":
        return _run_obs(args)
    if args.command == "serve":
        # Like "policies", serve takes no scenario: sessions carry their own.
        from .serve.daemon import run_serve

        return run_serve(args)
    spec = get_scenario(args.scenario)
    overrides: dict[str, object] = {}
    if args.seed is not None:
        overrides["seed"] = args.seed
    if args.months is not None:
        overrides["n_months"] = args.months
    if args.site is not None:
        overrides["site"] = get_site(args.site)
    if overrides:
        spec = spec.replace(**overrides)
    workers = _resolve_workers(args.workers)
    # An explicit worker request also lowers the serial-fallback floor:
    # the operator asked for processes, so small sweeps use them too.
    parallel = (
        ParallelConfig(n_workers=workers, min_tasks_for_processes=2)
        if workers is not None
        else None
    )
    if args.command == "sweep":
        return _run_sweep(args, parallel, spec)
    if args.command == "report":
        return _run_report(args, parallel, spec)
    definition = get_experiment(args.command)
    session = ExperimentSession(spec, parallel=parallel)
    params = {param.name: getattr(args, param.name) for param in definition.params}
    result = definition.run(session, **params)
    if args.json:
        print(result.to_json(indent=2))
    else:
        _render_text(result)
    return 0


def main(argv: Sequence[str] | None = None) -> int:
    """CLI entry point; returns the process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    trace_out = getattr(args, "trace_out", None)
    try:
        if trace_out is None:
            return _dispatch_command(args)
        from .obs import TraceRecorder, set_recorder, write_trace

        recorder = TraceRecorder(cpu_time=True)
        previous = set_recorder(recorder)
        try:
            return _dispatch_command(args)
        finally:
            # Export even when the command failed: a partial trace of a
            # crashed run is exactly what an operator wants to look at.
            set_recorder(previous)
            fmt = write_trace(recorder, trace_out)
            print(
                f"greenhpc: wrote {fmt} trace ({len(recorder)} span(s)) to {trace_out}",
                file=sys.stderr,
            )
    except GreenHPCError as exc:
        print(f"greenhpc: error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
