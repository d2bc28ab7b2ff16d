"""perfbench: end-to-end and per-layer benchmark of the repro simulator.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads (see ``BENCHMARK.json`` for why each was chosen):

``sim-xlarge``
    ``ExperimentSession.simulate_policy("backfill")`` on ``supercloud-xlarge``
    (1024x8 A100), 8000 jobs over 28 days; under-subscribed, so placement
    and the event heap do the work.
``sweep-oversub``
    A cold ``run_campaign`` of the ``schedule`` experiment over 2 seeds x 6
    composed policies on ``supercloud-small`` (3000 jobs, 28 days) into an
    empty ``ArtifactStore`` with no cached sessions, then all-hit warm
    re-sweeps of the same store; deep queues, so ``select`` does the work.
``fleet-deca``
    ``FleetSimulator.run`` of ``deca-continental-small`` (10 sites), router
    ``carbon-min+queue-cap(max=50)``, 10 000 jobs over 7 days, stepped on
    ``min(2, nproc)`` worker processes.
``serve-sessions``
    A ``greenhpc serve`` daemon (checkpoints every 24 simulated hours) and
    one closed-loop ``ServeClient``: two 28-day sessions (2000 and 800
    preloaded jobs) advanced one hour per request, with telemetry, status
    and a ``/route`` what-if every 6 hours, then finalized.

With ``--trace 0`` the run measures, with no wrappers installed:

``setup_s``
    Median of three set-ups (importing ``repro``, building the substrates
    and the job trace): this process's, timed from its start, and two in
    fresh processes, timed from spawn to ready; for ``serve-sessions``,
    daemon spawn until listening plus session creation, three times.
``jobs_per_s``
    Trace jobs simulated per host second: all jobs of the timed operations
    over their summed wall time (the cold sweeps for ``sweep-oversub``, the
    client loop for ``serve-sessions``).
``peak_rss_mb``
    Peak resident memory of the benchmark process; for ``fleet-deca`` its
    peak plus the largest stepping worker's, for ``serve-sessions`` the
    daemon's.

Both timings are scaled to a reference host speed: between timed operations
the run times a fixed pure-Python loop (``bench.HostSpeed``), and ``setup_s``
is multiplied, ``jobs_per_s`` divided, by the reference loop time over the
run's mean loop time, printed as ``host_factor``.  On a small shared host the
CPU speed drifts by tens of percent over minutes, which the scaling removes
from most of a run-to-run comparison.  The unscaled figures are printed as
``raw_*``.

It also prints, unscaled and with sample counts, the mean, median and the
highest percentile with at least ten samples beyond it (never below the
median) of the workload's request (a simulate_policy run, an all-hit warm
re-sweep, a fleet run, an advance request), the error rate, and
per-workload figures (``cold_sweep_s``, ``read_*``, ``sim_hours_per_s``).
These latencies are not gated.  Where the request is the throughput
operation they repeat ``jobs_per_s``; serve's closed loop makes its
throughput the reciprocal of its summed request latencies; and on a 2-vCPU
shared host the 1.5 ms warm re-sweep swings by up to 1.8x with the host's
state, which the loop does not track.

With ``--trace 1`` it alternates untraced passes with passes that run under
the wrappers of ``layers.py``, checks that the call counts repeat exactly
between passes, prints the per-layer metrics (counts from one pass, times as
medians over passes), the traced / untraced wall ratio as
``trace_overhead``, and writes the spans as a Chrome trace to
``.perfbench/trace-<workload>-seed<N>.json``.

Every run checks the workload's outputs (digests that must repeat, plus the
checks listed per workload) and prints one JSON object as its last line.
It exits non-zero when a check fails.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
import time

import bench
import layers

#: Per-layer metrics only some workloads produce; the others report 0.
WORKLOAD_SPECIFIC = ("campaign.", "fleet.", "serve.http_overhead_ms")


def parse_args(argv: list) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def untraced_run(workload, seconds: float) -> tuple[dict, list]:
    m = workload.measure(seconds)
    if not m.setup_s:
        raise RuntimeError("no set-up sample succeeded")
    tail_value, percentile = bench.tail(m.latency_s)
    n = len(m.latency_s)
    host = workload.host
    factor = host.factor()
    setup_s = statistics.median(m.setup_s)
    jobs_per_s = m.jobs / m.busy_s
    rows = [
        ("setup_s", setup_s * factor, "s", len(m.setup_s), "median, scaled"),
        ("jobs_per_s", jobs_per_s / factor, "1/s", m.ops, f"{m.jobs} jobs in {m.busy_s:.2f} s, scaled"),
        ("peak_rss_mb", m.peak_rss_mb, "MB", 1, ""),
        ("host_factor", factor, "ratio", len(host.samples), "scale: reference loop / this run's loop"),
        ("raw_setup_s", setup_s, "s", len(m.setup_s), "median"),
        ("raw_jobs_per_s", jobs_per_s, "1/s", m.ops, ""),
        ("mean_ms", 1e3 * statistics.fmean(m.latency_s), "ms", n, workload.request),
        ("p50_ms", 1e3 * statistics.median(m.latency_s), "ms", n, ""),
        ("tail_ms", 1e3 * tail_value, "ms", n, f"p{percentile:.2f}"),
    ]
    tally = workload.tally
    rows += m.extras + [
        ("error_rate", tally.failed / max(tally.attempted, 1), "ratio", tally.attempted, ""),
    ]
    return {name: value for name, value, *_ in rows}, rows


def traced_run(workload, seconds: float, names: list) -> tuple[dict, list]:
    start = time.perf_counter()
    workload.import_repro()
    import_s = time.perf_counter() - start
    from repro.obs import TraceRecorder, write_trace

    recorder = TraceRecorder()
    profiler = layers.LayerProfiler(recorder)
    recorder.event("bench.context", **bench.run_context(workload.seed), workload=workload.name)
    workload.setup_metrics["setup.import_s"] = import_s
    workload.traced_setup(profiler)
    passes, overhead = workload.traced(seconds, profiler)
    setup = workload.setup_metrics

    metrics = {}
    for key in passes[0]:
        values = [p[key] for p in passes]
        if key in layers.EXACT_COUNTS:
            workload.tally.op(
                len(set(values)) == 1, f"count {key} differs between passes: {values}"
            )
            metrics[key] = values[0]
        else:
            metrics[key] = statistics.median(values)
    for key in ("setup.scenario_build_s", "setup.job_trace_s"):
        metrics[key] = setup.get(key, 0.0) + metrics[key]
    metrics["setup.import_s"] = setup["setup.import_s"]
    metrics["trace_overhead"] = overhead
    for name in names:
        if name not in metrics:
            if not name.startswith(WORKLOAD_SPECIFIC):
                raise KeyError(f"per-layer metric {name!r} was not measured")
            metrics[name] = 0.0
    path = bench.OUT / f"trace-{workload.name}-seed{workload.seed}.json"
    write_trace(recorder, str(path))
    print(f"perfbench: wrote Chrome trace ({len(recorder)} spans) to {path}", file=sys.stderr)
    rows = [(name, metrics[name], "", len(passes), "") for name in names if metrics[name]]
    idle = [name for name in names if not metrics[name]]
    rows.append(("idle (0)", len(idle), "", len(passes), " ".join(idle)))
    return metrics, rows


def main(argv: list | None = None) -> int:
    args = parse_args(sys.argv[1:] if argv is None else argv)
    bench.use_source_tree()
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        raise SystemExit(f"perfbench: unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")
    workload = WORKLOADS[args.workload](args.seed)
    if args.setup_probe:
        workload.setup()
        print("ready", flush=True)
        return 0

    spec = json.loads((bench.ROOT / "BENCHMARK.json").read_text())
    kind = "per_layer" if args.trace else "end_to_end"
    units = {metric["name"]: metric["unit"] for metric in spec[kind]}
    bench.OUT.mkdir(exist_ok=True)
    try:
        if args.trace:
            values, rows = traced_run(workload, args.seconds, list(units))
        else:
            values, rows = untraced_run(workload, args.seconds)
    finally:
        workload.close()

    context = bench.run_context(args.seed)
    print("perfbench " + " ".join(f"{k}={v!r}" for k, v in dict(workload=workload.name, **context).items()))
    print(f"perfbench digest={workload.digest}")
    for name, value, unit, samples, note in rows:
        unit = units.get(name, unit)
        print(f"  {name:32s} {value:16.6g} {unit:6s} n={samples:<6d} {note}")
    tally = workload.tally
    for problem in tally.problems:
        print(f"perfbench: check failed: {problem}", file=sys.stderr)
    correct = tally.failed == 0
    result = {
        "correct": correct,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    raise SystemExit(main())
