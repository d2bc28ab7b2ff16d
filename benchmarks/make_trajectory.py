#!/usr/bin/env python
"""Compress pytest-benchmark JSON dumps into a perf-trajectory baseline.

The committed ``BENCH_<n>.json`` files at the repo root track how the
toolkit's wall times move across PRs.  Each merges one or more
pytest-benchmark output documents — the simulator-scale ladder, the cached
campaign re-sweep, ... — boiled down to the stats that matter for trend
reading (min/mean/stddev/rounds per benchmark), plus the machine context
needed to compare like with like.  Source files are recovered from each
benchmark's ``fullname``, so the ``source`` field lists every contributing
benchmark module.

Usage::

    python -m pytest benchmarks/test_bench_simulator_scale.py -q \\
        --benchmark-json=bench-simulator-scale.json
    python -m pytest benchmarks/test_bench_campaign.py -q \\
        --benchmark-json=bench-campaign.json
    python benchmarks/make_trajectory.py \\
        bench-simulator-scale.json bench-campaign.json BENCH_9.json

With ``--baseline BENCH_<n-1>.json`` it also prints, per benchmark, the new
``min_s`` over the baseline's, and exits 1 when any ratio exceeds
``1 + REGRESSION_TOLERANCE`` and both files name the same cpu (timings
from different hosts are printed but not gated).  The trajectory file is
written either way.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

#: Largest tolerated ``min_s`` growth against the baseline (15%).
REGRESSION_TOLERANCE = 0.15


def compact(raws: list[dict]) -> dict:
    """The merged trajectory view of one or more pytest-benchmark documents."""
    machine: dict = {}
    sources: list[str] = []
    benchmarks: list[dict] = []
    for raw in raws:
        machine = machine or raw.get("machine_info", {})
        for bench in raw.get("benchmarks", []):
            source = str(bench.get("fullname", "")).split("::")[0]
            if source and source not in sources:
                sources.append(source)
            benchmarks.append(
                {
                    "name": bench["name"],
                    "min_s": bench["stats"]["min"],
                    "mean_s": bench["stats"]["mean"],
                    "stddev_s": bench["stats"]["stddev"],
                    "rounds": bench["stats"]["rounds"],
                }
            )
    return {
        "source": sorted(sources),
        "python": machine.get("python_version"),
        "cpu": machine.get("cpu", {}).get("brand_raw"),
        "benchmarks": sorted(benchmarks, key=lambda b: b["name"]),
    }


def compare(trajectory: dict, baseline: dict) -> tuple[list[str], list[str]]:
    """Report lines and regressed names of ``trajectory`` against ``baseline``.

    Only benchmarks present in both are compared; a regression is a
    ``min_s`` ratio above ``1 + REGRESSION_TOLERANCE`` on the same cpu.
    """
    same_cpu = trajectory["cpu"] == baseline["cpu"]
    lines = [
        f"baseline cpu {baseline['cpu']!r}, this run {trajectory['cpu']!r}"
        + ("" if same_cpu else ": different hosts, ratios are not gated")
    ]
    regressed: list[str] = []
    before = {bench["name"]: bench["min_s"] for bench in baseline["benchmarks"]}
    for bench in trajectory["benchmarks"]:
        name = bench["name"]
        if name not in before:
            lines.append(f"  {name:48s}      new")
            continue
        ratio = bench["min_s"] / before[name]
        flag = ""
        if ratio > 1.0 + REGRESSION_TOLERANCE:
            flag = "  REGRESSION" if same_cpu else "  (slower, other host)"
            if same_cpu:
                regressed.append(name)
        lines.append(f"  {name:48s} {ratio:8.3f}x min_s{flag}")
    return lines, regressed


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(prog=argv[0], description=__doc__.splitlines()[0])
    parser.add_argument("inputs", nargs="+", metavar="pytest-benchmark.json")
    parser.add_argument("output", metavar="trajectory.json")
    parser.add_argument("--baseline", metavar="BENCH_<n-1>.json")
    args = parser.parse_args(argv[1:])
    raws = [json.loads(Path(path).read_text()) for path in args.inputs]
    trajectory = compact(raws)
    Path(args.output).write_text(json.dumps(trajectory, indent=2) + "\n")
    print(
        f"wrote {args.output} ({len(trajectory['benchmarks'])} benchmarks "
        f"from {len(raws)} input file(s))"
    )
    if args.baseline is None:
        return 0
    lines, regressed = compare(trajectory, json.loads(Path(args.baseline).read_text()))
    print("\n".join(lines))
    if regressed:
        print(
            f"min_s regressed more than {REGRESSION_TOLERANCE:.0%} against "
            f"{args.baseline}: {', '.join(regressed)}",
            file=sys.stderr,
        )
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv))
