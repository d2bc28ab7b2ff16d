"""CLAIM-CAMPAIGN — the campaign layer makes sweep-shaped questions one-liners.

The paper's results are all sweeps (power-cap fractions, operating-point
grids, stress batteries, policy comparisons).  This benchmark times a
multi-scenario campaign — two experiments over a seed × horizon grid —
through the declarative campaign API and checks its core guarantees: the
expansion is reproducibly seeded, serial and multi-process execution return
identical rows, and worker-local sessions build each distinct world's
substrates exactly once.

CLAIM-CAMPAIGN-CACHE — against a content-addressed artifact store the same
sweep becomes incremental: the cached re-sweep benchmark times a warm run
(every point served from disk, zero simulator executions) and gates it
against the cold run that populated the store.
"""

import time

from benchmarks._report import print_header, print_rows
from repro.experiments import CampaignSpec, run_campaign
from repro.experiments.campaign import _WORKER_SESSIONS, clear_worker_sessions
from repro.parallel import ParallelConfig

CAMPAIGN = CampaignSpec(
    experiments=("table1", "powercap"),
    scenario_grid={"seed": [0, 1], "n_months": [3, 4]},
)


def test_bench_campaign_sweep(benchmark):
    # Cold rounds: each starts with no cached worker sessions.
    result = benchmark.pedantic(
        run_campaign, args=(CAMPAIGN,), setup=clear_worker_sessions, rounds=20
    )

    print_header("Campaign — 2 experiments x (2 seeds x 2 horizons)")
    summary = result.summarize("experiment")
    columns: list[str] = []
    for record in summary:
        columns.extend(key for key in record if key not in columns)
    print_rows([{key: record.get(key, "-") for key in columns} for record in summary])

    assert len(result) == 8
    assert [p.index for p in result.points] == list(range(8))
    # Reproducibly seeded expansion: a re-expansion yields the same points.
    assert [p.seed for p in CAMPAIGN.expand()] == [p.seed for p in result.points]

    # Serial and multi-process execution produce identical rows.
    parallel = run_campaign(CAMPAIGN, ParallelConfig(n_workers=2))
    assert parallel.rows == result.rows

    # One session per distinct world, shared across experiments (serial path).
    clear_worker_sessions()
    run_campaign(CAMPAIGN)
    assert len(_WORKER_SESSIONS) == 4  # 2 seeds x 2 horizons
    clear_worker_sessions()

    print("claim: any 'N experiments x M worlds' sweep is one declarative object")


def test_bench_campaign_cached_resweep(benchmark, tmp_path):
    from repro.artifacts import ArtifactStore

    store = ArtifactStore(tmp_path / "cache")

    clear_worker_sessions()  # make the cold run pay full substrate cost
    start = time.perf_counter()
    cold = run_campaign(CAMPAIGN, store=store)
    cold_s = time.perf_counter() - start
    assert (cold.cache_hits, cold.cache_misses) == (0, 8)

    warm = benchmark(lambda: run_campaign(CAMPAIGN, store=store))
    assert (warm.cache_hits, warm.cache_misses) == (8, 0)
    assert warm.to_csv() == cold.to_csv()  # byte-identical rows

    start = time.perf_counter()
    run_campaign(CAMPAIGN, store=store)
    warm_s = time.perf_counter() - start

    print_header("Campaign — cold sweep vs cached re-sweep (8 points)")
    print_rows(
        [
            {"run": "cold", "seconds": f"{cold_s:.3f}", "cached": 0, "simulated": 8},
            {"run": "warm", "seconds": f"{warm_s:.3f}", "cached": 8, "simulated": 0},
        ]
    )
    assert warm_s < cold_s, f"cached re-sweep ({warm_s:.3f}s) not faster than cold ({cold_s:.3f}s)"
    print("claim: an unchanged re-sweep is pure disk reads — zero simulator executions")
