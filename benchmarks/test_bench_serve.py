"""PERF-SERVE-ROUNDTRIP — a warm session's whole life, as a client sees it.

ROADMAP aim 1 names "a serve request" among the end-to-end wall times.  This
benchmark times one round of the service's main loop: an in-thread
``greenhpc serve`` daemon and one :class:`~repro.serve.ServeClient` doing
create → 48 one-hour advances → finalize on ``supercloud-small``.  A round is
~50 requests over the client's one kept-alive connection, so it measures
per-request transport and dispatch together with the stepped simulation
behind them.

Gates: the median round takes at most **2 s**, and every round's finalize
summary equals :meth:`~repro.experiments.ExperimentSession.simulate_policy`
for the same scenario, seed, policy and trace — stepping a session over HTTP
changes nothing about the run.
"""

from __future__ import annotations

import itertools
import json
import statistics
import threading
import time

import pytest

from benchmarks._report import print_header, print_rows
from repro.experiments import ExperimentSession
from repro.serve import ServeClient, ServeDaemon

SCENARIO = "supercloud-small"
SEED = 0
N_JOBS = 60
HOURS = 48

#: Median wall time of one create → 48 advances → finalize round.
MAX_ROUND_S = 2.0

ROUNDS = 10


@pytest.fixture(scope="module")
def daemon():
    daemon = ServeDaemon(port=0, checkpoint_dir=None)
    thread = threading.Thread(target=daemon.serve_forever, daemon=True)
    thread.start()
    try:
        yield daemon
    finally:
        daemon._server.shutdown()
        daemon.close()
        thread.join(timeout=5)


def test_bench_serve_roundtrip(benchmark, daemon):
    expected = ExperimentSession(SCENARIO, seed=SEED).simulate_policy(
        "backfill", n_jobs=N_JOBS, horizon_h=float(HOURS)
    )
    expected_summary = json.loads(json.dumps(expected.summary()))
    session_ids = (f"bench-{i}" for i in itertools.count())
    round_s: list[float] = []
    summaries: list[dict] = []

    with ServeClient(f"http://127.0.0.1:{daemon.port}") as client:

        def roundtrip() -> None:
            start = time.perf_counter()
            session_id = next(session_ids)
            client.create_session(
                session_id=session_id, scenario=SCENARIO, seed=SEED,
                policy="backfill", horizon_h=float(HOURS), preload_jobs=N_JOBS,
            )
            for hour in range(1, HOURS + 1):
                client.advance(session_id, float(hour))
            summaries.append(client.finalize(session_id)["summary"])
            round_s.append(time.perf_counter() - start)
            client.delete_session(session_id)

        benchmark.pedantic(roundtrip, rounds=ROUNDS, iterations=1, warmup_rounds=1)

    median_s = statistics.median(round_s)
    print_header(f"Serve round trip — {SCENARIO}, create + {HOURS} advances + finalize")
    print_rows(
        [
            {
                "rounds": len(round_s),
                "requests_per_round": HOURS + 2,
                "median_s": median_s,
                "max_s": max(round_s),
                "per_request_ms": 1e3 * median_s / (HOURS + 2),
                "completed_jobs": expected_summary["completed_jobs"],
            }
        ]
    )
    assert all(summary == expected_summary for summary in summaries)
    assert median_s <= MAX_ROUND_S, (
        f"median serve round trip {median_s:.3f}s exceeds {MAX_ROUND_S}s"
    )
