#!/usr/bin/env python
"""The simulation service, end to end: submit, stream, kill, restore, resume.

Starts a ``greenhpc serve`` daemon as a subprocess, then walks the whole
lifecycle from a pure-stdlib `ServeClient`:

1. create a warm session (a registered scenario + a scheduling policy);
2. submit jobs mid-run and advance simulated time in bounded requests;
3. stream per-tick power/carbon/price telemetry as NDJSON;
4. ask a what-if routing question across live sessions;
5. checkpoint, **kill the daemon without warning**, restart it on the same
   checkpoint directory, and show the restored session resuming exactly
   where it stopped.

Run with::

    python examples/serve_client.py

or point it at an already-running daemon (skips the subprocess management)::

    greenhpc serve --port 8714 --checkpoint-dir ./ckpt &
    python examples/serve_client.py --external-url http://127.0.0.1:8714
"""

from __future__ import annotations

import argparse
import os
import re
import shutil
import signal
import subprocess
import sys
import tempfile
import time

from repro.serve import ServeClient

SCENARIO = "supercloud-small"
HORIZON_H = 96.0


def start_daemon(checkpoint_dir: str) -> tuple[subprocess.Popen, str]:
    """Launch ``greenhpc serve`` on an ephemeral port; return (process, url)."""
    process = subprocess.Popen(
        [
            sys.executable,
            "-m",
            "repro.cli",
            "serve",
            "--port",
            "0",
            "--checkpoint-dir",
            checkpoint_dir,
            "--checkpoint-every-h",
            "24",
        ],
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
        text=True,
        env={**os.environ, "PYTHONUNBUFFERED": "1"},
    )
    # The daemon announces its bound address on the first stdout line.
    line = process.stdout.readline()
    match = re.search(r"listening on (http://\S+)", line)
    if not match:
        process.kill()
        raise RuntimeError(f"daemon did not announce its port: {line!r}")
    return process, match.group(1)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--external-url",
        default=None,
        help="use a daemon already running at this URL instead of spawning one",
    )
    args = parser.parse_args()

    external = args.external_url is not None
    checkpoint_dir = None if external else tempfile.mkdtemp(prefix="greenhpc-serve-")
    process = client = None
    try:
        if external:
            url = args.external_url
        else:
            process, url = start_daemon(checkpoint_dir)
        client = ServeClient(url)
        print(f"daemon: {url}  ({client.version()['version']})")

        # 1. A warm session, preloaded with a SuperCloud-like trace.
        status = client.create_session(
            session_id="live-demo",
            scenario=SCENARIO,
            policy="backfill",
            horizon_h=HORIZON_H,
            preload_jobs=120,
        )
        print(f"session {status['session_id']}: policy={status['policy']}, "
              f"horizon={status['horizon_h']}h, spec={status['spec_hash']}")

        # 2. Advance two simulated days, then feed in jobs that arrive later.
        status = client.advance("live-demo", until_h=48.0)
        print(f"advanced to t={status['now_h']}h: "
              f"{status['n_running']} running, {status['n_pending']} queued")
        client.submit_jobs(
            "live-demo",
            [
                {"job_id": "interactive-a", "user_id": "demo", "n_gpus": 2,
                 "duration_h": 4.0, "submit_time_h": 50.0},
                {"job_id": "interactive-b", "user_id": "demo", "n_gpus": 8,
                 "duration_h": 2.0, "submit_time_h": 52.0, "deadline_h": 72.0},
            ],
        )
        print("submitted 2 jobs mid-run (t=50h, t=52h)")

        # 3. Stream the telemetry recorded so far.
        rows = list(client.stream_telemetry("live-demo"))
        peak = max(rows, key=lambda row: row["facility_power_w"])
        print(f"streamed {len(rows)} ticks; peak facility power "
              f"{peak['facility_power_w'] / 1e3:.1f} kW at t={peak['now_h']}h "
              f"(PUE {peak['pue']:.3f})")

        # 4. A what-if routing question across live sessions.
        client.create_session(
            session_id="desert-twin",
            scenario="supercloud-small",
            site="phoenix-az",
            policy="backfill",
            horizon_h=HORIZON_H,
        )
        answer = client.route(
            {"job_id": "probe", "user_id": "demo", "n_gpus": 4,
             "duration_h": 3.0, "submit_time_h": 48.0},
            router="least-queued",
        )
        print(f"what-if: 'least-queued' would route the probe job to "
              f"{answer['session_id']!r} "
              f"({len(answer['candidates'])} candidate sessions)")

        # 5. Checkpoint, kill without warning, restart, resume.
        checkpoint = client.checkpoint("live-demo")
        print(f"checkpointed to {checkpoint['checkpoint']}")
        if external:
            print("(--external-url: skipping the kill/restore leg)")
        else:
            process.send_signal(signal.SIGKILL)  # no drain, no goodbye
            process.wait()
            print("daemon killed (SIGKILL)")
            process, url = start_daemon(checkpoint_dir)
            client.close()  # its kept-alive connection died with the daemon
            client = ServeClient(url)
            restored = client.health()["restored"]
            print(f"daemon restarted: restored sessions {restored}")
            status = client.session_status("live-demo")
            print(f"live-demo resumed at t={status['now_h']}h with "
                  f"{status['ticks_recorded']} ticks already streamed")

        # Finish the run where it left off.
        status = client.advance("live-demo", until_h=HORIZON_H)
        summary = client.finalize("live-demo")["summary"]
        print(f"finalized at t={status['now_h']}h: "
              f"{summary['completed_jobs']:.0f} jobs completed, "
              f"{summary['facility_energy_kwh']:.1f} kWh facility energy, "
              f"{summary['emissions_kg']:.1f} kg CO2e")
        return 0
    finally:
        if client is not None:
            client.close()
        if process is not None:
            process.terminate()
            process.wait(timeout=10)
        if checkpoint_dir is not None:
            shutil.rmtree(checkpoint_dir, ignore_errors=True)


if __name__ == "__main__":
    raise SystemExit(main())
