"""repro.serve — the long-running simulation service.

Everything else in the toolkit is batch: build a world, run it, exit.  This
package keeps worlds *warm* instead.  ``greenhpc serve`` starts an HTTP
daemon (stdlib sockets — no new dependencies) holding any number of
live mid-run :class:`~repro.cluster.simulator.ClusterSimulator` sessions:

* **Sessions** (:mod:`.session`) — create a session over any registered
  scenario, submit jobs mid-run, advance simulated time in bounded requests.
  Concurrent sessions over the same scenario spec share one cached substrate
  build through a thread-safe :class:`~repro.experiments.ExperimentSession`.
* **Streaming** (:meth:`~.daemon.ServeDaemon._stream_telemetry`) — per-tick
  power/carbon/price telemetry as NDJSON, resumable via ``?since=``.
* **What-if routing** (:meth:`.session.SessionManager.route`) — run any
  router spec from the :mod:`repro.fleet.routing` grammar over the live
  sessions' queue/occupancy/grid snapshots without submitting anything.
* **Checkpoint/restore** (:mod:`.checkpoint`) — periodic and
  SIGTERM-drain checkpoints of each session's inputs (an append-only
  journal of its client jobs); a restarted daemon pointed at the same
  directory replays them and resumes every session **bit-identically**.
* **Client** (:mod:`.client`) — a pure-stdlib :class:`ServeClient`;
  ``examples/serve_client.py`` walks the whole lifecycle including a
  kill-and-restore.

Connections are persistent HTTP/1.1: a client thread sends all its requests
over one kept-alive connection, and a telemetry stream runs on a connection
of its own that closes when the stream is done.  The daemon closes a
connection left idle for its ``request_timeout_s`` (the client then resends
on a fresh one), and once its graceful drain has started it answers every
request with a 503 and closes the connection.

Quick start::

    greenhpc serve --port 8714 --checkpoint-dir ./ckpt

    >>> from repro.serve import ServeClient           # doctest: +SKIP
    >>> client = ServeClient("http://127.0.0.1:8714") # doctest: +SKIP
    >>> s = client.create_session(scenario="default", preload_jobs=100)  # doctest: +SKIP
    >>> client.advance(s["session_id"], until_h=48.0) # doctest: +SKIP
"""

from .checkpoint import CHECKPOINT_FORMAT_VERSION, CheckpointStore
from .client import ServeClient
from .daemon import ServeDaemon, run_serve
from .session import ServeSession, SessionManager, TelemetryObserver, UnknownSessionError

__all__ = [
    "CHECKPOINT_FORMAT_VERSION",
    "CheckpointStore",
    "ServeClient",
    "ServeDaemon",
    "run_serve",
    "ServeSession",
    "SessionManager",
    "TelemetryObserver",
    "UnknownSessionError",
]
