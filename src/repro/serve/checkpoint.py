"""On-disk checkpoint store for the simulation service.

One directory holds every session's checkpoints as JSON files named
``<session_id>.<sequence>.json``.  Writes are atomic (temp file +
``os.replace``) so a crash mid-write never corrupts the latest restorable
state, and only the newest ``keep`` checkpoints per session are retained.

A checkpoint holds a session's inputs, not its state.  The payload is:

* ``meta``: the session's creation parameters (scenario name, overrides,
  policy, horizon, tick, power budget and cap, preload size) and its
  checkpoint count;
* ``journal``: one ``[advanced_to_h, static fields]`` entry per client job
  the session accepted, in submission order, where ``advanced_to_h`` is the
  session's cursor when the job came in.  The journal only grows, so each
  checkpoint's journal is a prefix of the next one's;
* ``advanced_to_h``: how far the session had advanced;
* ``cursor``: the simulator's O(1)
  :meth:`~repro.cluster.simulator.ClusterSimulator.snapshot` at that bound.

The preload trace is not stored: the meta regenerates it.  A
restore (:meth:`~repro.serve.session.ServeSession.from_checkpoint`) builds
the session again, replays the journal, advances to ``advanced_to_h`` and
checks that it reached ``cursor``.  The telemetry rows are regenerated on
the way, so a restarted daemon resumes both the simulation *and* the stream
exactly where they stopped.  A save costs a few hundred bytes per client
job; the cost of a restore is one uninterrupted run up to the cursor.

With a :class:`~repro.obs.metrics.MetricsRegistry`, every save counts into
``serve_checkpoints_total`` and ``serve_checkpoint_bytes_total`` and
observes its encode-plus-atomic-write time in ``serve_checkpoint_seconds``.
"""

from __future__ import annotations

import json
import re
import time
from pathlib import Path
from typing import Optional

from ..artifacts.store import atomic_write_text
from ..errors import CheckpointError
from ..obs.metrics import MetricsRegistry

__all__ = ["CHECKPOINT_FORMAT_VERSION", "SESSION_ID", "CheckpointStore"]

#: Version of the checkpoint payload.  Version 4 is the input journal; the
#: simulator snapshots of versions 1-3 are refused.
CHECKPOINT_FORMAT_VERSION = 4

#: The session ids a checkpoint file can be named after and listed again:
#: ASCII letters and digits, ``-`` and ``_``.
SESSION_ID = re.compile(r"[A-Za-z0-9_-]+")

_FILENAME = re.compile(rf"^(?P<session>{SESSION_ID.pattern})\.(?P<seq>\d{{8}})\.json$")


class CheckpointStore:
    """Atomic, pruned, per-session checkpoint files under one root directory.

    Parameters
    ----------
    root:
        Directory to hold the checkpoint files (created if missing).
    keep:
        Newest checkpoints retained per session; older ones are pruned after
        every successful save.
    metrics:
        Registry to count saves, bytes and save latency into (optional).
    """

    def __init__(
        self,
        root: str | Path,
        *,
        keep: int = 3,
        metrics: Optional[MetricsRegistry] = None,
    ) -> None:
        if keep < 1:
            raise CheckpointError(f"keep must be at least 1, got {keep!r}")
        self.root = Path(root)
        self.keep = int(keep)
        self.root.mkdir(parents=True, exist_ok=True)
        self._metrics = None
        if metrics is not None:
            self._metrics = (
                metrics.counter("serve_checkpoints_total", help="Checkpoints written"),
                metrics.counter(
                    "serve_checkpoint_bytes_total", help="Bytes of checkpoints written"
                ),
                metrics.histogram(
                    "serve_checkpoint_seconds",
                    help="Time to encode and atomically write one checkpoint",
                ),
            )

    # ------------------------------------------------------------------
    # Listing
    # ------------------------------------------------------------------
    def checkpoints(self, session_id: str) -> list[Path]:
        """This session's checkpoint files, oldest first."""
        entries = []
        for path in self.root.iterdir():
            match = _FILENAME.match(path.name)
            if match and match.group("session") == session_id:
                entries.append((int(match.group("seq")), path))
        return [path for _, path in sorted(entries)]

    def session_ids(self) -> list[str]:
        """Every session id with at least one checkpoint on disk (sorted)."""
        ids = set()
        for path in self.root.iterdir():
            match = _FILENAME.match(path.name)
            if match:
                ids.add(match.group("session"))
        return sorted(ids)

    # ------------------------------------------------------------------
    # Save / load
    # ------------------------------------------------------------------
    def save(self, session_id: str, payload: dict) -> Path:
        """Atomically write the next checkpoint for ``session_id``; prune old ones."""
        existing = self.checkpoints(session_id)
        if existing:
            last = int(_FILENAME.match(existing[-1].name).group("seq"))
        else:
            last = -1
        target = self.root / f"{session_id}.{last + 1:08d}.json"
        start = time.perf_counter()
        try:
            encoded = json.dumps(payload, allow_nan=False, separators=(",", ":"))
        except (TypeError, ValueError) as exc:
            raise CheckpointError(
                f"checkpoint payload for session {session_id!r} is not "
                f"JSON-serializable: {exc}"
            ) from None
        try:
            atomic_write_text(target, encoded)
        except OSError as exc:
            raise CheckpointError(
                f"could not write checkpoint {target.name!r}: {exc}"
            ) from None
        if self._metrics is not None:
            saves, written, seconds = self._metrics
            seconds.observe(time.perf_counter() - start)
            saves.inc()
            written.inc(len(encoded))  # json.dumps escapes to ASCII: one byte a char
        for stale in self.checkpoints(session_id)[: -self.keep]:
            try:
                stale.unlink()
            except OSError:
                pass  # pruning is best-effort; the new checkpoint is durable
        return target

    def load(self, path: Path) -> dict:
        """Read and validate one checkpoint file."""
        try:
            payload = json.loads(Path(path).read_text())
        except (OSError, ValueError) as exc:
            raise CheckpointError(f"could not read checkpoint {path!s}: {exc}") from None
        version = payload.get("format") if isinstance(payload, dict) else None
        if version != CHECKPOINT_FORMAT_VERSION:
            raise CheckpointError(
                f"checkpoint {path!s} has format version {version!r}; "
                f"this build reads version {CHECKPOINT_FORMAT_VERSION}"
            )
        return payload

    def latest(self, session_id: str) -> Optional[dict]:
        """The newest restorable checkpoint payload for ``session_id``.

        Corrupt or partially written files are skipped (newest first), so a
        crash during a save falls back to the previous durable checkpoint;
        returns ``None`` when nothing restorable exists.
        """
        for path in reversed(self.checkpoints(session_id)):
            try:
                return self.load(path)
            except CheckpointError:
                continue
        return None
