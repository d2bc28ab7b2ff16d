"""On-disk checkpoint store for the simulation service.

One directory holds every session's checkpoints as JSON files named
``<session_id>.<sequence>.json``.  Writes are atomic (temp file +
``os.replace``) so a crash mid-write never corrupts the latest restorable
state, and only the newest ``keep`` checkpoints per session are retained.

The payload written here is the service-level envelope: session metadata
(scenario name, overrides, policy, horizon) next to the simulator's
versioned :class:`~repro.cluster.simulator.SimulatorSnapshot` payload and
the telemetry rows already streamed, so a restarted daemon resumes both the
simulation *and* the stream exactly where they stopped.
"""

from __future__ import annotations

import json
import re
from pathlib import Path
from typing import Optional

from ..artifacts.store import atomic_write_text
from ..errors import CheckpointError

__all__ = ["CHECKPOINT_FORMAT_VERSION", "CheckpointStore"]

#: Version of the service checkpoint envelope (the simulator snapshot inside
#: carries its own version).
CHECKPOINT_FORMAT_VERSION = 1

_FILENAME = re.compile(r"^(?P<session>[A-Za-z0-9_-]+)\.(?P<seq>\d{8})\.json$")


class CheckpointStore:
    """Atomic, pruned, per-session checkpoint files under one root directory.

    Parameters
    ----------
    root:
        Directory to hold the checkpoint files (created if missing).
    keep:
        Newest checkpoints retained per session; older ones are pruned after
        every successful save.
    """

    def __init__(self, root: str | Path, *, keep: int = 3) -> None:
        if keep < 1:
            raise CheckpointError(f"keep must be at least 1, got {keep!r}")
        self.root = Path(root)
        self.keep = int(keep)
        self.root.mkdir(parents=True, exist_ok=True)

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
