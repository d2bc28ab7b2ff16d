"""The content-addressed on-disk artifact store.

One :class:`ArtifactStore` directory holds every cached campaign artifact
as a JSON file addressed by its content key (see
:mod:`repro.artifacts.keys`), sharded into 256 two-hex-character
subdirectories so fleet-scale campaigns do not pile tens of thousands of
files into one directory.

Durability is shared with :class:`~repro.serve.checkpoint.CheckpointStore`
through :func:`atomic_write_text`: every write goes to a synced temp file in
the same directory and lands with ``os.replace``, so a crash mid-write never
leaves a half-artifact at a live address.  Reads are defensive the other
way: a corrupt, truncated or foreign file at an address is treated as a
**miss** (and counted in :attr:`ArtifactStore.corrupt_reads`), never an
error — the caller simply recomputes and overwrites it.
"""

from __future__ import annotations

import contextlib
import json
import os
import tempfile
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Iterable, Iterator, Optional

from ..errors import ArtifactError

__all__ = ["ARTIFACT_FORMAT_VERSION", "ArtifactStore", "ArtifactStoreStats", "atomic_write_text"]

#: Version of the artifact file envelope; files written by a different
#: envelope version read as misses (the payload schema is re-derived).
ARTIFACT_FORMAT_VERSION = 1

_KEY_CHARS = frozenset("0123456789abcdef")


def atomic_write_text(path: Path, text: str) -> None:
    """Write ``text`` to ``path`` so readers see the old file or the new one.

    The text goes to a temp file in the same directory, is fsynced, and lands
    with ``os.replace``.  Raises :class:`OSError`; the temp file is removed
    on any failure.
    """
    fd, tmp_name = tempfile.mkstemp(dir=Path(path).parent, suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as handle:
            handle.write(text)
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(tmp_name, path)
    except BaseException:
        with contextlib.suppress(OSError):
            os.unlink(tmp_name)
        raise


def _validate_key(key: str) -> str:
    if not key or not isinstance(key, str) or set(key) - _KEY_CHARS or len(key) < 8:
        raise ArtifactError(f"malformed artifact key {key!r} (expected a hex digest)")
    return key


@dataclass(frozen=True)
class ArtifactStoreStats:
    """Size and traffic counters of one store.

    ``n_artifacts``/``total_bytes`` describe the on-disk population;
    ``hits``/``misses``/``writes``/``corrupt_reads`` count this process's
    traffic through the store object since it was opened.
    """

    root: str
    n_artifacts: int
    total_bytes: int
    hits: int
    misses: int
    writes: int
    corrupt_reads: int

    def to_dict(self) -> dict[str, Any]:
        return {
            "root": self.root,
            "n_artifacts": self.n_artifacts,
            "total_bytes": self.total_bytes,
            "hits": self.hits,
            "misses": self.misses,
            "writes": self.writes,
            "corrupt_reads": self.corrupt_reads,
        }


class ArtifactStore:
    """Content-addressed JSON artifacts under one root directory.

    Parameters
    ----------
    root:
        Directory to hold the artifacts (created if missing).

    Examples
    --------
    >>> import tempfile
    >>> store = ArtifactStore(tempfile.mkdtemp())
    >>> key = "ab" * 16
    >>> store.get(key) is None
    True
    >>> _ = store.put(key, {"rows": [1, 2, 3]})
    >>> store.get(key)
    {'rows': [1, 2, 3]}
    """

    def __init__(self, root: str | Path) -> None:
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)
        self.hits = 0
        self.misses = 0
        self.writes = 0
        self.corrupt_reads = 0

    # ------------------------------------------------------------------
    # Addressing
    # ------------------------------------------------------------------
    def path_for(self, key: str) -> Path:
        """The on-disk address of ``key`` (whether or not it exists)."""
        key = _validate_key(key)
        return self.root / key[:2] / f"{key}.json"

    def __contains__(self, key: str) -> bool:
        return self.path_for(key).is_file()

    def keys(self) -> Iterator[str]:
        """Every artifact key currently on disk (sorted, for determinism)."""
        found = []
        for shard in self.root.iterdir():
            if not (shard.is_dir() and len(shard.name) == 2):
                continue
            for path in shard.iterdir():
                if path.suffix == ".json" and path.stem.startswith(shard.name):
                    found.append(path.stem)
        return iter(sorted(found))

    # ------------------------------------------------------------------
    # Get / put
    # ------------------------------------------------------------------
    def get(self, key: str) -> Optional[dict]:
        """The payload stored at ``key``, or ``None`` on any kind of miss.

        Absent, truncated, corrupt, wrong-envelope-version and
        key-mismatched files all read as ``None`` — the cache contract is
        "a hit is trustworthy, everything else recomputes".
        """
        path = self.path_for(key)
        try:
            raw = path.read_text()
        except OSError:
            self.misses += 1
            return None
        try:
            envelope = json.loads(raw)
        except ValueError:
            self.corrupt_reads += 1
            self.misses += 1
            return None
        if (
            not isinstance(envelope, dict)
            or envelope.get("format") != ARTIFACT_FORMAT_VERSION
            or envelope.get("key") != key
            or "payload" not in envelope
        ):
            self.corrupt_reads += 1
            self.misses += 1
            return None
        self.hits += 1
        return envelope["payload"]

    def put(self, key: str, payload: dict) -> Path:
        """Atomically write ``payload`` at ``key`` (overwriting any old value)."""
        path = self.path_for(key)
        path.parent.mkdir(parents=True, exist_ok=True)
        try:
            encoded = json.dumps(
                {"format": ARTIFACT_FORMAT_VERSION, "key": key, "payload": payload},
                allow_nan=False,
                separators=(",", ":"),
            )
        except (TypeError, ValueError) as exc:
            raise ArtifactError(
                f"artifact payload for key {key!r} is not JSON-serializable: {exc}"
            ) from None
        try:
            atomic_write_text(path, encoded)
        except OSError as exc:
            raise ArtifactError(f"could not write artifact {key!r}: {exc}") from None
        self.writes += 1
        return path

    # ------------------------------------------------------------------
    # Maintenance
    # ------------------------------------------------------------------
    def gc(self, live: Iterable[str]) -> int:
        """Delete every artifact whose key is not in ``live``; return the count.

        The caller names the keys that are still reachable (e.g. a
        :class:`~repro.experiments.dag.CampaignDAG`'s full key set); the
        store has no notion of liveness of its own.  Stray non-artifact
        files are left alone.
        """
        keep = {_validate_key(key) for key in live}
        removed = 0
        for key in list(self.keys()):
            if key in keep:
                continue
            try:
                self.path_for(key).unlink()
                removed += 1
            except OSError:
                pass  # best effort: a vanished file is already collected
        return removed

    def stats(self) -> ArtifactStoreStats:
        """Current population and traffic counters."""
        n_artifacts = 0
        total_bytes = 0
        for key in self.keys():
            try:
                total_bytes += self.path_for(key).stat().st_size
                n_artifacts += 1
            except OSError:
                continue
        return ArtifactStoreStats(
            root=str(self.root),
            n_artifacts=n_artifacts,
            total_bytes=total_bytes,
            hits=self.hits,
            misses=self.misses,
            writes=self.writes,
            corrupt_reads=self.corrupt_reads,
        )
