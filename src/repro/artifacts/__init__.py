"""Content-addressed artifact caching for campaign pipelines.

This package is the persistence layer behind incremental campaigns: an
on-disk :class:`ArtifactStore` maps stable content keys to JSON payloads,
and :mod:`repro.artifacts.keys` defines how those keys are derived —
:func:`run_key` hashes one campaign point's complete identity (scenario
spec, experiment, resolved params, derived seed, :func:`code_version`), so
editing one grid value re-keys exactly the points it changes.

The store itself is deliberately dumb: ``get`` (anything unreadable is a
miss), atomic ``put`` (temp file + ``os.replace``) and ``stats``.  All
policy — what to cache, when a key is stale, what a payload means — lives
with the one caller, :func:`repro.experiments.run_campaign`, which caches
per-point run artifacts; campaign reports are rendered from those.

>>> from repro.artifacts import ArtifactStore, stable_hash
>>> import tempfile
>>> store = ArtifactStore(tempfile.mkdtemp())
>>> key = stable_hash({"what": "demo"})
>>> _ = store.put(key, {"value": 42})
>>> store.get(key)["value"]
42
"""

from .keys import code_version, run_key, stable_hash
from .store import ARTIFACT_FORMAT_VERSION, ArtifactStore, ArtifactStoreStats

__all__ = [
    "ARTIFACT_FORMAT_VERSION",
    "ArtifactStore",
    "ArtifactStoreStats",
    "code_version",
    "run_key",
    "stable_hash",
]
