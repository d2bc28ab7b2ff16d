"""Stable content-addressed cache keys for campaign artifacts.

Every artifact in an :class:`~repro.artifacts.store.ArtifactStore` is
addressed by a hex digest computed here.  The rules that make the keys a
sound cache identity:

* **Stable** — :func:`stable_hash` feeds a canonical JSON encoding (sorted
  keys, no whitespace, strict values) of the identity payload to BLAKE2b,
  so the digest is identical across processes, platforms and Python
  versions (unlike the built-in ``hash``).
* **Complete** — a run artifact's key (:func:`run_key`) covers everything
  that determines the simulation's output: the fully resolved
  :class:`~repro.experiments.spec.ScenarioSpec`, the experiment name, the
  resolved experiment parameters, the point's derived seed, and the
  :func:`code_version` of the package that produced it.  Upgrading the
  package therefore invalidates stale artifacts instead of silently
  serving results computed by older code.

A serve session's ``spec_hash`` is the first 16 hex digits of
``stable_hash(spec.to_dict())``, so a spec has one identity.
"""

from __future__ import annotations

import hashlib
import json
import os
from typing import TYPE_CHECKING, Any

from ..config import config_to_jsonable

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..experiments.campaign import CampaignPoint

__all__ = ["code_version", "stable_hash", "run_key"]

#: Hex digest length of every artifact key (BLAKE2b-128).
KEY_HEX_LENGTH = 32

#: Environment override for the code-version cache-key component: the one
#: lever that re-keys every artifact without reinstalling the package.
CODE_VERSION_ENV = "GREENHPC_CODE_VERSION"


def code_version() -> str:
    """The code-version component of every cache key.

    Single-sourced with ``greenhpc --version``: this is exactly
    ``repro.__version__`` (``pyproject.toml`` via ``importlib.metadata``,
    with the source-checkout fallback), so bumping the package version is
    what retires every previously cached artifact.  The
    ``GREENHPC_CODE_VERSION`` environment variable overrides it, and it is
    the only override: :func:`run_key` reads this function on every call, so the cache-invalidation tests (and a cautious
    operator mid-refactor) set the variable to force a cold store.
    """
    override = os.environ.get(CODE_VERSION_ENV, "").strip()
    if override:
        return override
    from .. import __version__

    return __version__


def stable_hash(payload: Any) -> str:
    """BLAKE2b hex digest of the canonical JSON encoding of ``payload``.

    ``payload`` is passed through
    :func:`~repro.config.config_to_jsonable` first, so dataclass configs,
    numpy values and non-finite floats hash by their canonical JSON form —
    the same form the artifacts themselves are stored in.
    """
    canonical = json.dumps(
        config_to_jsonable(payload),
        sort_keys=True,
        separators=(",", ":"),
        allow_nan=False,
    )
    h = hashlib.blake2b(canonical.encode("utf-8"), digest_size=KEY_HEX_LENGTH // 2)
    return h.hexdigest()


def run_key(point: "CampaignPoint") -> str:
    """The content address of one campaign point's run artifact.

    Hashes the complete identity of the simulation: (scenario spec,
    experiment name, resolved params, derived seed, code version).  Two
    campaigns that expand to the same point — regardless of grid shape or
    point order — share one artifact.
    """
    return stable_hash(
        {
            "stage": "run",
            "experiment": point.experiment,
            "spec": point.spec.to_dict(),
            "params": dict(point.params),
            "seed": point.seed,
            "code": code_version(),
        }
    )
