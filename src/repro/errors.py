"""Exception hierarchy for the green-HPC reproduction toolkit.

All library errors derive from :class:`GreenHPCError` so that callers can
catch toolkit failures without also swallowing programming errors such as
``TypeError`` raised by misuse of the standard library.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Iterator

__all__ = [
    "GreenHPCError",
    "ConfigurationError",
    "UnitError",
    "SimulationError",
    "SteppingError",
    "SchedulingError",
    "FleetError",
    "ServeError",
    "CheckpointError",
    "ArtifactError",
    "ResourceError",
    "TelemetryError",
    "TrackingError",
    "ForecastError",
    "OptimizationError",
    "MechanismError",
    "DataError",
    "checkpoint_fields",
]


class GreenHPCError(Exception):
    """Base class for all errors raised by :mod:`repro`."""


class ConfigurationError(GreenHPCError, ValueError):
    """Raised when a configuration object fails validation.

    Inherits from :class:`ValueError` because invalid configuration is a
    value problem; callers who validate inputs generically can keep catching
    ``ValueError``.
    """


class UnitError(GreenHPCError, ValueError):
    """Raised for invalid unit values or impossible conversions."""


class SimulationError(GreenHPCError, RuntimeError):
    """Raised when the discrete-event cluster simulation reaches an invalid state."""


class SteppingError(SimulationError):
    """Raised on misuse of the simulator's stepping API.

    Covers ``begin()`` twice, ``submit()``/``advance()``/``finalize()``
    outside the ``begin -> [submit/advance]* -> finalize`` protocol, and
    ``advance()`` to a time behind the cursor.  Subclasses
    :class:`SimulationError` so existing callers that catch the general
    simulation failure keep working.
    """


class SchedulingError(GreenHPCError, RuntimeError):
    """Raised when a scheduler cannot produce a valid placement or violates invariants."""


class FleetError(GreenHPCError, RuntimeError):
    """Raised by the multi-site fleet co-simulation (routing and lockstep invariants)."""


class ServeError(GreenHPCError, RuntimeError):
    """Raised by the long-running simulation service (unknown sessions, bad requests)."""


class CheckpointError(GreenHPCError, RuntimeError):
    """Raised when a checkpoint cannot be written, read or replayed."""


class ArtifactError(GreenHPCError, RuntimeError):
    """Raised by the content-addressed artifact store and the campaign DAG.

    Covers malformed keys, unwritable artifacts, and a DAG asked to
    materialize from cache (``simulate=False``) while run artifacts are
    missing.  Corrupt or truncated artifact *files* never raise — they read
    as cache misses.
    """


class ResourceError(GreenHPCError, RuntimeError):
    """Raised for invalid resource requests or double allocation/release."""


class TelemetryError(GreenHPCError, RuntimeError):
    """Raised by the simulated NVML / power-sampling layer."""


class TrackingError(GreenHPCError, RuntimeError):
    """Raised by the energy/carbon tracking layer (e.g. stopping a tracker twice)."""


class ForecastError(GreenHPCError, RuntimeError):
    """Raised when a forecasting model is used before fitting or on malformed data."""


class OptimizationError(GreenHPCError, RuntimeError):
    """Raised when the Eq. 1 / Eq. 2 optimizers cannot find a feasible configuration."""


class MechanismError(GreenHPCError, RuntimeError):
    """Raised for invalid mechanism-design setups (e.g. empty menus, bad budgets)."""


class DataError(GreenHPCError, ValueError):
    """Raised when analysis-layer inputs are malformed (length mismatches, NaNs, ...)."""


@contextmanager
def checkpoint_fields(what: str) -> Iterator[None]:
    """Report a structurally bad checkpoint as :class:`CheckpointError`.

    Reading a checkpoint's fields raises ``KeyError``, ``IndexError``,
    ``TypeError``, ``ValueError`` or ``AttributeError`` when a field is
    missing or has the wrong shape, and a toolkit error when a value fails
    validation (a job with no GPUs, an unknown policy); inside this block
    each becomes a :class:`CheckpointError` naming ``what`` was being read,
    so callers that skip unreadable checkpoints need to catch only that.
    """
    try:
        yield
    except CheckpointError:
        raise
    except (GreenHPCError, KeyError, IndexError, TypeError, ValueError, AttributeError) as exc:
        raise CheckpointError(f"malformed {what}: {type(exc).__name__}: {exc}") from None
