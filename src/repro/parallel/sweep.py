"""Parameter-grid sweep points with reproducible per-point seeds.

A sweep point is a dictionary of parameter values plus a seed derived from
the master seed and the point's index; callers evaluate the points with
:func:`~repro.parallel.pool.map_parallel`.  Campaigns build their grids here.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Any, Mapping, Sequence

from ..errors import ConfigurationError
from ..rng import derive_seed

__all__ = ["SweepPoint", "grid_points"]


@dataclass(frozen=True)
class SweepPoint:
    """One point of a parameter sweep.

    Attributes
    ----------
    index:
        Position of the point in the sweep (stable across runs).
    params:
        Parameter name -> value mapping for this point.
    seed:
        Seed derived from the sweep's master seed and the point index, to be
        used for any randomness inside the evaluated function.
    """

    index: int
    params: Mapping[str, Any]
    seed: int


def grid_points(grid: Mapping[str, Sequence[Any]], *, seed: int = 0) -> list[SweepPoint]:
    """Cartesian-product sweep points from a parameter grid.

    The iteration order (and therefore each point's index and seed) is the
    product order of the grid as given, so runs are reproducible as long as
    the grid definition does not change.
    """
    if not grid:
        raise ConfigurationError("grid must contain at least one parameter")
    names = list(grid.keys())
    value_lists = [list(grid[name]) for name in names]
    for name, values in zip(names, value_lists):
        if not values:
            raise ConfigurationError(f"parameter {name!r} has no values")
    points = []
    for index, combination in enumerate(itertools.product(*value_lists)):
        params = dict(zip(names, combination))
        points.append(SweepPoint(index=index, params=params, seed=derive_seed(seed, "sweep", index)))
    return points
