"""Parallel parameter-sweep harness.

Policy comparisons, power-cap sweeps, stress tests and campaigns evaluate the
same simulation at many parameter points; :func:`~repro.parallel.pool.
map_parallel` runs those points across processes (falling back to serial
execution for small sweeps or when requested) and returns results in task
order.  Campaigns seed their grid points themselves
(:meth:`~repro.experiments.campaign.CampaignSpec.expand`), so results do not
depend on worker scheduling.

Scaling guide — two parallel axes
---------------------------------

One :class:`ParallelConfig` (the CLI's ``--workers`` / ``GREENHPC_WORKERS``)
drives two different fan-outs:

* **Across points** — campaigns and sweeps map independent points over a
  process pool (this package).  Small task lists fall back to serial via
  ``min_tasks_for_processes``; results are ordered and seeded
  deterministically either way.
* **Within a point** — a fleet point can additionally step its member sites
  on worker processes (:mod:`repro.fleet.parallel`).  That axis ignores
  ``min_tasks_for_processes``: an explicit multi-worker request always
  parallelises the stepping, and records stay bit-identical to serial.

The axes nest, and worker counts multiply: a campaign at ``--workers W``
whose fleet points also step with W workers runs up to ``W x (F + 1)``
processes (F fleet workers under each of W point evaluators).  Prefer
parallelising the axis that dominates wall-clock — many cheap points →
sweep axis; few points over big fleets → fleet axis — rather than both.
"""

from .pool import map_parallel, ParallelConfig

__all__ = [
    "map_parallel",
    "ParallelConfig",
]
