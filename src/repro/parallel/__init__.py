"""Parallel parameter-sweep harness.

Campaigns evaluate the same simulation at many parameter points;
:func:`~repro.parallel.pool.map_parallel` runs those points across processes
(serially for a single worker or a single task) and returns results in task
order.  Campaigns seed their grid points themselves
(:meth:`~repro.experiments.campaign.CampaignSpec.expand`), so results do not
depend on worker scheduling.

Scaling guide — one fan-out per run
-----------------------------------

One :class:`ParallelConfig` (the CLI's ``--workers`` / ``GREENHPC_WORKERS``)
fans a run out across processes at most once:

* **A campaign** (``greenhpc sweep``, ``greenhpc report``) maps its points
  over a process pool (this package).  Everything inside a point runs in
  that point's worker process: a ``fleet`` point steps its sites serially,
  and the ``stress``, ``optimize`` and ``powercap`` sweeps are plain loops.
* **A directly run ``fleet`` experiment** (``greenhpc --workers N fleet``)
  steps its member sites on worker processes
  (:mod:`repro.fleet.parallel`), with records bit-identical to serial.

So a run occupies at most W worker processes, and its rows do not depend on
W: a campaign gives the same rows serially and in parallel, and a warm
re-run over its artifact store gives the cold rows.
"""

from .pool import map_parallel, ParallelConfig

__all__ = [
    "map_parallel",
    "ParallelConfig",
]
