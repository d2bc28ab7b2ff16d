"""Shared helpers: locating the source tree, summary statistics, run context."""

from __future__ import annotations

import os
import platform
import resource
import statistics
import sys
import time
from pathlib import Path
from typing import Any, Optional, Sequence

#: The checkout the benchmark runs in (the parent of this directory).
ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
#: Scratch space for stores, checkpoints and traces (listed in .gitignore).
OUT = ROOT / ".perfbench"


def use_source_tree() -> None:
    """Import ``repro`` from this checkout's ``src/`` and nowhere else.

    Raises ``SystemExit`` (non-zero) when the checkout has no source tree,
    which is how the benchmark fails in a directory holding only itself.
    """
    if not (SRC / "repro" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no source tree at {SRC}; run from a full checkout")
    sys.path.insert(0, str(SRC))
    os.environ["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]
    )


def usable_cpus() -> int:
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1


def tail(samples: Sequence[float]) -> tuple[float, float]:
    """The highest percentile with at least ten samples beyond it.

    Returns ``(value, percentile)``.  With fewer than twenty samples no
    percentile above the median qualifies, and the median is returned.
    """
    ordered = sorted(samples)
    n = len(ordered)
    index = n - 11
    if index < (n - 1) // 2:
        return statistics.median(ordered), 50.0
    return ordered[index], 100.0 * (index + 1) / n


def process_age_s() -> float:
    """Seconds since this process started (Linux ``/proc``, 10 ms resolution)."""
    with open("/proc/self/stat") as stat:
        start_ticks = int(stat.read().rsplit(")", 1)[1].split()[19])
    with open("/proc/uptime") as uptime:
        now_s = float(uptime.read().split()[0])
    return now_s - start_ticks / os.sysconf("SC_CLK_TCK")


#: Time of one :func:`probe_s` loop on an idle host of the kind the benchmark
#: was tuned on (2 vCPUs); scaled figures read as if measured there.
REFERENCE_PROBE_S = 0.012


def probe_s() -> float:
    """Time of a fixed pure-Python loop: how fast the host runs right now."""
    start = time.perf_counter()
    total = 0
    for i in range(200_000):
        total += i * i
    return time.perf_counter() - start


class HostSpeed:
    """Samples the host's speed between the timed operations of one run.

    On a small shared host the CPU speed drifts by tens of percent over
    seconds to minutes, so two runs of the same code, minutes apart, differ
    by more than any useful regression bound.  The simulator's pure-Python
    hot loops slow down with :func:`probe_s`, so the gated figures are
    scaled by :meth:`factor`: times are multiplied by it and rates divided.
    The raw figures are printed beside them.
    """

    #: One probe per this many seconds of the run, at most ``MAX_PROBES`` per tick.
    EVERY_S = 0.25
    MAX_PROBES = 20

    def __init__(self) -> None:
        self.samples: list = []
        #: Wall time spent probing, for callers whose timed span holds probes.
        self.spent_s = 0.0
        self._last: Optional[float] = None

    def tick(self) -> None:
        """Probe once per ``EVERY_S`` elapsed since the last tick that probed.

        So the mean weighs each stretch of the run by its length: a long
        operation is followed by one probe per ``EVERY_S`` it took.
        """
        start = time.perf_counter()
        if self._last is None:
            due = 1
        else:
            due = min(int((start - self._last) / self.EVERY_S), self.MAX_PROBES)
        if due:
            self.samples.extend(probe_s() for _ in range(due))
            self._last = time.perf_counter()
            self.spent_s += self._last - start

    def factor(self) -> float:
        """Reference probe time over this run's mean probe time (< 1 when slow)."""
        return REFERENCE_PROBE_S / statistics.fmean(self.samples)


def peak_rss_mb(pid: Optional[int] = None) -> float:
    """Peak resident memory of this process, or of ``pid`` (Linux ``VmHWM``)."""
    if pid is None:
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    with open(f"/proc/{pid}/status") as status:
        for line in status:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM for pid {pid}")


def children_peak_rss_mb() -> float:
    """Peak resident memory of the largest child this process has waited for."""
    return resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as cpuinfo:
            for line in cpuinfo:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def run_context(seed: int) -> dict[str, Any]:
    import numpy

    return {
        "seed": seed,
        "nproc": usable_cpus(),
        "cpu": cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
    }
