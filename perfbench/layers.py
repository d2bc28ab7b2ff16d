"""Per-layer call counts and times, taken by wrapping public methods.

The traced run of the benchmark replaces the public methods of each layer's
classes with a timing wrapper for the duration of the run.  Nothing inside
``src/`` is instrumented: the wrappers live here and are removed again by
:meth:`LayerProfiler.uninstall`.

For every wrapped method the profiler keeps, under the method's layer key:

* the call count;
* inclusive time, counted only at the outermost call of that key on the
  thread's stack, so a key that calls itself is not counted twice;
* self time: inclusive time minus the time of wrapped calls made inside it;
* the number of calls that raised.

Methods wrapped with ``span=True`` also record one :mod:`repro.obs` span per
call (the coarse ones only; a span per heap push would swamp the trace).
"""

from __future__ import annotations

import functools
import json
import os
import statistics
import threading
import time
from collections import defaultdict
from typing import Any, Callable, Optional

#: Lifecycle hooks of ``repro.cluster.observers.SimulatorObserver``.
OBSERVER_HOOKS = ("on_job_start", "on_job_finish", "on_round", "on_tick")


class LayerProfiler:
    """Counts and times calls into wrapped methods, grouped by layer key."""

    def __init__(self, recorder: Any = None) -> None:
        self.recorder = recorder
        self.stats: dict[str, list] = {}
        self.counters: defaultdict[str, float] = defaultdict(float)
        self.samples: defaultdict[str, list] = defaultdict(list)
        self._local = threading.local()
        self._patches: list[tuple[type, str, Any]] = []

    # ------------------------------------------------------------------
    # Wrapping
    # ------------------------------------------------------------------
    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(
        self,
        owner: type,
        name: str,
        key: str,
        *,
        span: bool = False,
        after: Optional[Callable[[Any, tuple, dict, Any], None]] = None,
        sample: bool = False,
    ) -> None:
        """Replace ``owner.name`` by a wrapper that charges its calls to ``key``."""
        raw = owner.__dict__[name]
        kind = type(raw) if isinstance(raw, (classmethod, staticmethod)) else None
        func = raw.__func__ if kind is not None else raw
        # calls, inclusive s, self s, errors, current nesting depth of ``key``
        stats = self.stats.setdefault(key, [0, 0.0, 0.0, 0, 0])
        span = span and self.recorder is not None
        profiler = self
        clock = time.perf_counter

        @functools.wraps(func)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            stack = profiler._stack()
            frame = [0.0]
            stack.append(frame)
            stats[4] += 1
            open_span = profiler.recorder.span(key).__enter__() if span else None
            start = clock()
            try:
                result = func(*args, **kwargs)
            except BaseException:
                stats[3] += 1
                raise
            finally:
                elapsed = clock() - start
                if open_span is not None:
                    open_span.__exit__(None, None, None)
                stack.pop()
                stats[0] += 1
                stats[2] += elapsed - frame[0]
                stats[4] -= 1
                if not stats[4]:
                    stats[1] += elapsed
                if stack:
                    stack[-1][0] += elapsed
                if sample:
                    profiler.samples[key].append(elapsed)
            if after is not None:
                after(profiler.counters, args, kwargs, result)
            return result

        setattr(owner, name, kind(wrapper) if kind is not None else wrapper)
        self._patches.append((owner, name, raw))

    def wrap_public(self, owner: type, key: str) -> None:
        """Wrap every public function defined on ``owner`` itself."""
        for name, value in list(owner.__dict__.items()):
            if not name.startswith("_") and callable(value) and not isinstance(value, type):
                self.wrap(owner, name, key)

    def uninstall(self) -> None:
        """Put every wrapped method back."""
        for owner, name, raw in reversed(self._patches):
            setattr(owner, name, raw)
        self._patches.clear()

    def reset(self) -> None:
        """Zero every count, time and sample (the wrappers stay installed)."""
        for stats in self.stats.values():
            stats[:4] = [0, 0.0, 0.0, 0]
        self.counters.clear()
        self.samples.clear()

    # ------------------------------------------------------------------
    # Reading
    # ------------------------------------------------------------------
    def _sum(self, field: int, keys: tuple[str, ...]) -> Any:
        return sum(self.stats[key][field] for key in keys if key in self.stats)

    def calls(self, *keys: str) -> int:
        return self._sum(0, keys)

    def total_s(self, *keys: str) -> float:
        return self._sum(1, keys)

    def self_s(self, *keys: str) -> float:
        return self._sum(2, keys)

    def errors(self, *keys: str) -> int:
        return self._sum(3, keys)

    def snapshot(self) -> dict[str, Any]:
        """A JSON-able copy of everything counted so far."""
        return {
            "stats": {key: value[:4] for key, value in self.stats.items()},
            "counters": dict(self.counters),
            "samples": {key: list(value) for key, value in self.samples.items()},
        }

    def merge(self, snapshot: dict[str, Any]) -> None:
        """Add a :meth:`snapshot` taken in another process into this one."""
        for key, values in snapshot["stats"].items():
            stats = self.stats.setdefault(key, [0, 0.0, 0.0, 0, 0])
            for field, value in enumerate(values):
                stats[field] += value
        for key, value in snapshot["counters"].items():
            self.counters[key] += value
        for key, values in snapshot["samples"].items():
            self.samples[key].extend(values)


def install(profiler: LayerProfiler, worker_dump_dir: Optional[str] = None) -> None:
    """Wrap the public entry points of every measured layer.

    ``worker_dump_dir``: fleet worker processes are forked from this one and
    inherit the wrappers; each zeroes its copy of the counts at fork and
    writes them to ``worker-<pid>.json`` in that directory after every site
    it finalizes, so the coordinator can merge them with
    :func:`collect_worker_dumps`.
    """
    from repro.analysis.figures import SuperCloudScenario
    from repro.artifacts.store import ArtifactStore
    from repro.cluster.cooling import CoolingModel
    from repro.cluster.events import EventQueue
    from repro.cluster.observers import SimulatorObserver
    from repro.cluster.resources import Cluster
    from repro.cluster.simulator import ClusterSimulator
    from repro.fleet.routing import Router, SiteScorer
    from repro.scheduler.pipeline import PolicyPipeline
    from repro.serve.checkpoint import CheckpointStore
    from repro.serve.daemon import ServeDaemon
    from repro.serve.session import ServeSession
    from repro.telemetry.gpu_power import GpuPowerModel
    from repro.workloads.supercloud import SuperCloudTraceGenerator

    def count_gpus(counters, args, kwargs, result):
        counters["resources.gpus"] += args[2] if len(args) > 2 else kwargs["n_gpus"]

    def count_select(counters, args, kwargs, result):
        counters["scheduler.queue_scanned"] += len(args[1])
        counters["scheduler.started"] += len(result)

    def count_scored(counters, args, kwargs, result):
        counters["routing.sites_scored"] += len(args[2])

    def count_store_get(counters, args, kwargs, result):
        counters["store.hits"] += result is not None

    def count_bytes(counter: str) -> Callable:
        def after(counters, args, kwargs, result):
            counters[counter] += os.path.getsize(result)

        return after

    def count_unrouted(counters, args, kwargs, result):
        counters["serve.unrouted"] += not result

    def count_rows(counters, args, kwargs, result):
        counters["telemetry.rows_streamed"] += len(result)

    profiler.wrap(Cluster, "allocate", "resources.allocate", after=count_gpus)
    profiler.wrap(Cluster, "release", "resources.release")
    profiler.wrap(EventQueue, "push", "events.push")
    profiler.wrap(EventQueue, "pop", "events.pop")
    for name in ("peek", "peek_time", "is_empty"):
        profiler.wrap(EventQueue, name, "events.peek")
    profiler.wrap(PolicyPipeline, "select", "scheduler.select", after=count_select)
    for cls in _subclasses(SimulatorObserver):
        for hook in OBSERVER_HOOKS:
            if hook in cls.__dict__:
                profiler.wrap(cls, hook, "observers")
    profiler.wrap_public(GpuPowerModel, "power")
    profiler.wrap_public(CoolingModel, "power")
    for name in ("begin", "advance", "finalize", "run"):
        profiler.wrap(ClusterSimulator, name, "simulator", span=True)
    profiler.wrap(ClusterSimulator, "submit", "simulator")
    profiler.wrap(SuperCloudScenario, "build", "setup.scenario_build", span=True)
    profiler.wrap(SuperCloudTraceGenerator, "generate_jobs", "setup.job_trace", span=True)
    profiler.wrap(ArtifactStore, "get", "store.get", span=True, after=count_store_get)
    profiler.wrap(
        ArtifactStore, "put", "store.put", span=True, after=count_bytes("store.bytes_written")
    )
    for cls in _subclasses(Router):
        if "select" in cls.__dict__ and cls is not Router:
            profiler.wrap(cls, "select", "routing.select")
    for cls in _subclasses(SiteScorer):
        if "choose" in cls.__dict__:
            profiler.wrap(cls, "choose", "routing.choose", after=count_scored)
    profiler.wrap(ServeDaemon, "handle", "serve.request", span=True, after=count_unrouted)
    profiler.wrap(ServeSession, "advance_to", "serve.advance", span=True, sample=True)
    profiler.wrap(ServeSession, "ticks_since", "serve.telemetry", after=count_rows)
    profiler.wrap(ClusterSimulator, "snapshot", "checkpoint.snapshot", span=True)
    profiler.wrap(
        CheckpointStore, "save", "checkpoint.save", span=True, after=count_bytes("checkpoint.bytes")
    )

    if worker_dump_dir is not None:
        _install_worker_dump(profiler, ClusterSimulator, worker_dump_dir)


def _subclasses(root: type) -> list[type]:
    found, pending = [root], [root]
    while pending:
        for sub in pending.pop().__subclasses__():
            if sub not in found:
                found.append(sub)
                pending.append(sub)
    return found


def _install_worker_dump(profiler: LayerProfiler, simulator_cls: type, dump_dir: str) -> None:
    parent_pid = os.getpid()
    if not getattr(profiler, "_resets_at_fork", False):
        os.register_at_fork(after_in_child=profiler.reset)
        profiler._resets_at_fork = True
    finalize = simulator_cls.finalize

    @functools.wraps(finalize)
    def finalize_and_dump(self: Any, *args: Any, **kwargs: Any) -> Any:
        result = finalize(self, *args, **kwargs)
        if os.getpid() != parent_pid:
            path = os.path.join(dump_dir, f"worker-{os.getpid()}.json")
            with open(path, "w") as handle:
                json.dump(profiler.snapshot(), handle)
        return result

    simulator_cls.finalize = finalize_and_dump
    profiler._patches.append((simulator_cls, "finalize", finalize))


def collect_worker_dumps(profiler: LayerProfiler, dump_dir: str) -> int:
    """Merge and delete the fleet workers' dumps; returns how many there were."""
    names = sorted(n for n in os.listdir(dump_dir) if n.startswith("worker-"))
    for name in names:
        path = os.path.join(dump_dir, name)
        with open(path) as handle:
            profiler.merge(json.load(handle))
        os.unlink(path)
    return len(names)


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def layer_metrics(profiler: LayerProfiler) -> dict[str, float]:
    """The per-layer metrics of one pass, derived from the profiler's counts."""
    p = profiler
    c = p.counters
    allocate_calls = p.calls("resources.allocate")
    select_calls = p.calls("scheduler.select")
    store_gets = p.calls("store.get")
    advance_samples = p.samples.get("serve.advance", [])
    return {
        "resources.allocate.calls": allocate_calls,
        "resources.allocate.s": p.total_s("resources.allocate"),
        "resources.allocate.us_per_call": 1e6 * _ratio(p.total_s("resources.allocate"), allocate_calls),
        "resources.release.calls": p.calls("resources.release"),
        "resources.release.s": p.total_s("resources.release"),
        "resources.gpus_per_allocate": _ratio(c["resources.gpus"], allocate_calls),
        "resources.self_s": p.self_s("resources.allocate", "resources.release"),
        "events.push.calls": p.calls("events.push"),
        "events.pop.calls": p.calls("events.pop"),
        "events.s": p.total_s("events.push", "events.pop", "events.peek"),
        "events.self_s": p.self_s("events.push", "events.pop", "events.peek"),
        "scheduler.select.calls": select_calls,
        "scheduler.select.s": p.total_s("scheduler.select"),
        "scheduler.self_s": p.self_s("scheduler.select"),
        "scheduler.queue_scanned": c["scheduler.queue_scanned"],
        "scheduler.started": c["scheduler.started"],
        "scheduler.start_ratio": _ratio(c["scheduler.started"], c["scheduler.queue_scanned"]),
        "observers.calls": p.calls("observers"),
        "observers.s": p.total_s("observers"),
        "observers.self_s": p.self_s("observers"),
        "power.calls": p.calls("power"),
        "power.s": p.total_s("power"),
        "power.self_s": p.self_s("power"),
        "simulator.run.s": p.total_s("simulator"),
        "simulator.self_s": p.self_s("simulator"),
        "setup.scenario_build_s": p.total_s("setup.scenario_build"),
        "setup.job_trace_s": p.total_s("setup.job_trace"),
        "store.get.calls": store_gets,
        "store.get.s": p.total_s("store.get"),
        "store.put.calls": p.calls("store.put"),
        "store.put.s": p.total_s("store.put"),
        "store.self_s": p.self_s("store.get", "store.put"),
        "store.bytes_written": c["store.bytes_written"],
        "store.hit_ratio": _ratio(c["store.hits"], store_gets),
        "routing.select.calls": p.calls("routing.select"),
        "routing.select.s": p.total_s("routing.select"),
        "routing.self_s": p.self_s("routing.select", "routing.choose"),
        "routing.sites_scored": c["routing.sites_scored"],
        "serve.requests": p.calls("serve.request"),
        "serve.failed": p.errors("serve.request") + c["serve.unrouted"],
        "serve.self_s": p.self_s("serve.request", "serve.advance", "serve.telemetry"),
        "serve.advance.server_ms": 1e3 * statistics.median(advance_samples) if advance_samples else 0.0,
        "checkpoint.saves": p.calls("checkpoint.save"),
        "checkpoint.snapshot_ms": 1e3 * _ratio(p.total_s("checkpoint.snapshot"), p.calls("checkpoint.snapshot")),
        "checkpoint.save_ms": 1e3 * _ratio(p.total_s("checkpoint.save"), p.calls("checkpoint.save")),
        "checkpoint.bytes": c["checkpoint.bytes"],
        "checkpoint.self_s": p.self_s("checkpoint.snapshot", "checkpoint.save"),
        "telemetry.rows_streamed": c["telemetry.rows_streamed"],
    }


#: Metrics that must repeat exactly between passes of one seed.
EXACT_COUNTS = (
    "resources.allocate.calls",
    "resources.release.calls",
    "events.push.calls",
    "events.pop.calls",
    "scheduler.select.calls",
    "scheduler.queue_scanned",
    "scheduler.started",
    "observers.calls",
    "power.calls",
    "store.get.calls",
    "store.put.calls",
    "routing.select.calls",
    "routing.sites_scored",
    "serve.requests",
    "checkpoint.saves",
    "telemetry.rows_streamed",
)
