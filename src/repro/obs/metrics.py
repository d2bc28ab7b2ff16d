"""Counters, gauges and histograms: the metrics half of :mod:`repro.obs`.

A :class:`MetricsRegistry` holds named metric families, each optionally
labelled (``registry.counter("serve_requests_total", method="GET")``), and
renders them as a JSON-able :meth:`~MetricsRegistry.snapshot` or a
Prometheus-text-exposition :meth:`~MetricsRegistry.to_prometheus` page (what
``GET /metrics`` on the serve daemon returns).

Everything is stdlib.  Metric creation takes the registry lock; the hot
mutators (``inc``/``set``/``observe``) are lock-free single attribute or
array updates — under CPython's GIL these are effectively atomic, and
best-effort accuracy under thread races is the usual (and accepted) contract
for process metrics.  Simulator-loop writers are single-threaded anyway.
"""

from __future__ import annotations

import threading
from bisect import bisect_left
from typing import Any, Collection, Mapping, Optional, Sequence

from ..errors import ConfigurationError

__all__ = ["Counter", "Gauge", "Histogram", "MetricsRegistry", "DEFAULT_BUCKETS"]

#: Default histogram bucket upper bounds (seconds-flavoured, Prometheus-style).
DEFAULT_BUCKETS: tuple[float, ...] = (
    0.001,
    0.0025,
    0.005,
    0.01,
    0.025,
    0.05,
    0.1,
    0.25,
    0.5,
    1.0,
    2.5,
    5.0,
    10.0,
    30.0,
)


def _label_key(labels: Mapping[str, Any]) -> tuple[tuple[str, str], ...]:
    return tuple(sorted((str(k), str(v)) for k, v in labels.items()))


class Counter:
    """A monotonically increasing value (requests served, rounds executed)."""

    __slots__ = ("labels", "value")

    def __init__(self, labels: Mapping[str, str]) -> None:
        self.labels = dict(labels)
        self.value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        """Add ``amount`` (must be non-negative) to the counter."""
        if amount < 0:
            raise ConfigurationError(f"counter increments must be >= 0, got {amount!r}")
        self.value += amount


class Gauge:
    """A point-in-time value that moves both ways (queue depth, power draw)."""

    __slots__ = ("labels", "value")

    def __init__(self, labels: Mapping[str, str]) -> None:
        self.labels = dict(labels)
        self.value = 0.0

    def set(self, value: float) -> None:
        """Record the current value."""
        self.value = float(value)

    def inc(self, amount: float = 1.0) -> None:
        """Move the gauge up by ``amount`` (negative moves it down)."""
        self.value += amount


class Histogram:
    """A distribution summarized as cumulative buckets plus sum/count/min/max."""

    __slots__ = ("labels", "buckets", "counts", "total", "count", "min", "max")

    def __init__(
        self, labels: Mapping[str, str], buckets: Sequence[float] = DEFAULT_BUCKETS
    ) -> None:
        self.labels = dict(labels)
        self.buckets = tuple(sorted(float(b) for b in buckets))
        if not self.buckets:
            raise ConfigurationError("a histogram needs at least one bucket bound")
        self.counts = [0] * (len(self.buckets) + 1)  # +Inf bucket last
        self.total = 0.0
        self.count = 0
        self.min: Optional[float] = None
        self.max: Optional[float] = None

    def observe(self, value: float) -> None:
        """Record one sample."""
        value = float(value)
        # First bucket with value <= bound (bisect runs in C; the bounds are
        # sorted at construction), falling through to the +Inf slot.
        self.counts[bisect_left(self.buckets, value)] += 1
        self.total += value
        self.count += 1
        if self.min is None or value < self.min:
            self.min = value
        if self.max is None or value > self.max:
            self.max = value

    @property
    def mean(self) -> float:
        """The sample mean (0.0 before any observation)."""
        return self.total / self.count if self.count else 0.0


_KINDS = {"counter": Counter, "gauge": Gauge, "histogram": Histogram}


class _Family:
    """One named metric family: kind, help text, and its labelled children."""

    __slots__ = ("name", "kind", "help", "buckets", "children")

    def __init__(self, name: str, kind: str, help: str, buckets: Optional[Sequence[float]]):
        self.name = name
        self.kind = kind
        self.help = help
        self.buckets = buckets
        self.children: dict[tuple, Any] = {}


class MetricsRegistry:
    """A process-local registry of named counter/gauge/histogram families.

    ``counter``/``gauge``/``histogram`` are get-or-create: the first call
    fixes the family's kind (and help text); later calls with the same name
    and labels return the same child, so call sites can re-resolve cheaply
    or keep the returned handle for hot loops.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._families: dict[str, _Family] = {}

    def _child(
        self,
        name: str,
        kind: str,
        help: str,
        labels: Mapping[str, Any],
        buckets: Optional[Sequence[float]] = None,
    ) -> Any:
        with self._lock:
            family = self._families.get(name)
            if family is None:
                family = self._families[name] = _Family(name, kind, help, buckets)
            elif family.kind != kind:
                raise ConfigurationError(
                    f"metric {name!r} is a {family.kind}, not a {kind}"
                )
            key = _label_key(labels)
            child = family.children.get(key)
            if child is None:
                if kind == "histogram":
                    child = Histogram(
                        {str(k): str(v) for k, v in labels.items()},
                        family.buckets or DEFAULT_BUCKETS,
                    )
                else:
                    child = _KINDS[kind]({str(k): str(v) for k, v in labels.items()})
                family.children[key] = child
            return child

    def counter(self, name: str, *, help: str = "", **labels: Any) -> Counter:
        """The counter ``name`` for this label set (created on first use)."""
        return self._child(name, "counter", help, labels)

    def gauge(self, name: str, *, help: str = "", **labels: Any) -> Gauge:
        """The gauge ``name`` for this label set (created on first use)."""
        return self._child(name, "gauge", help, labels)

    def histogram(
        self,
        name: str,
        *,
        help: str = "",
        buckets: Optional[Sequence[float]] = None,
        **labels: Any,
    ) -> Histogram:
        """The histogram ``name`` for this label set (created on first use)."""
        return self._child(name, "histogram", help, labels, buckets=buckets)

    def retain(self, name: str, label: str, values: Collection[str]) -> None:
        """Drop every ``name`` series whose ``label`` is not one of ``values``."""
        with self._lock:
            family = self._families.get(name)
            if family is not None:
                family.children = {
                    key: child
                    for key, child in family.children.items()
                    if child.labels.get(label) in values
                }

    def __len__(self) -> int:
        with self._lock:
            return len(self._families)

    # ------------------------------------------------------------------
    # Export
    # ------------------------------------------------------------------
    def snapshot(self) -> dict[str, Any]:
        """A JSON-able snapshot of every family and child, in creation order."""
        out: dict[str, Any] = {}
        with self._lock:
            families = list(self._families.values())
        for family in families:
            series = []
            for child in family.children.values():
                entry: dict[str, Any] = {"labels": dict(child.labels)}
                if family.kind == "histogram":
                    entry.update(
                        count=child.count,
                        sum=child.total,
                        mean=child.mean,
                        min=child.min,
                        max=child.max,
                        buckets={str(b): c for b, c in zip(child.buckets, child.counts)},
                    )
                else:
                    entry["value"] = child.value
                series.append(entry)
            out[family.name] = {"kind": family.kind, "help": family.help, "series": series}
        return out

    def to_prometheus(self) -> str:
        """The registry in Prometheus text exposition format (version 0.0.4)."""
        lines: list[str] = []
        with self._lock:
            families = list(self._families.values())
        for family in families:
            if family.help:
                lines.append(f"# HELP {family.name} {family.help}")
            lines.append(f"# TYPE {family.name} {family.kind}")
            for child in family.children.values():
                if family.kind == "histogram":
                    cumulative = 0
                    for bound, count in zip(child.buckets, child.counts):
                        cumulative += count
                        labels = _render_labels({**child.labels, "le": _format_bound(bound)})
                        lines.append(f"{family.name}_bucket{labels} {cumulative}")
                    cumulative += child.counts[-1]
                    labels = _render_labels({**child.labels, "le": "+Inf"})
                    lines.append(f"{family.name}_bucket{labels} {cumulative}")
                    base = _render_labels(child.labels)
                    lines.append(f"{family.name}_sum{base} {_format_value(child.total)}")
                    lines.append(f"{family.name}_count{base} {child.count}")
                else:
                    labels = _render_labels(child.labels)
                    lines.append(f"{family.name}{labels} {_format_value(child.value)}")
        return "\n".join(lines) + ("\n" if lines else "")


def _format_value(value: float) -> str:
    return repr(float(value))


def _format_bound(bound: float) -> str:
    return repr(float(bound))


def _render_labels(labels: Mapping[str, str]) -> str:
    if not labels:
        return ""
    escaped = {
        k: str(v).replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")
        for k, v in labels.items()
    }
    inner = ",".join(f'{k}="{v}"' for k, v in sorted(escaped.items()))
    return "{" + inner + "}"
