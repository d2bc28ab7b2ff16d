"""Span recording: the tracing half of :mod:`repro.obs`.

A :class:`TraceRecorder` collects **nested spans** — named, wall-clock-timed
(optionally CPU-timed) sections of work with structured attributes — from any
layer of the toolkit.  Instrumented code asks the *ambient* recorder
(:func:`get_recorder`) for a span and uses it as a context manager::

    from repro import obs

    with obs.get_recorder().span("campaign.point", index=3, cache="miss"):
        ...the work being measured...

When tracing is off the ambient recorder is the process-wide
:data:`NULL_RECORDER`, whose :meth:`~NullRecorder.span` returns one shared
do-nothing context manager — no allocation per finished span, no clock reads,
no lock traffic — so instrumentation left in hot paths costs near zero.

Nesting is tracked per thread: a span opened while another is open on the
same thread records that span as its parent, so exporters can rebuild the
call tree.  Finished spans carry ``pid``/``tid`` so batches recorded on
worker processes (see :mod:`repro.fleet.parallel`) merge into one trace with
per-process timelines; ``time.perf_counter`` is CLOCK_MONOTONIC system-wide
on Linux, which keeps cross-process timestamps comparable.
"""

from __future__ import annotations

import os
import threading
import time
from dataclasses import dataclass, field
from typing import Any, Iterable, Optional

from .metrics import MetricsRegistry

__all__ = [
    "SpanRecord",
    "TraceRecorder",
    "NullRecorder",
    "NULL_RECORDER",
    "get_recorder",
    "set_recorder",
    "recording",
]


@dataclass(slots=True)
class SpanRecord:
    """One finished span: what ran, when, for how long, and under what.

    ``start_s`` is a :func:`time.perf_counter` reading; exporters normalize
    against the earliest span so absolute values never leave the process.
    ``cpu_s`` is ``None`` unless the recorder was built with ``cpu_time=True``.
    """

    span_id: int
    name: str
    start_s: float
    wall_s: float = 0.0
    cpu_s: Optional[float] = None
    parent_id: Optional[int] = None
    depth: int = 0
    pid: int = 0
    tid: int = 0
    attributes: dict[str, Any] = field(default_factory=dict)

    def to_dict(self) -> dict[str, Any]:
        """Strict-JSON-ready form (the NDJSON exporter's row body)."""
        return {
            "span_id": self.span_id,
            "name": self.name,
            "start_s": self.start_s,
            "wall_s": self.wall_s,
            "cpu_s": self.cpu_s,
            "parent_id": self.parent_id,
            "depth": self.depth,
            "pid": self.pid,
            "tid": self.tid,
            "attributes": dict(self.attributes),
        }


class _OpenSpan:
    """Context manager for one in-flight span; ``.record`` is the result.

    The record's timing fields are filled on ``__exit__``; keep a reference
    to read ``wall_s`` after the block.
    """

    __slots__ = ("_recorder", "record", "_cpu_start")

    def __init__(self, recorder: "TraceRecorder", record: SpanRecord) -> None:
        self._recorder = recorder
        self.record = record
        self._cpu_start: Optional[float] = None

    def set(self, key: str, value: Any) -> "_OpenSpan":
        """Attach one attribute mid-span (returned for chaining)."""
        self.record.attributes[key] = value
        return self

    def __enter__(self) -> "_OpenSpan":
        stack = self._recorder._stack()
        if stack:
            parent = stack[-1]
            self.record.parent_id = parent.span_id
            self.record.depth = parent.depth + 1
        stack.append(self.record)
        if self._recorder.cpu_time:
            self._cpu_start = time.process_time()
        self.record.start_s = time.perf_counter()
        return self

    def __exit__(self, *exc_info: Any) -> None:
        end_s = time.perf_counter()
        record = self.record
        record.wall_s = end_s - record.start_s
        if self._cpu_start is not None:
            record.cpu_s = time.process_time() - self._cpu_start
        stack = self._recorder._stack()
        if stack and stack[-1] is record:
            stack.pop()
        self._recorder._append(record)


class TraceRecorder:
    """Collects finished spans (and a :class:`MetricsRegistry`) for one run.

    Thread-safe: spans may be opened concurrently from many threads (the
    serve daemon does); each thread keeps its own open-span stack, finished
    spans land in one shared list in completion order.

    Parameters
    ----------
    cpu_time:
        Also sample :func:`time.process_time` around every span, so traces
        distinguish wall waiting from CPU burn.  Off by default (two extra
        clock reads per span).
    """

    enabled = True

    def __init__(self, *, cpu_time: bool = False) -> None:
        self.cpu_time = bool(cpu_time)
        self.metrics = MetricsRegistry()
        self._spans: list[SpanRecord] = []
        self._lock = threading.Lock()
        self._local = threading.local()
        self._next_id = 1

    # ------------------------------------------------------------------
    # Recording
    # ------------------------------------------------------------------
    def span(self, name: str, **attributes: Any) -> _OpenSpan:
        """Open one span; use as a context manager around the work."""
        with self._lock:
            span_id = self._next_id
            self._next_id += 1
        record = SpanRecord(
            span_id=span_id,
            name=name,
            start_s=0.0,
            pid=os.getpid(),
            tid=threading.get_ident(),
            attributes=attributes,
        )
        return _OpenSpan(self, record)

    def event(self, name: str, **attributes: Any) -> SpanRecord:
        """Record an instant (zero-duration) event span."""
        with self.span(name, **attributes) as open_span:
            pass
        return open_span.record

    def _stack(self) -> list[SpanRecord]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _append(self, record: SpanRecord) -> None:
        with self._lock:
            self._spans.append(record)

    # ------------------------------------------------------------------
    # Reading / merging
    # ------------------------------------------------------------------
    @property
    def spans(self) -> list[SpanRecord]:
        """A snapshot list of every finished span, in completion order."""
        with self._lock:
            return list(self._spans)

    def __len__(self) -> int:
        with self._lock:
            return len(self._spans)

    def mark(self) -> int:
        """A cursor into the span list; pass to :meth:`spans_since`."""
        with self._lock:
            return len(self._spans)

    def spans_since(self, mark: int) -> list[SpanRecord]:
        """The spans finished since :meth:`mark` returned ``mark``."""
        with self._lock:
            return list(self._spans[mark:])

    def extend(self, spans: Iterable[SpanRecord]) -> list[SpanRecord]:
        """Merge a batch of foreign spans (e.g. shipped from a worker process).

        Span ids are remapped into this recorder's id space; parent links
        *within* the batch are preserved, parents outside it are dropped.
        Returns the merged records.
        """
        batch = list(spans)
        if not batch:
            return []
        with self._lock:
            id_map = {}
            for record in batch:
                id_map[record.span_id] = self._next_id
                self._next_id += 1
            for record in batch:
                record.parent_id = id_map.get(record.parent_id)
                record.span_id = id_map[record.span_id]
            self._spans.extend(batch)
        return batch


class _NullSpan:
    """The do-nothing span: one shared instance, no state, no clocks."""

    __slots__ = ()

    record = None

    def set(self, key: str, value: Any) -> "_NullSpan":
        return self

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        return None


_NULL_SPAN = _NullSpan()


class NullRecorder:
    """The zero-overhead recorder installed when tracing is disabled.

    Every method is a constant-time no-op returning shared immutable
    objects; the ``metrics`` registry exists (so blind
    ``get_recorder().metrics`` reads never fail) but nothing in the toolkit
    writes to it while disabled — gated writers check :attr:`enabled`.
    """

    enabled = False
    cpu_time = False

    def __init__(self) -> None:
        self.metrics = MetricsRegistry()

    def span(self, name: str, **attributes: Any) -> _NullSpan:
        return _NULL_SPAN

    def event(self, name: str, **attributes: Any) -> None:
        return None

    @property
    def spans(self) -> list[SpanRecord]:
        return []

    def __len__(self) -> int:
        return 0

    def mark(self) -> int:
        return 0

    def spans_since(self, mark: int) -> list[SpanRecord]:
        return []

    def extend(self, spans: Iterable[SpanRecord]) -> list[SpanRecord]:
        return []


#: The process-wide disabled recorder (also the default ambient recorder).
NULL_RECORDER = NullRecorder()

_ambient: Any = NULL_RECORDER
_ambient_lock = threading.Lock()


def get_recorder() -> Any:
    """The ambient recorder instrumented layers record into."""
    return _ambient


def set_recorder(recorder: Any) -> Any:
    """Install ``recorder`` as the ambient recorder; returns the previous one.

    Pass :data:`NULL_RECORDER` (or the previous return value) to disable
    tracing again.  The CLI's ``--trace-out`` flag is the usual caller.
    """
    global _ambient
    with _ambient_lock:
        previous = _ambient
        _ambient = recorder if recorder is not None else NULL_RECORDER
    return previous


class recording:
    """Context manager installing ``recorder`` as ambient for the block.

    >>> from repro.obs import TraceRecorder, recording
    >>> rec = TraceRecorder()
    >>> with recording(rec):
    ...     pass  # everything traced in here lands in ``rec``
    """

    def __init__(self, recorder: Any) -> None:
        self.recorder = recorder
        self._previous: Any = None

    def __enter__(self) -> Any:
        self._previous = set_recorder(self.recorder)
        return self.recorder

    def __exit__(self, *exc_info: Any) -> None:
        set_recorder(self._previous)
