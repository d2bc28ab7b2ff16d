"""``repro.obs`` — stdlib-only tracing and metrics for the toolkit.

The subsystem has three pieces:

* :class:`TraceRecorder` (:mod:`repro.obs.recorder`) collects nested,
  wall-clock-timed spans with structured attributes from every instrumented
  layer — cluster simulator, fleet coordinator and workers, campaigns, the
  serve daemon.  Instrumentation reads the **ambient** recorder
  (:func:`get_recorder`), which defaults to the zero-overhead
  :data:`NULL_RECORDER`; installing a real recorder (:func:`set_recorder`,
  the :class:`recording` context manager, or ``greenhpc --trace-out``) turns
  tracing on process-wide.
* :class:`MetricsRegistry` (:mod:`repro.obs.metrics`) holds counters, gauges
  and histograms; :class:`~repro.cluster.observers.MetricsObserver` bridges
  the simulator's observer hooks into it, and the serve daemon exposes its
  registry at ``GET /metrics`` in Prometheus text format.
* Exporters (:mod:`repro.obs.export`): :func:`write_trace` emits Chrome
  ``trace_event`` JSON (loadable in Perfetto) or an NDJSON event log by file
  suffix; :func:`load_trace`/:func:`summarize_trace` read either back for
  the ``greenhpc obs`` summary; :class:`RunProfile`
  (:mod:`repro.obs.profile`) is the per-result aggregate attached to
  experiment/fleet/campaign results when tracing is on.

Design contract: with tracing disabled the instrumented paths do no clock
reads and allocate nothing per span, and simulation outputs are bit-identical
to an uninstrumented build — tracing observes runs, it never participates in
them.
"""

from .export import chrome_trace, load_trace, summarize_trace, write_ndjson, write_trace
from .metrics import DEFAULT_BUCKETS, Counter, Gauge, Histogram, MetricsRegistry
from .profile import RunProfile, aggregate_spans
from .recorder import (
    NULL_RECORDER,
    NullRecorder,
    SpanRecord,
    TraceRecorder,
    get_recorder,
    recording,
    set_recorder,
)

__all__ = [
    "TraceRecorder",
    "NullRecorder",
    "NULL_RECORDER",
    "SpanRecord",
    "get_recorder",
    "set_recorder",
    "recording",
    "MetricsRegistry",
    "Counter",
    "Gauge",
    "Histogram",
    "DEFAULT_BUCKETS",
    "RunProfile",
    "aggregate_spans",
    "chrome_trace",
    "write_ndjson",
    "write_trace",
    "load_trace",
    "summarize_trace",
]
