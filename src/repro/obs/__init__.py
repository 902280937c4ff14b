"""Unified observability: tracing spans, metrics registry, event log.

``repro.obs`` is dependency-free (stdlib only) and threaded through the
compiler, farm and service layers:

* :mod:`repro.obs.tracing` — :class:`Span`/:class:`Tracer` with
  thread-local context propagation; one traced compile produces a span
  tree (``ingest → workload-build → route[stage…] → verify →
  store-write``), with worker-side spans crossing the pickle boundary
  as records on ``FarmJobResult``/``PointMetrics``.
* :mod:`repro.obs.metrics` — :class:`MetricsRegistry` of counters,
  gauges and histograms with JSON and Prometheus-text exposition;
  ``ServiceStats``/``StoreStats`` are views over it.
* :mod:`repro.obs.events` — JSON-lines structured events on the
  ``repro.*`` logger hierarchy.

Invariants (the :class:`~repro.utils.faults.FaultPlan` discipline):
observability state never enters memo keys, digests or canonical JSON;
everything is off by default with near-zero overhead; span timestamps
are volatile, span *content* deterministic.
"""

from repro.obs.events import (
    JsonLinesFormatter,
    configure_event_log,
    log_event,
    remove_event_log,
)
from repro.obs.metrics import (
    REGISTRY,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    TrajectoryRecorder,
    get_registry,
)
from repro.obs.tracing import (
    Span,
    SpanRecord,
    Timer,
    Tracer,
    activate,
    adopt,
    current_tracer,
    format_trace,
    span,
    time_call,
    tracing_enabled,
    validate_spans,
)

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "JsonLinesFormatter",
    "MetricsRegistry",
    "REGISTRY",
    "Span",
    "SpanRecord",
    "Timer",
    "Tracer",
    "TrajectoryRecorder",
    "activate",
    "adopt",
    "configure_event_log",
    "current_tracer",
    "format_trace",
    "get_registry",
    "log_event",
    "remove_event_log",
    "span",
    "time_call",
    "tracing_enabled",
    "validate_spans",
]
