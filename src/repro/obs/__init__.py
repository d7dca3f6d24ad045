"""Observability substrate: metrics, timing spans, structured logs.

Stdlib-only and pay-for-what-you-use.  The modules layer cleanly:

* :mod:`repro.obs.metrics` -- thread-safe ``Counter`` / ``Gauge`` /
  ``Histogram`` in a ``MetricsRegistry`` with Prometheus text rendering;
* :mod:`repro.obs.tracing` -- ``span()`` context managers feeding duration
  histograms, correlation ids propagated request → job → chunk, and a span
  *sink* seam observers hang off;
* :mod:`repro.obs.logging` -- one-JSON-object-per-line structured events on
  the ``repro.*`` logger tree;
* :mod:`repro.obs.flight` -- always-on bounded ring buffer of recent
  span/error events for post-mortem dumps (``GET /v1/debug/flight``).

Instrumentation throughout the tree records into the process-global
registry by default; tests swap in their own via ``use_registry``.
"""

from repro.obs.flight import FlightRecorder, get_flight_recorder, set_flight_recorder
from repro.obs.logging import JsonLineFormatter, configure_logging, get_logger, log_event
from repro.obs.metrics import (
    DEFAULT_BUCKETS,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    get_registry,
    set_registry,
    use_registry,
)
from repro.obs.tracing import (
    Trace,
    absorb_spans,
    activate,
    add_span_sink,
    context_snapshot,
    current_correlation_id,
    current_trace,
    new_correlation_id,
    remove_span_sink,
    render_span_tree,
    shipping_trace,
    span,
    span_tree,
    start_trace,
)

__all__ = [
    "DEFAULT_BUCKETS",
    "Counter",
    "FlightRecorder",
    "Gauge",
    "Histogram",
    "JsonLineFormatter",
    "MetricsRegistry",
    "Trace",
    "absorb_spans",
    "activate",
    "add_span_sink",
    "configure_logging",
    "context_snapshot",
    "current_correlation_id",
    "current_trace",
    "get_flight_recorder",
    "get_logger",
    "get_registry",
    "log_event",
    "new_correlation_id",
    "remove_span_sink",
    "render_span_tree",
    "set_flight_recorder",
    "set_registry",
    "shipping_trace",
    "span",
    "span_tree",
    "start_trace",
    "use_registry",
]
