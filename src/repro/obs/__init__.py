"""Observability: event tracing, metrics registry, per-request timelines.

The simulator-wide telemetry substrate.  ``EventTracer`` records span and
instant events as the serving engine runs (exported to Chrome
``trace_event`` JSON for Perfetto), ``MetricsRegistry`` accumulates
counters/gauges/histograms (TTFT/ITL percentiles, queue depth, KV-pool
occupancy), and ``RequestTimeline`` reconstructs each request's
arrival → admit → prefill → decode → retire path.  An absent observer
is ``None``: components default to ``tracer=None`` and
``telemetry=None``, and each hot-path site guards with ``is not None``.
"""

from repro.obs.export import (
    counter_series,
    to_chrome_trace,
    to_chrome_trace_multi,
    trace_summary,
    write_chrome_trace,
)
from repro.obs.metrics import (
    Counter,
    Gauge,
    GaugeStats,
    Histogram,
    HistogramStats,
    MetricsRegistry,
    MetricsSnapshot,
    percentile,
)
from repro.obs.profiler import (
    PhaseProfile,
    ProfileReport,
    RequestProfile,
    StepProfiler,
    merge_profiles,
)
from repro.obs.telemetry import (
    Alert,
    QuantileSketch,
    SloBudget,
    TelemetryHub,
    TelemetrySnapshot,
    TimeSeries,
)
from repro.obs.timeline import RequestTimeline, build_timelines, timeline_table
from repro.obs.tracer import CATEGORIES, EventTracer, TraceEvent

__all__ = [
    "CATEGORIES",
    "EventTracer",
    "TraceEvent",
    "Counter",
    "Gauge",
    "GaugeStats",
    "Histogram",
    "HistogramStats",
    "MetricsRegistry",
    "MetricsSnapshot",
    "percentile",
    "PhaseProfile",
    "ProfileReport",
    "RequestProfile",
    "StepProfiler",
    "merge_profiles",
    "Alert",
    "QuantileSketch",
    "SloBudget",
    "TelemetryHub",
    "TelemetrySnapshot",
    "TimeSeries",
    "RequestTimeline",
    "build_timelines",
    "timeline_table",
    "counter_series",
    "to_chrome_trace",
    "to_chrome_trace_multi",
    "trace_summary",
    "write_chrome_trace",
]
