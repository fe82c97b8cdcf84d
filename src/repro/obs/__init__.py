"""Observability: event tracing, metrics registry, per-request timelines.

The simulator-wide telemetry substrate.  ``EventTracer`` records span and
instant events as the serving engine runs (exported to Chrome
``trace_event`` JSON for Perfetto), ``MetricsRegistry`` accumulates
counters/gauges/histograms (TTFT/ITL percentiles, queue depth, KV-pool
occupancy), and ``RequestTimeline`` reconstructs each request's
arrival → admit → prefill → decode → retire path.  The shared
``NULL_TRACER`` default keeps every hot path allocation-free when tracing
is off.
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
    NULL_TELEMETRY,
    Alert,
    QuantileSketch,
    SloBudget,
    TelemetryHub,
    TelemetrySnapshot,
    TimeSeries,
)
from repro.obs.timeline import RequestTimeline, build_timelines, timeline_table
from repro.obs.tracer import (
    CATEGORIES,
    NULL_TRACER,
    EventTracer,
    TraceEvent,
    Tracer,
)

__all__ = [
    "CATEGORIES",
    "NULL_TRACER",
    "EventTracer",
    "TraceEvent",
    "Tracer",
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
    "NULL_TELEMETRY",
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
