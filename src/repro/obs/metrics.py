"""Metrics registry: counters, gauges and histograms for the simulator.

The registry is the numeric companion to the event tracer
(:mod:`repro.obs.tracer`): where the tracer answers *when* something
happened, the registry answers *how much / how often* — TTFT and ITL
percentiles, queue depth over time, KV-pool occupancy, batch size per
iteration.  A :class:`MetricsRegistry` snapshots into an immutable
:class:`MetricsSnapshot` that rides on ``EngineResult`` and renders into
the bench report and dashboard.

Percentiles use linear interpolation between closest ranks — the same
convention as ``numpy.percentile``'s default.  The two evaluate the
interpolation with different float expressions, so they can differ in
the last ulp; registry numbers agree with post-hoc numpy analysis to a
relative 1e-12 (tested).
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass, field

from repro.core.jsonio import from_json_num, json_num

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "HistogramStats",
    "GaugeStats",
    "MetricsRegistry",
    "MetricsSnapshot",
    "percentile",
    "record_latencies",
]

#: Default histogram buckets (seconds): spans sub-ms ITLs to minute-scale
#: makespans at roughly 4 buckets per decade.
DEFAULT_BUCKETS_S = (
    0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1,
    0.25, 0.5, 1.0, 2.5, 5.0, 10.0, 30.0, 60.0, 120.0,
)


def percentile(samples: list[float], q: float) -> float:
    """Linear-interpolated percentile of ``samples`` (numpy-compatible)."""
    if not samples:
        return float("nan")
    if not 0.0 <= q <= 100.0:
        raise ValueError(f"percentile must be in [0, 100], got {q}")
    ordered = sorted(samples)
    if len(ordered) == 1:
        return ordered[0]
    rank = q / 100.0 * (len(ordered) - 1)
    lo = int(rank)
    hi = min(lo + 1, len(ordered) - 1)
    frac = rank - lo
    return ordered[lo] * (1.0 - frac) + ordered[hi] * frac


class Counter:
    """Monotonically increasing count (admissions, preemptions, tokens)."""

    __slots__ = ("name", "value")

    def __init__(self, name: str) -> None:
        self.name = name
        self.value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        if amount < 0.0:
            raise ValueError(f"counter increments must be >= 0, got {amount}")
        self.value += amount


class Gauge:
    """Sampled value over time (queue depth, KV occupancy, batch size).

    Keeps the statistics a snapshot reports, not the samples: last,
    minimum, maximum, the time-weighted area and the count.  Each is
    updated in the order a scan of the samples would visit them, so the
    results equal the built-ins ``min``/``max``/``sum`` over the full
    sample list bit for bit (NaN placement and int-valued stats
    included).
    """

    __slots__ = (
        "name", "last", "minimum", "maximum", "count",
        "_first_ts", "_last_ts", "_area", "_tied",
    )

    def __init__(self, name: str) -> None:
        self.name = name
        self.last = self.minimum = self.maximum = float("nan")
        self.count = 0
        self._first_ts = self._last_ts = 0.0
        self._area = 0.0  # sum of value * interval it was held
        self._tied: list[float] = []  # values set at the first timestamp

    def set(self, value: float, ts_s: float = 0.0) -> None:
        # Samples must arrive in time order: the time-weighted mean and
        # hold-last semantics silently corrupt on a rewound clock, so an
        # out-of-order set fails loudly (equal timestamps are fine — the
        # engine samples several gauges at the same instant).
        if not self.count:
            self.minimum = self.maximum = value
            self._first_ts = ts_s
        else:
            if ts_s < self._last_ts:
                raise ValueError(
                    f"out-of-order sample on gauge {self.name!r}: "
                    f"ts {ts_s} < last ts {self._last_ts}"
                )
            self._area += self.last * (ts_s - self._last_ts)
            if value < self.minimum:
                self.minimum = value
            if value > self.maximum:
                self.maximum = value
        if ts_s == self._first_ts:
            self._tied.append(value)
        self.last = value
        self._last_ts = ts_s
        self.count += 1

    def time_weighted_mean(self) -> float:
        """Mean weighted by the interval each sample was in effect."""
        if not self.count:
            return float("nan")
        if self.count == 1:
            return self.last
        span = self._last_ts - self._first_ts
        if span <= 0.0:
            # Timestamps are monotone: a zero span means every sample
            # was set at the first timestamp.
            return sum(self._tied) / len(self._tied)
        return self._area / span


class Histogram:
    """Bucketed distribution that also keeps raw samples.

    Buckets give the dashboard its bar panels; the raw samples give exact
    percentiles (the simulator's runs are small enough that keeping every
    observation is cheaper than being wrong about the tail).
    """

    __slots__ = ("name", "buckets", "counts", "samples")

    def __init__(self, name: str, buckets: tuple[float, ...] | None = None) -> None:
        bounds = tuple(buckets) if buckets is not None else DEFAULT_BUCKETS_S
        if list(bounds) != sorted(bounds) or len(set(bounds)) != len(bounds):
            raise ValueError("histogram buckets must be strictly increasing")
        if not bounds:
            raise ValueError("histogram needs at least one bucket bound")
        self.name = name
        self.buckets = bounds
        self.counts = [0] * (len(bounds) + 1)  # +1 overflow bucket
        self.samples: list[float] = []

    def record(self, value: float) -> None:
        # Prometheus ``le`` semantics: bucket i counts values <= buckets[i].
        self.counts[bisect_left(self.buckets, value)] += 1
        self.samples.append(value)

    @property
    def count(self) -> int:
        return len(self.samples)

    def mean(self) -> float:
        return sum(self.samples) / len(self.samples) if self.samples else float("nan")

    def percentile(self, q: float) -> float:
        return percentile(self.samples, q)


@dataclass(frozen=True)
class GaugeStats:
    """Frozen view of one gauge at snapshot time."""

    last: float
    minimum: float
    maximum: float
    time_weighted_mean: float
    num_samples: int


@dataclass(frozen=True)
class HistogramStats:
    """Frozen view of one histogram at snapshot time."""

    count: int
    mean: float
    p50: float
    p90: float
    p99: float
    buckets: tuple[float, ...]
    bucket_counts: tuple[int, ...]


@dataclass(frozen=True)
class MetricsSnapshot:
    """Immutable registry state: what ``EngineResult`` and reports carry."""

    counters: dict[str, float] = field(default_factory=dict)
    gauges: dict[str, GaugeStats] = field(default_factory=dict)
    histograms: dict[str, HistogramStats] = field(default_factory=dict)

    def render(self) -> str:
        """Human-readable summary table (the ``repro trace`` output)."""
        lines: list[str] = []
        if self.histograms:
            lines.append(
                f"{'histogram':<24}{'count':>7}{'mean':>12}"
                f"{'p50':>12}{'p90':>12}{'p99':>12}"
            )
            for name in sorted(self.histograms):
                h = self.histograms[name]
                lines.append(
                    f"{name:<24}{h.count:>7d}{h.mean:>12.4g}"
                    f"{h.p50:>12.4g}{h.p90:>12.4g}{h.p99:>12.4g}"
                )
        if self.gauges:
            lines.append("")
            lines.append(
                f"{'gauge':<24}{'last':>10}{'min':>10}{'max':>10}{'t-mean':>10}"
            )
            for name in sorted(self.gauges):
                g = self.gauges[name]
                lines.append(
                    f"{name:<24}{g.last:>10.4g}{g.minimum:>10.4g}"
                    f"{g.maximum:>10.4g}{g.time_weighted_mean:>10.4g}"
                )
        if self.counters:
            lines.append("")
            lines.append(f"{'counter':<24}{'value':>10}")
            for name in sorted(self.counters):
                lines.append(f"{name:<24}{self.counters[name]:>10.4g}")
        return "\n".join(lines)

    def to_json_dict(self) -> dict[str, object]:
        """Deterministic JSON-serializable view (non-finite -> null).

        Empty gauges and histograms carry NaN statistics; ``json.dump``
        would emit bare ``NaN`` tokens most parsers reject, so every
        scalar is sanitized through ``null`` instead.
        """
        return {
            "counters": {
                name: json_num(value) for name, value in self.counters.items()
            },
            "gauges": {
                name: {
                    "last": json_num(g.last),
                    "min": json_num(g.minimum),
                    "max": json_num(g.maximum),
                    "time_weighted_mean": json_num(g.time_weighted_mean),
                    "num_samples": g.num_samples,
                }
                for name, g in self.gauges.items()
            },
            "histograms": {
                name: {
                    "count": h.count,
                    "mean": json_num(h.mean),
                    "p50": json_num(h.p50),
                    "p90": json_num(h.p90),
                    "p99": json_num(h.p99),
                    "buckets": list(h.buckets),
                    "bucket_counts": list(h.bucket_counts),
                }
                for name, h in self.histograms.items()
            },
        }

    @classmethod
    def from_json_dict(cls, payload: dict[str, object]) -> "MetricsSnapshot":
        """Inverse of :meth:`to_json_dict` (``null`` -> NaN).

        Round-trips losslessly: ``snapshot.to_json_dict()`` equals
        ``MetricsSnapshot.from_json_dict(snapshot.to_json_dict())
        .to_json_dict()`` key-for-key (tested), which is what experiment
        bundles rely on to compare replayed metrics byte-for-byte.
        ``None`` maps back to NaN — ``inf`` is not distinguished, but no
        registry instrument produces infinities.
        """
        counters = {
            name: from_json_num(value)
            for name, value in dict(payload.get("counters", {})).items()
        }
        gauges = {
            name: GaugeStats(
                last=from_json_num(g["last"]),
                minimum=from_json_num(g["min"]),
                maximum=from_json_num(g["max"]),
                time_weighted_mean=from_json_num(g["time_weighted_mean"]),
                num_samples=int(g["num_samples"]),
            )
            for name, g in dict(payload.get("gauges", {})).items()
        }
        histograms = {
            name: HistogramStats(
                count=int(h["count"]),
                mean=from_json_num(h["mean"]),
                p50=from_json_num(h["p50"]),
                p90=from_json_num(h["p90"]),
                p99=from_json_num(h["p99"]),
                buckets=tuple(h["buckets"]),
                bucket_counts=tuple(int(c) for c in h["bucket_counts"]),
            )
            for name, h in dict(payload.get("histograms", {})).items()
        }
        return cls(counters=counters, gauges=gauges, histograms=histograms)


def record_latencies(registry: "MetricsRegistry", requests) -> None:
    """Record the per-request latency histograms for ``requests``.

    TTFT for every request that produced a first token; e2e, NTPOT
    (whole-request latency per generated token, queueing and prefill
    included, unlike ITL) and ITL only for finished ones.
    """
    for request in requests:
        first = request.first_token_time
        if first is None:
            continue
        registry.histogram("ttft_s").record(request.ttft_s)
        finish = request.finish_time
        if finish is None:
            continue
        e2e = request.end_to_end_latency_s
        registry.histogram("e2e_s").record(e2e)
        registry.histogram("ntpot_s").record(e2e / request.output_tokens)
        if request.output_tokens > 1:
            registry.histogram("itl_s").record(
                (finish - first) / (request.output_tokens - 1)
            )


class MetricsRegistry:
    """Named metric instruments, created on first use."""

    def __init__(self) -> None:
        self._counters: dict[str, Counter] = {}
        self._gauges: dict[str, Gauge] = {}
        self._histograms: dict[str, Histogram] = {}

    def counter(self, name: str) -> Counter:
        inst = self._counters.get(name)
        if inst is None:
            inst = self._counters[name] = Counter(name)
        return inst

    def gauge(self, name: str) -> Gauge:
        inst = self._gauges.get(name)
        if inst is None:
            inst = self._gauges[name] = Gauge(name)
        return inst

    def histogram(self, name: str, buckets: tuple[float, ...] | None = None) -> Histogram:
        inst = self._histograms.get(name)
        if inst is None:
            inst = self._histograms[name] = Histogram(name, buckets)
        elif buckets is not None and tuple(buckets) != inst.buckets:
            raise ValueError(
                f"histogram {name!r} already registered with different buckets"
            )
        return inst

    def snapshot(self) -> MetricsSnapshot:
        return MetricsSnapshot(
            counters={name: c.value for name, c in self._counters.items()},
            gauges={
                name: GaugeStats(
                    last=g.last,
                    minimum=g.minimum,
                    maximum=g.maximum,
                    time_weighted_mean=g.time_weighted_mean(),
                    num_samples=g.count,
                )
                for name, g in self._gauges.items()
            },
            histograms={
                name: HistogramStats(
                    count=h.count,
                    mean=h.mean(),
                    p50=h.percentile(50),
                    p90=h.percentile(90),
                    p99=h.percentile(99),
                    buckets=h.buckets,
                    bucket_counts=tuple(h.counts),
                )
                for name, h in self._histograms.items()
            },
        )
