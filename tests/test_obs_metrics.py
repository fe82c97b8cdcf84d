"""Tests for the metrics registry (repro.obs.metrics)."""

import json
import math

import numpy as np
import pytest

from repro.obs.metrics import (
    Gauge,
    Histogram,
    MetricsRegistry,
    MetricsSnapshot,
    percentile,
)


class TestPercentile:
    def test_matches_numpy_on_random_samples(self):
        rng = np.random.default_rng(7)
        cases = [list(rng.lognormal(0.0, 1.0, size=257))]
        cases += [list(rng.lognormal(0.0, 1.0, size=n)) for n in range(1, 401)]
        for samples in cases:
            for q in (0, 1, 5, 25, 50, 75, 90, 95, 99, 99.9, 100):
                assert percentile(samples, q) == float(np.percentile(samples, q))

    def test_single_sample(self):
        assert percentile([4.2], 99) == 4.2

    def test_empty_is_nan(self):
        assert math.isnan(percentile([], 50))

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            percentile([1.0], 101)


class TestCounter:
    def test_accumulates(self):
        registry = MetricsRegistry()
        counter = registry.counter("preemptions")
        counter.inc()
        counter.inc(3)
        assert counter.value == 4

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            MetricsRegistry().counter("x").inc(-1)

    def test_same_name_same_instrument(self):
        registry = MetricsRegistry()
        assert registry.counter("a") is registry.counter("a")


class TestGauge:
    def test_last_and_extremes(self):
        gauge = Gauge("queue_depth")
        for ts, v in [(0.0, 3), (1.0, 8), (2.0, 1)]:
            gauge.set(v, ts_s=ts)
        assert gauge.last == 1

    def test_time_weighted_mean(self):
        gauge = Gauge("batch")
        gauge.set(0, ts_s=0.0)
        gauge.set(10, ts_s=1.0)  # value 0 held for [0, 1)
        gauge.set(10, ts_s=3.0)  # value 10 held for [1, 3)
        # (0*1 + 10*2) / 3
        assert gauge.time_weighted_mean() == pytest.approx(20 / 3)

    def test_empty_gauge_is_nan(self):
        assert math.isnan(Gauge("x").time_weighted_mean())
        assert math.isnan(Gauge("x").last)

    def test_single_sample_at_t0_reports_value(self):
        # A gauge set exactly once at t=0 has zero span but a perfectly
        # well-defined value: it held that value the whole run.
        gauge = Gauge("x")
        gauge.set(7.0, ts_s=0.0)
        assert gauge.time_weighted_mean() == 7.0
        assert gauge.last == 7.0

    def test_zero_span_samples_average_plainly(self):
        # All samples at the same instant: no interval to weight by, so
        # the time-weighted mean degrades to the plain mean.
        gauge = Gauge("x")
        gauge.set(2.0, ts_s=1.0)
        gauge.set(4.0, ts_s=1.0)
        assert gauge.time_weighted_mean() == pytest.approx(3.0)

    def test_out_of_order_set_raises(self):
        gauge = Gauge("x")
        gauge.set(1.0, ts_s=2.0)
        with pytest.raises(ValueError, match="out-of-order"):
            gauge.set(2.0, ts_s=1.0)
        # Equal timestamps are fine (several gauges sampled per step).
        gauge.set(3.0, ts_s=2.0)
        assert gauge.last == 3.0

    def test_nan_value_propagates_not_raises(self):
        # NaN is a legitimate "unknown" sample (e.g. ITL with one output
        # token); it poisons the mean rather than raising.
        gauge = Gauge("x")
        gauge.set(float("nan"), ts_s=0.0)
        gauge.set(1.0, ts_s=1.0)
        assert math.isnan(gauge.time_weighted_mean())
        assert gauge.last == 1.0


class TestHistogram:
    def test_bucket_counts(self):
        hist = Histogram("ttft", buckets=(0.1, 1.0, 10.0))
        for v in (0.05, 0.5, 0.5, 5.0, 50.0):
            hist.record(v)
        assert hist.counts == [1, 2, 1, 1]  # last is the overflow bucket

    def test_boundary_goes_to_lower_bucket(self):
        hist = Histogram("x", buckets=(1.0, 2.0))
        hist.record(1.0)  # <= 1.0 bucket
        assert hist.counts == [1, 0, 0]

    def test_percentiles_match_numpy(self):
        rng = np.random.default_rng(3)
        hist = Histogram("itl")
        values = rng.exponential(0.02, size=500)
        for v in values:
            hist.record(float(v))
        for q in (50, 90, 99):
            assert hist.percentile(q) == float(np.percentile(values, q))

    def test_unsorted_buckets_rejected(self):
        with pytest.raises(ValueError):
            Histogram("x", buckets=(2.0, 1.0))

    def test_conflicting_reregistration_rejected(self):
        registry = MetricsRegistry()
        registry.histogram("h", buckets=(1.0,))
        with pytest.raises(ValueError, match="different buckets"):
            registry.histogram("h", buckets=(2.0,))


class TestSnapshot:
    def test_snapshot_contents(self):
        registry = MetricsRegistry()
        registry.counter("admitted").inc(5)
        registry.gauge("depth").set(2, ts_s=0.0)
        registry.gauge("depth").set(4, ts_s=1.0)
        hist = registry.histogram("ttft_s")
        for v in (0.1, 0.2, 0.3):
            hist.record(v)
        snap = registry.snapshot()
        assert snap.counters["admitted"] == 5
        assert snap.gauges["depth"].minimum == 2
        assert snap.gauges["depth"].maximum == 4
        assert snap.histograms["ttft_s"].count == 3
        assert snap.histograms["ttft_s"].p50 == pytest.approx(0.2)

    def test_snapshot_is_immutable_and_detached(self):
        registry = MetricsRegistry()
        registry.counter("n").inc()
        snap = registry.snapshot()
        registry.counter("n").inc()
        assert snap.counters["n"] == 1  # snapshot frozen at capture time

    def test_render_contains_percentile_headers(self):
        registry = MetricsRegistry()
        registry.histogram("ttft_s").record(0.5)
        text = registry.snapshot().render()
        assert "p50" in text and "p90" in text and "p99" in text
        assert "ttft_s" in text


class TestSnapshotRoundTrip:
    def _snapshot(self):
        registry = MetricsRegistry()
        registry.counter("admitted").inc(5)
        registry.gauge("depth").set(2, ts_s=0.0)
        registry.gauge("depth").set(4, ts_s=1.0)
        hist = registry.histogram("ttft_s")
        for v in (0.1, 0.2, 0.3):
            hist.record(v)
        return registry.snapshot()

    def test_round_trip_is_lossless(self):
        snap = self._snapshot()
        rebuilt = MetricsSnapshot.from_json_dict(snap.to_json_dict())
        assert rebuilt.to_json_dict() == snap.to_json_dict()

    def test_round_trip_through_json_text(self):
        snap = self._snapshot()
        payload = json.loads(json.dumps(snap.to_json_dict()))
        rebuilt = MetricsSnapshot.from_json_dict(payload)
        assert rebuilt.to_json_dict() == snap.to_json_dict()

    def test_integer_gauge_samples_stay_integers(self):
        # Byte-identical bundle replay depends on 4 not becoming 4.0.
        snap = self._snapshot()
        rebuilt = MetricsSnapshot.from_json_dict(snap.to_json_dict())
        assert rebuilt.gauges["depth"].maximum == 4
        assert isinstance(rebuilt.gauges["depth"].maximum, int)

    def test_nan_round_trips_via_null(self):
        registry = MetricsRegistry()
        registry.histogram("empty_s")  # no samples: NaN percentiles
        snap = registry.snapshot()
        payload = snap.to_json_dict()
        assert payload["histograms"]["empty_s"]["p50"] is None
        rebuilt = MetricsSnapshot.from_json_dict(
            json.loads(json.dumps(payload))
        )
        assert math.isnan(rebuilt.histograms["empty_s"].p50)
        assert rebuilt.to_json_dict() == payload

    def test_histogram_stats_preserved(self):
        snap = self._snapshot()
        rebuilt = MetricsSnapshot.from_json_dict(snap.to_json_dict())
        hist = rebuilt.histograms["ttft_s"]
        assert hist.count == 3
        assert hist.p50 == pytest.approx(0.2)
        assert hist.bucket_counts == snap.histograms["ttft_s"].bucket_counts
