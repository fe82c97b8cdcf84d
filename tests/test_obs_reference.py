"""Exact-equality references for the sampled instruments.

:class:`~repro.obs.metrics.Gauge` keeps running statistics instead of
its samples, and :class:`~repro.obs.telemetry.TimeSeries` keeps two
bounded lists instead of a numpy ring buffer.  Both must read exactly
as if every sample were still there, so each is held here to a
reference that stores every sample and reduces at read time: a
list-backed gauge and a numpy ring-buffer series.  Seeded streams mix
int and float values, NaN samples, single samples, timestamp ties at
the start and mid-stream, and (for the series) more appends than
:data:`~repro.obs.telemetry.SERIES_CAPACITY`.  Every read is compared
with ``==`` (NaN equal to NaN) and the types of int-valued statistics
must match.

:class:`~repro.obs.telemetry.QuantileSketch` keeps its bucket counts as
Python ints and bins with ``bisect``; it is held to the numpy sketch it
replaced (``int64`` counts, ``np.searchsorted``), including values on
bucket edges and outside the bucket range.  ``TimeSeries.delta`` reads
the last sample directly at or after it, and ``to_json_dict`` copies an
all-finite list whole; both are held to the per-value paths.
"""

from __future__ import annotations

import math
import random

import numpy as np
import pytest

from repro.core.jsonio import json_num
from repro.obs.metrics import MetricsRegistry
from repro.obs.telemetry import (
    SERIES_CAPACITY,
    SKETCH_BUCKETS,
    SKETCH_EDGES,
    SKETCH_HI,
    SKETCH_LO,
    QuantileSketch,
    TimeSeries,
)

NAN = float("nan")


class ListGauge:
    """Reference gauge: every ``(ts, value)`` sample, reduced on read."""

    def __init__(self) -> None:
        self.samples: list[tuple[float, float]] = []

    def set(self, value, ts_s=0.0) -> None:
        if self.samples and ts_s < self.samples[-1][0]:
            raise ValueError("out-of-order sample")
        self.samples.append((ts_s, value))

    def time_weighted_mean(self):
        if not self.samples:
            return NAN
        if len(self.samples) == 1:
            return self.samples[0][1]
        total = 0.0
        span = self.samples[-1][0] - self.samples[0][0]
        if span <= 0.0:
            return sum(v for _, v in self.samples) / len(self.samples)
        for (t0, v), (t1, _) in zip(self.samples, self.samples[1:]):
            total += v * (t1 - t0)
        return total / span

    def stats(self) -> tuple:
        values = [v for _, v in self.samples]
        return (
            values[-1] if values else NAN,
            min(values) if values else NAN,
            max(values) if values else NAN,
            self.time_weighted_mean(),
            len(values),
        )


class RingSeries:
    """Reference series: a numpy ring buffer of ``SERIES_CAPACITY``."""

    def __init__(self, capacity: int = SERIES_CAPACITY) -> None:
        self.capacity = capacity
        self._ts = np.empty(capacity, dtype=np.float64)
        self._values = np.empty(capacity, dtype=np.float64)
        self._size = 0
        self._head = 0

    def append(self, ts_s, value) -> None:
        ts_s = float(ts_s)
        if self._size:
            last = float(self._ts[(self._head - 1) % self.capacity])
            if ts_s < last:
                raise ValueError("out-of-order sample")
        self._ts[self._head] = ts_s
        self._values[self._head] = value
        self._head = (self._head + 1) % self.capacity
        self._size = min(self._size + 1, self.capacity)

    def ordered_ts(self) -> np.ndarray:
        if self._size < self.capacity:
            return self._ts[: self._size].copy()
        return np.concatenate((self._ts[self._head:], self._ts[: self._head]))

    def ordered_values(self) -> np.ndarray:
        if self._size < self.capacity:
            return self._values[: self._size].copy()
        return np.concatenate(
            (self._values[self._head:], self._values[: self._head])
        )

    def value_at(self, ts_s, default=NAN) -> float:
        if not self._size:
            return default
        idx = int(np.searchsorted(self.ordered_ts(), ts_s, side="right")) - 1
        if idx < 0:
            return default
        return float(self.ordered_values()[idx])

    def window(self, window_s, now_s) -> list[float]:
        if not self._size:
            return []
        ts = self.ordered_ts()
        lo = int(np.searchsorted(ts, now_s - window_s, side="right"))
        hi = int(np.searchsorted(ts, now_s, side="right"))
        return [float(v) for v in self.ordered_values()[lo:hi]]

    def delta(self, window_s, now_s) -> float:
        if not self._size:
            return NAN
        end = self.value_at(now_s, default=0.0)
        start = self.value_at(now_s - window_s, default=0.0)
        return end - start

    def to_json_dict(self) -> dict:
        return {
            "unit": "",
            "ts_s": [json_num(float(t)) for t in self.ordered_ts()],
            "values": [json_num(float(v)) for v in self.ordered_values()],
        }


def same(a, b) -> bool:
    """``==`` with matching types, elementwise; floats must also match
    in sign (``-0.0``), and NaN equals NaN."""
    if isinstance(a, (list, tuple)):
        return (
            type(a) is type(b)
            and len(a) == len(b)
            and all(same(x, y) for x, y in zip(a, b))
        )
    if type(a) is not type(b):
        return False
    if isinstance(a, float):
        return repr(a) == repr(b)
    return a == b


def stream(seed: int, n: int, *, opening_ties: int = 0) -> list[tuple]:
    """Seeded ``(ts, value)`` samples: non-decreasing timestamps on a
    quarter-second grid (so window edges land exactly on samples) or
    off it, with ties; int, float and NaN values."""
    rng = random.Random(seed)
    ts = rng.choice([0.0, 0.25, rng.uniform(0.0, 10.0)])
    out = []
    for i in range(n):
        if i >= max(opening_ties, 1):
            step = rng.random()
            if step < 0.2:
                pass  # mid-stream tie
            elif step < 0.6:
                ts += 0.25 * rng.randint(1, 8)
            else:
                ts += rng.uniform(1e-6, 2.0)
        kind = rng.random()
        if kind < 0.35:
            value = rng.randint(-5, 50)
        elif kind < 0.9:
            value = rng.uniform(-1e3, 1e3) * rng.choice([1e-9, 1.0, 1e12])
        else:
            value = NAN if rng.random() < 0.5 else rng.choice([0.1, 1e16])
        out.append((ts, value))
    return out


def int_stream(seed: int, n: int) -> list[tuple]:
    """Int values only, so last/min/max and single-sample means stay int."""
    rng = random.Random(seed)
    ts, out = 0.0, []
    for _ in range(n):
        ts += rng.choice([0.0, 0.5, rng.uniform(0.0, 1.0)])
        out.append((ts, rng.randint(0, 64)))
    return out


STREAMS = (
    [pytest.param([], id="empty")]
    + [pytest.param(s, id=f"single-{i}")
       for i, s in enumerate([[(0.0, 7)], [(3.0, 2.5)], [(1.0, NAN)]])]
    + [pytest.param([(1.0, v) for v in vs], id=f"all-tied-{i}")
       for i, vs in enumerate([
           [2.0, 4.0],
           [0.1, 1e16, 0.1, -1e16, 0.1],  # compensated sum differs from naive
           [3, 5, 8],
           [1.0, NAN, 2.0],
       ])]
    + [pytest.param([(0.0, NAN), (1.0, 1.0), (2.0, 0.5)], id="nan-first")]
    # Equal values of another sign or type: the first one seen is kept.
    + [pytest.param([(0.0, 0.0), (0.5, -0.0), (1.0, 3), (1.5, 3.0),
                     (2.0, -0.0)], id="equal-extremes")]
    + [pytest.param(stream(seed, 300, opening_ties=seed % 4), id=f"random-{seed}")
       for seed in range(12)]
    + [pytest.param(int_stream(seed, 200), id=f"int-{seed}") for seed in range(4)]
)


class TestGaugeReference:
    @pytest.mark.parametrize("samples", STREAMS)
    def test_statistics_equal_reference(self, samples):
        registry = MetricsRegistry()
        gauge = registry.gauge("g")
        ref = ListGauge()
        checkpoints = {0, 1, 2, len(samples) // 2, len(samples)}
        for i in range(len(samples) + 1):
            if i in checkpoints:
                g = registry.snapshot().gauges["g"]
                got = (g.last, g.minimum, g.maximum,
                       g.time_weighted_mean, g.num_samples)
                assert same(got, ref.stats()), (i, got, ref.stats())
            if i < len(samples):
                ts, value = samples[i]
                gauge.set(value, ts_s=ts)
                ref.set(value, ts_s=ts)

    @pytest.mark.parametrize("seed", range(3))
    def test_rejected_set_changes_nothing(self, seed):
        samples = stream(seed, 40, opening_ties=2)
        registry = MetricsRegistry()
        gauge = registry.gauge("g")
        ref = ListGauge()
        for ts, value in samples:
            gauge.set(value, ts_s=ts)
            ref.set(value, ts_s=ts)
        with pytest.raises(ValueError, match="out-of-order"):
            gauge.set(99, ts_s=samples[-1][0] - 1.0)
        g = registry.snapshot().gauges["g"]
        got = (g.last, g.minimum, g.maximum, g.time_weighted_mean, g.num_samples)
        assert same(got, ref.stats())


def _queries(samples, rng: random.Random) -> list[float]:
    """Query times: exactly at samples, between them, before and after."""
    times = [ts for ts, _ in samples]
    out = [times[0] - 1.0, times[-1] + 1.0] if times else [0.0]
    for _ in range(40):
        if not times:
            break
        t = rng.choice(times)
        out.extend([t, t + rng.choice([0.1, 0.25, -0.25]), rng.uniform(-1.0, t + 1.0)])
    return out


def _check_reads(series: TimeSeries, ref: RingSeries, rng: random.Random,
                 samples: list[tuple]) -> None:
    assert series.to_json_dict() == ref.to_json_dict()
    for now in _queries(samples, rng):
        assert same(series.value_at(now), ref.value_at(now))
        assert same(series.value_at(now, default=0.0),
                    ref.value_at(now, default=0.0))
        for window_s in (0.25, 0.5, 1.0, 2.75, rng.uniform(0.0, 5.0), 1e9):
            assert same(series.window(window_s, now), ref.window(window_s, now))
            assert same(series.delta(window_s, now), ref.delta(window_s, now))


class TestTimeSeriesReference:
    @pytest.mark.parametrize("samples", STREAMS)
    def test_reads_equal_reference(self, samples):
        series, ref = TimeSeries("s"), RingSeries()
        for ts, value in samples:
            series.append(ts, value)
            ref.append(ts, value)
        _check_reads(series, ref, random.Random(len(samples)), samples)

    @pytest.mark.parametrize("seed", range(3))
    def test_past_capacity_drops_oldest_like_a_ring(self, seed):
        samples = stream(100 + seed, SERIES_CAPACITY + 700, opening_ties=3)
        series, ref = TimeSeries("s"), RingSeries()
        rng = random.Random(seed)
        for i, (ts, value) in enumerate(samples, 1):
            series.append(ts, value)
            ref.append(ts, value)
            if i in (SERIES_CAPACITY - 1, SERIES_CAPACITY, SERIES_CAPACITY + 1,
                     len(samples)):
                _check_reads(series, ref, rng, samples[max(0, i - SERIES_CAPACITY):i])
        assert len(series.to_json_dict()["ts_s"]) == SERIES_CAPACITY

    def test_rejected_append_changes_nothing(self):
        samples = stream(5, 50)
        series, ref = TimeSeries("s"), RingSeries()
        for ts, value in samples:
            series.append(ts, value)
            ref.append(ts, value)
        with pytest.raises(ValueError, match="out-of-order"):
            series.append(samples[-1][0] - 1.0, 1.0)
        assert series.to_json_dict() == ref.to_json_dict()


def _bisect_delta(series: TimeSeries, window_s: float, now_s: float) -> float:
    """``delta`` through two ``value_at`` bisects, as it read before the
    last-sample fast path."""
    return series.value_at(now_s, default=0.0) - series.value_at(
        now_s - window_s, default=0.0
    )


class TestDeltaFastPath:
    @pytest.mark.parametrize("seed", range(6))
    def test_at_and_after_last_sample_equals_bisect(self, seed):
        rng = random.Random(seed)
        samples = stream(seed, 200, opening_ties=seed % 3)
        # A tie on the last timestamp: the fast path must read the last
        # of the tied samples, as ``bisect_right`` does.
        samples.append((samples[-1][0], rng.uniform(0.0, 10.0)))
        series = TimeSeries("s")
        for ts, value in samples:
            series.append(ts, value)
        last = samples[-1][0]
        for now in (last, last + 1e-9, last + 0.25, last + 5.0, last + 1e9):
            for window_s in (0.0, 0.25, 1.0, 5.0, rng.uniform(0.0, 30.0), 1e12):
                assert same(
                    series.delta(window_s, now), _bisect_delta(series, window_s, now)
                ), (now, window_s)

    def test_before_last_sample_and_nan_clock_take_the_bisect_path(self):
        series = TimeSeries("s")
        for ts, value in ((0.0, 1.0), (1.0, 3.0), (2.0, 6.0)):
            series.append(ts, value)
        for now in (-1.0, 0.0, 0.5, 1.0, 1.99, float("nan")):
            for window_s in (0.5, 1.0, 5.0):
                assert same(
                    series.delta(window_s, now), _bisect_delta(series, window_s, now)
                ), (now, window_s)
        assert same(TimeSeries("empty").delta(1.0, 1.0), NAN)


class TestToJsonDict:
    @pytest.mark.parametrize(
        "values",
        [
            [],
            [0.0, -0.0, 1.5, 3],
            [1e308, 1e308],  # finite, but their sum overflows to inf
            [1e308, 1e308, -1e308],
            [-1e308, -1e308],
            [1.0, NAN, 2.0],
            [NAN],
            [float("inf"), 1.0],
            [1.0, float("-inf")],
            [1e308, float("inf"), float("-inf")],  # sum is NaN
        ],
        ids=lambda v: repr(v),
    )
    def test_equals_per_value_json_num(self, values):
        series = TimeSeries("s", unit="u")
        for i, value in enumerate(values):
            series.append(float(i), value)
        body = series.to_json_dict()
        assert same(body["values"], [json_num(float(v)) for v in values])
        assert same(body["ts_s"], [float(i) for i in range(len(values))])
        assert body["unit"] == "u"

    def test_non_finite_timestamps(self):
        series = TimeSeries("s")
        series.append(1e308, 1.0)
        series.append(float("inf"), 2.0)
        assert same(series.to_json_dict()["ts_s"], [1e308, None])

    def test_returns_copies(self):
        series = TimeSeries("s")
        series.append(0.0, 1.0)
        body = series.to_json_dict()
        body["ts_s"].append(9.0)
        body["values"].append(9.0)
        assert series.to_json_dict() == {"unit": "", "ts_s": [0.0], "values": [1.0]}


class NumpySketch:
    """Reference sketch: ``int64`` bucket counts binned with
    ``np.searchsorted`` (the numpy implementation the list one replaced)."""

    def __init__(self) -> None:
        self._counts = np.zeros(SKETCH_BUCKETS + 2, dtype=np.int64)
        self._count = 0
        self._min = float("inf")
        self._max = float("-inf")

    def add(self, value) -> None:
        value = float(value)
        if value < SKETCH_EDGES[0]:
            idx = 0
        elif value >= SKETCH_EDGES[-1]:
            idx = len(self._counts) - 1
        else:
            idx = int(np.searchsorted(SKETCH_EDGES, value, side="right"))
        self._counts[idx] += 1
        self._count += 1
        self._min = min(self._min, value)
        self._max = max(self._max, value)

    def quantile(self, q: float) -> float:
        if not self._count:
            return NAN
        rank = q * (self._count - 1)
        cum = 0
        for idx, bucket_count in enumerate(self._counts):
            if not bucket_count:
                continue
            if rank < cum + bucket_count:
                if idx == 0:
                    return self._min
                if idx == len(self._counts) - 1:
                    return self._max
                lo = float(SKETCH_EDGES[idx - 1])
                hi = float(SKETCH_EDGES[idx])
                frac = (rank - cum + 1.0) / (bucket_count + 1.0)
                value = lo + frac * (hi - lo)
                return min(max(value, self._min), self._max)
            cum += bucket_count
        return self._max


_EDGE_VALUES = [float(e) for e in SKETCH_EDGES]
_OUT_OF_RANGE = [
    0.0, -0.0, -1.0, 1e-9, SKETCH_LO * (1 - 1e-12), float("-inf"),
    SKETCH_HI, SKETCH_HI * (1 + 1e-12), 1e6, float("inf"),
]


def sketch_stream(seed: int, n: int) -> list[float]:
    """Seeded latencies over the whole bucket range, with bucket edges,
    out-of-range values and repeats mixed in."""
    rng = random.Random(seed)
    out = []
    for _ in range(n):
        kind = rng.random()
        if kind < 0.6:
            out.append(10.0 ** rng.uniform(-5.0, 5.0))
        elif kind < 0.75:
            out.append(rng.choice(_EDGE_VALUES))
        elif kind < 0.85:
            out.append(rng.choice(_OUT_OF_RANGE))
        elif kind < 0.95:
            out.append(rng.lognormvariate(-2.0, 1.0))  # TTFT-like seconds
        elif out:
            out.append(rng.choice(out))
        else:
            out.append(1.0)
    return out


SKETCH_STREAMS = (
    [pytest.param([v], id=f"single-{v!r}")
     for v in [0.5, SKETCH_LO, SKETCH_HI, 1e-9, -2.0, 1e6,
               _EDGE_VALUES[1], _EDGE_VALUES[64], float("inf")]]
    + [pytest.param([0.25] * 7, id="one-value-repeated")]
    + [pytest.param(_EDGE_VALUES, id="every-edge")]
    + [pytest.param(_OUT_OF_RANGE, id="out-of-range")]
    + [pytest.param(sketch_stream(seed, n), id=f"random-{seed}-{n}")
       for seed, n in ((0, 2), (1, 10), (2, 100), (3, 1000), (4, 5000))]
)

_QS = (0.0, 1e-9, 0.01, 0.25, 0.5, 0.75, 0.9, 0.95, 0.99, 1.0 - 1e-12, 1.0)


class TestQuantileSketchReference:
    @pytest.mark.parametrize("values", SKETCH_STREAMS)
    def test_quantiles_equal_numpy_sketch(self, values):
        sketch, ref = QuantileSketch(), NumpySketch()
        rng = random.Random(len(values))
        qs = _QS + tuple(rng.random() for _ in range(20))
        for i, value in enumerate(values, 1):
            sketch.add(value)
            ref.add(value)
            if i in (1, 2, len(values) // 2, len(values)):
                assert sketch.count == ref._count
                assert sketch._counts == ref._counts.tolist()
                for q in qs:
                    got, want = sketch.quantile(q), ref.quantile(q)
                    assert got == want or (math.isnan(got) and math.isnan(want)), (
                        i, q, got, want,
                    )

    def test_bins_like_searchsorted_right(self):
        sketch = QuantileSketch()
        for value in _EDGE_VALUES[:-1]:
            sketch.add(value)
        # Each edge opens its bucket: edge k lands in bucket k + 1.
        assert sketch._counts == [0] + [1] * SKETCH_BUCKETS + [0]
        sketch.add(_EDGE_VALUES[-1])
        assert sketch._counts[-1] == 1

    def test_empty_and_nan(self):
        assert math.isnan(QuantileSketch().quantile(0.5))
        with pytest.raises(ValueError):
            QuantileSketch().add(NAN)
