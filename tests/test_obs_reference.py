"""Exact-equality references for the two sampled instruments.

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
"""

from __future__ import annotations

import random

import numpy as np
import pytest

from repro.core.jsonio import json_num
from repro.obs.metrics import MetricsRegistry
from repro.obs.telemetry import SERIES_CAPACITY, TimeSeries

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
