"""Streaming telemetry bus with SLO burn-rate alerting.

The paper reports TTFT/ITL/throughput/power as end-of-run aggregates;
a production fleet is operated on *streaming* signals — windowed rates,
error budgets, burn-rate alerts.  This module gives the simulator that
live telemetry plane:

* :class:`TimeSeries` — bounded sample lists with the two windowed
  reads the hub and the autoscaler use (sliding-window ``delta`` of a
  cumulative counter, the raw ``window`` behind a quantile);
* :class:`QuantileSketch` — a deterministic fixed-bucket sketch for
  windowed p95 TTFT/ITL (no data-dependent rebalancing, so same-seed
  runs produce byte-identical series);
* :class:`SloBudget` — SRE-style multi-window burn rates over a
  configurable error budget, emitting typed :class:`Alert` records
  (fire/resolve, severity, window, value);
* :class:`TelemetryHub` — the bus itself: per-replica, fleet-wide and
  per-tenant channels sampled on cluster control ticks (or engine
  steps for standalone runs).

Without a hub, a producer holds ``telemetry=None`` and guards each
call with ``is not None``, so telemetry-off runs stay bit-identical to
a build without this module.

Determinism contract: completions can be *recorded* slightly out of
order (replicas retire past the control tick they straddle), so the hub
buffers them and flushes into the series sorted by
``(timestamp, arrival order)`` at each tick — only events at or before
the tick are flushed, which keeps every series monotone in time and
makes the exported JSON a pure function of the seed.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from repro.core.jsonio import from_json_num, json_num

if TYPE_CHECKING:  # pragma: no cover
    from repro.runtime.loadgen import ServiceLevelObjective

__all__ = [
    "Alert",
    "QuantileSketch",
    "SloBudget",
    "TelemetryHub",
    "TelemetrySnapshot",
    "TimeSeries",
    "trace_alerts",
]

#: Seconds between telemetry control ticks.
TICK_INTERVAL_S = 0.5
#: Samples each :class:`TimeSeries` channel keeps (oldest dropped first).
SERIES_CAPACITY = 4096
#: :class:`QuantileSketch` bucket range (seconds) and bucket count.
SKETCH_LO = 1e-4
SKETCH_HI = 1e4
SKETCH_BUCKETS = 128
SKETCH_EDGES = np.geomspace(SKETCH_LO, SKETCH_HI, SKETCH_BUCKETS + 1)
#: :class:`SloBudget` burn windows (simulated seconds) and alert thresholds.
FAST_WINDOW_S = 5.0
SLOW_WINDOW_S = 30.0
PAGE_THRESHOLD = 8.0
TICKET_THRESHOLD = 2.0
#: ``(alert name, severity, threshold)`` of each burn-rate rule.
BURN_RULES = (
    ("slo-burn-page", "page", PAGE_THRESHOLD),
    ("slo-burn-ticket", "ticket", TICKET_THRESHOLD),
)


class TimeSeries:
    """Bounded list of ``(ts_s, value)`` samples, oldest first.

    Timestamps must be non-decreasing (``append`` fails loudly
    otherwise); past :data:`SERIES_CAPACITY` samples the oldest is
    dropped, which is safe for the windowed reads because windows are
    always much shorter than the series at control-tick sampling rates.
    """

    __slots__ = ("name", "unit", "_ts", "_values")

    def __init__(self, name: str, unit: str = ""):
        self.name = name
        self.unit = unit
        self._ts: list[float] = []
        self._values: list[float] = []

    def append(self, ts_s: float, value: float) -> None:
        ts_s = float(ts_s)
        if self._ts and ts_s < self._ts[-1]:
            raise ValueError(
                f"out-of-order sample on series {self.name!r}: "
                f"ts {ts_s} < last ts {self._ts[-1]}"
            )
        self._ts.append(ts_s)
        self._values.append(float(value))  # exported JSON prints floats
        if len(self._ts) > SERIES_CAPACITY:
            del self._ts[0]
            del self._values[0]

    def value_at(self, ts_s: float, default: float = float("nan")) -> float:
        """Value of the last sample at or before ``ts_s`` (hold-last)."""
        idx = bisect_right(self._ts, ts_s) - 1
        return self._values[idx] if idx >= 0 else default

    def window(self, window_s: float, now_s: float) -> list[float]:
        """Values of samples with ``now_s - window_s < ts <= now_s``."""
        lo = bisect_right(self._ts, now_s - window_s)
        hi = bisect_right(self._ts, now_s)
        return self._values[lo:hi]

    def delta(self, window_s: float, now_s: float) -> float:
        """Change of a cumulative counter over the trailing window.

        A counter is implicitly zero before its first sample, so a
        window opening before the series started measures growth since
        the start — the standard convention for monotone counters.
        """
        if not self._ts:
            return float("nan")
        end = self.value_at(now_s, default=0.0)
        start = self.value_at(now_s - window_s, default=0.0)
        return end - start

    def to_json_dict(self) -> dict:
        return {
            "unit": self.unit,
            "ts_s": [json_num(t) for t in self._ts],
            "values": [json_num(v) for v in self._values],
        }


class QuantileSketch:
    """Deterministic fixed-bucket quantile sketch.

    :data:`SKETCH_BUCKETS` log-spaced buckets over :data:`SKETCH_LO` ..
    :data:`SKETCH_HI` (1e-4 .. 1e4, suited to latencies in seconds);
    quantiles interpolate linearly within a bucket and are clamped to
    the observed min/max.  Accuracy is bounded by bucket
    width; determinism is exact — no data-dependent restructuring, so
    same-seed runs produce identical sketches.
    """

    __slots__ = ("_counts", "_count", "_min", "_max")

    def __init__(self):
        # underflow + buckets + overflow
        self._counts = np.zeros(SKETCH_BUCKETS + 2, dtype=np.int64)
        self._count = 0
        self._min = float("inf")
        self._max = float("-inf")

    @property
    def count(self) -> int:
        return self._count

    def add(self, value: float) -> None:
        value = float(value)
        if math.isnan(value):
            raise ValueError("cannot add NaN to a quantile sketch")
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
        if not 0.0 <= q <= 1.0:
            raise ValueError("q must be in [0, 1]")
        if not self._count:
            return float("nan")
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
        return self._max  # pragma: no cover - loop always returns


def windowed_quantile(
    series: TimeSeries, q: float, window_s: float, now_s: float
) -> float:
    """Windowed quantile of a sample series via a fresh fixed-bucket
    sketch (deterministic; NaN when the window is empty)."""
    sketch = QuantileSketch()
    for value in series.window(window_s, now_s):
        sketch.add(value)
    return sketch.quantile(q)


@dataclass(frozen=True)
class Alert:
    """One burn-rate alert transition (typed, JSON-serializable).

    ``state`` is ``"firing"`` or ``"resolved"``; ``value`` is the
    observed fast-window burn rate at the transition; ``window_s`` the
    fast window it was measured over.
    """

    name: str
    severity: str  # "page" | "ticket"
    state: str  # "firing" | "resolved"
    ts_s: float
    window_s: float
    value: float
    threshold: float

    def to_json_dict(self) -> dict:
        return {
            "name": self.name,
            "severity": self.severity,
            "state": self.state,
            "ts_s": json_num(self.ts_s),
            "window_s": json_num(self.window_s),
            "value": json_num(self.value),
            "threshold": json_num(self.threshold),
        }

    @classmethod
    def from_json_dict(cls, payload: dict) -> "Alert":
        return cls(
            name=payload["name"],
            severity=payload["severity"],
            state=payload["state"],
            ts_s=from_json_num(payload["ts_s"]),
            window_s=from_json_num(payload["window_s"]),
            value=from_json_num(payload["value"]),
            threshold=from_json_num(payload["threshold"]),
        )


class SloBudget:
    """SRE-style error-budget tracker with multi-window burn rates.

    The error budget is ``1 - attainment_target`` (e.g. 5% of requests
    may miss the SLO).  The burn rate over a window is the fraction of
    requests that missed, divided by the budget — burn 1.0 consumes the
    budget exactly at the sustainable pace, burn 10 exhausts it 10x too
    fast.  Two alert rules evaluate *both* windows (the classic
    multi-window guard against flicker): ``page`` at a high threshold,
    ``ticket`` at a low one.  An alert fires when both windows exceed
    its threshold and resolves when the fast window drops back under;
    NaN burn (no traffic in the window) never transitions state.

    The windows are 5 s / 30 s of simulated time — the scaled-down
    analogue of the 5 m / 1 h pair used for wall-clock fleets — and the
    page/ticket thresholds 8x / 2x (the module constants above).
    """

    def __init__(self, attainment_target: float = 0.95):
        if not 0.0 < attainment_target < 1.0:
            raise ValueError("attainment_target must be in (0, 1)")
        self.attainment_target = attainment_target
        self.error_budget = 1.0 - attainment_target
        self._firing: dict[str, bool] = {name: False for name, _, _ in BURN_RULES}

    def burn_rate(
        self, good: TimeSeries, total: TimeSeries, window_s: float, now_s: float
    ) -> float:
        """Burn rate over the trailing window (NaN without traffic)."""
        completed = total.delta(window_s, now_s)
        if math.isnan(completed) or completed <= 0:
            return float("nan")
        met = good.delta(window_s, now_s)
        if math.isnan(met):
            met = 0.0
        attainment = met / completed
        return (1.0 - attainment) / self.error_budget

    def evaluate(
        self, now_s: float, good: TimeSeries, total: TimeSeries
    ) -> tuple[float, float, list[Alert]]:
        """Evaluate both windows; return ``(fast, slow, transitions)``."""
        fast = self.burn_rate(good, total, FAST_WINDOW_S, now_s)
        slow = self.burn_rate(good, total, SLOW_WINDOW_S, now_s)
        transitions: list[Alert] = []
        if math.isnan(fast):
            return fast, slow, transitions
        for name, severity, threshold in BURN_RULES:
            firing = self._firing[name]
            if (
                not firing
                and not math.isnan(slow)
                and fast > threshold
                and slow > threshold
            ):
                self._firing[name] = True
                transitions.append(
                    Alert(name, severity, "firing", now_s,
                          FAST_WINDOW_S, fast, threshold)
                )
            elif firing and fast <= threshold:
                self._firing[name] = False
                transitions.append(
                    Alert(name, severity, "resolved", now_s,
                          FAST_WINDOW_S, fast, threshold)
                )
        return fast, slow, transitions


@dataclass(frozen=True)
class TelemetrySnapshot:
    """Immutable export of a hub: config, named series, alert log.

    ``to_json_dict``/``from_json_dict`` round-trip byte-identically
    through :mod:`repro.core.jsonio`, which is what the experiment-bundle replay gate relies on.
    """

    config: dict
    series: dict[str, dict]
    alerts: tuple[Alert, ...]

    def to_json_dict(self) -> dict:
        return {
            "config": dict(self.config),
            "series": {name: dict(body) for name, body in sorted(self.series.items())},
            "alerts": [alert.to_json_dict() for alert in self.alerts],
        }

    @classmethod
    def from_json_dict(cls, payload: dict) -> "TelemetrySnapshot":
        return cls(
            config=dict(payload["config"]),
            series={name: dict(body) for name, body in payload["series"].items()},
            alerts=tuple(
                Alert.from_json_dict(a) for a in payload["alerts"]
            ),
        )


@dataclass(frozen=True)
class _PendingCompletion:
    ts_s: float
    seq: int
    ttft_s: float
    itl_s: float
    good: bool
    tenant: str | None


class TelemetryHub:
    """The streaming telemetry bus.

    Producers (engine steps, cluster control ticks) push gauge samples
    and request completions; the hub maintains :class:`TimeSeries`
    channels, evaluates the :class:`SloBudget` on each ``tick`` and
    accumulates the typed alert log.  Everything is a pure function of
    the producers' (seeded) event stream, so same-seed runs export
    byte-identical snapshots.
    """

    #: Seconds between budget ticks.  A caller that ticks the hub at
    #: another cadence (a cluster follows its control plane's tick)
    #: records that cadence here, so the snapshot reports the interval
    #: the series were sampled at.
    tick_interval_s: float = TICK_INTERVAL_S

    def __init__(
        self,
        slo: "ServiceLevelObjective | None" = None,
        tenant_slos: "dict[str, ServiceLevelObjective] | None" = None,
    ):
        if slo is None:
            from repro.runtime.loadgen import ServiceLevelObjective

            slo = ServiceLevelObjective()
        self.slo = slo
        self.tenant_slos = dict(tenant_slos or {})
        self.budget = SloBudget(attainment_target=slo.attainment_target)
        self._series: dict[str, TimeSeries] = {}
        self._pending: list[_PendingCompletion] = []
        self._seq = 0
        self._good = 0
        self._total = 0
        self._tenant_counts: dict[str, list[int]] = {}  # tenant -> [good, total]
        self.alerts: list[Alert] = []
        self.last_burn_fast = float("nan")
        self.last_burn_slow = float("nan")
        self.last_tick_s = float("-inf")

    # ------------------------------------------------------------------
    # producers

    def series(self, name: str, unit: str = "") -> TimeSeries:
        """Create-on-first-use named channel."""
        found = self._series.get(name)
        if found is None:
            found = self._series[name] = TimeSeries(name, unit=unit)
        elif unit and found.unit and unit != found.unit:
            raise ValueError(
                f"series {name!r} re-registered with unit {unit!r} "
                f"(was {found.unit!r})"
            )
        return found

    def sample(self, name: str, ts_s: float, value: float, unit: str = "") -> None:
        self.series(name, unit=unit).append(ts_s, value)

    def slo_for(self, tenant: str | None) -> "ServiceLevelObjective":
        if tenant is not None:
            return self.tenant_slos.get(tenant, self.slo)
        return self.slo

    def record_completion(
        self,
        ts_s: float,
        ttft_s: float,
        itl_s: float,
        good: bool,
        tenant: str | None = None,
    ) -> None:
        """Record one finished request (buffered until the next tick).

        Completions may arrive slightly out of order (replicas retire
        past the tick they straddle); the buffer is flushed sorted by
        ``(ts, arrival order)`` so the series stay monotone.
        """
        self._pending.append(
            _PendingCompletion(float(ts_s), self._seq, ttft_s, itl_s, bool(good), tenant)
        )
        self._seq += 1

    def record_request(self, request, failed_at_s: float | None = None) -> None:
        """Record one terminal request: its TTFT, ITL and SLO verdict.

        A finished request lands at its finish time (NaN TTFT/ITL where
        it has no first token or a single token).  A failed request
        burns the error budget like a missed SLO: NaN/NaN/not met at
        ``failed_at_s``.
        """
        nan = float("nan")
        if failed_at_s is not None:
            self.record_completion(failed_at_s, nan, nan, False, tenant=request.tenant)
            return
        first = request.first_token_time
        ttft = itl = nan
        if first is not None:
            ttft = request.ttft_s
            if request.output_tokens > 1:
                itl = (request.finish_time - first) / (request.output_tokens - 1)
        self.record_completion(
            request.finish_time,
            ttft,
            itl,
            self.slo_for(request.tenant).met_by(request),
            tenant=request.tenant,
        )

    def _flush(self, up_to_s: float) -> None:
        if not self._pending:
            return
        due = [p for p in self._pending if p.ts_s <= up_to_s]
        if not due:
            return
        self._pending = [p for p in self._pending if p.ts_s > up_to_s]
        due.sort(key=lambda p: (p.ts_s, p.seq))
        good_series = self.series("slo.good_total", unit="requests")
        total_series = self.series("slo.requests_total", unit="requests")
        ttft_series = self.series("slo.ttft_s", unit="s")
        itl_series = self.series("slo.itl_s", unit="s")
        for p in due:
            self._total += 1
            if p.good:
                self._good += 1
            total_series.append(p.ts_s, float(self._total))
            good_series.append(p.ts_s, float(self._good))
            if not math.isnan(p.ttft_s):
                ttft_series.append(p.ts_s, p.ttft_s)
            if not math.isnan(p.itl_s):
                itl_series.append(p.ts_s, p.itl_s)
            if p.tenant is not None:
                counts = self._tenant_counts.setdefault(p.tenant, [0, 0])
                counts[1] += 1
                if p.good:
                    counts[0] += 1
                self.series(
                    f"tenant.{p.tenant}.requests_total", unit="requests"
                ).append(p.ts_s, float(counts[1]))
                self.series(
                    f"tenant.{p.tenant}.good_total", unit="requests"
                ).append(p.ts_s, float(counts[0]))

    # ------------------------------------------------------------------
    # tick-time evaluation

    def windowed_attainment(self, window_s: float, now_s: float) -> float:
        """SLO attainment over the trailing window (NaN without traffic)."""
        total = self.series("slo.requests_total").delta(window_s, now_s)
        if math.isnan(total) or total <= 0:
            return float("nan")
        good = self.series("slo.good_total").delta(window_s, now_s)
        if math.isnan(good):
            good = 0.0
        return good / total

    def windowed_ttft_p95(self, window_s: float, now_s: float) -> float:
        return windowed_quantile(
            self.series("slo.ttft_s"), 0.95, window_s, now_s
        )

    def burn_rates(self) -> tuple[float, float]:
        """Most recent (fast, slow) burn rates (NaN before the first tick)."""
        return self.last_burn_fast, self.last_burn_slow

    def tick(self, now_s: float) -> list[Alert]:
        """Flush completions, evaluate the budget, extend derived series.

        Returns the alert *transitions* that occurred at this tick (the
        caller lands them in the Chrome trace); the full log accumulates
        in ``self.alerts``.
        """
        self._flush(now_s)
        fast, slow, transitions = self.budget.evaluate(
            now_s,
            self.series("slo.good_total"),
            self.series("slo.requests_total"),
        )
        self.last_burn_fast = fast
        self.last_burn_slow = slow
        self.last_tick_s = now_s
        self.sample("slo.burn_rate_fast", now_s, fast)
        self.sample("slo.burn_rate_slow", now_s, slow)
        self.sample(
            "slo.attainment",
            now_s,
            self.windowed_attainment(FAST_WINDOW_S, now_s),
        )
        self.sample(
            "slo.ttft_p95_s",
            now_s,
            self.windowed_ttft_p95(FAST_WINDOW_S, now_s),
            unit="s",
        )
        for tenant in sorted(self._tenant_counts):
            total = self.series(f"tenant.{tenant}.requests_total").delta(
                FAST_WINDOW_S, now_s
            )
            if math.isnan(total) or total <= 0:
                attainment = float("nan")
            else:
                good = self.series(f"tenant.{tenant}.good_total").delta(
                    FAST_WINDOW_S, now_s
                )
                attainment = (0.0 if math.isnan(good) else good) / total
            self.sample(f"tenant.{tenant}.attainment", now_s, attainment)
        self.alerts.extend(transitions)
        return transitions

    def finish(self, now_s: float) -> list[Alert]:
        """End-of-run closeout: flush everything (including completions
        recorded past the last tick) and evaluate once at the horizon."""
        if self._pending:
            now_s = max(now_s, max(p.ts_s for p in self._pending))
        self._flush(now_s)
        if now_s > self.last_tick_s:
            return self.tick(now_s)
        return []

    # ------------------------------------------------------------------
    # export

    def snapshot(self) -> TelemetrySnapshot:
        return TelemetrySnapshot(
            config={
                "attainment_target": json_num(self.budget.attainment_target),
                "fast_window_s": json_num(FAST_WINDOW_S),
                "slow_window_s": json_num(SLOW_WINDOW_S),
                "page_threshold": json_num(PAGE_THRESHOLD),
                "ticket_threshold": json_num(TICKET_THRESHOLD),
                "tick_interval_s": json_num(self.tick_interval_s),
            },
            series={
                name: series.to_json_dict()
                for name, series in sorted(self._series.items())
            },
            alerts=tuple(self.alerts),
        )


def trace_alerts(tracer, transitions: list[Alert]) -> None:
    """Land alert transitions as ``control``-category trace instants
    (no-op when ``tracer`` is None)."""
    if tracer is None:
        return
    for alert in transitions:
        tracer.instant(
            "control",
            f"alert:{alert.name}:{alert.state}",
            ts_s=alert.ts_s,
            severity=alert.severity,
            value=alert.value,
            threshold=alert.threshold,
        )
