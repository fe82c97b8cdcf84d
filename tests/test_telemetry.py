"""Tests for the streaming telemetry bus and burn-rate alerting.

Covers the primitives (bounded time series, quantile sketch, the
multi-window SLO budget), the hub's out-of-order completion handling,
and the three integration contracts: telemetry-off runs are
bit-identical to pre-telemetry builds, telemetry-on double runs export
byte-identical JSON, and a flash crowd drives the full control loop
(alert fires -> burn-rate autoscaler scales -> alert resolves) with the
transitions visible in both the alert log and the Chrome trace.
"""

import json
import math

import numpy as np
import pytest

from repro.core.jsonio import dumps
from repro.frameworks.base import get_framework
from repro.hardware.zoo import get_hardware
from repro.models.zoo import get_model
import repro.obs
from repro.obs import telemetry as telemetry_module
from repro.obs.telemetry import (
    SERIES_CAPACITY,
    Alert,
    QuantileSketch,
    SloBudget,
    TelemetryHub,
    TelemetrySnapshot,
    TimeSeries,
    windowed_quantile,
)
from repro.perf.phases import Deployment
from repro.runtime.loadgen import ServiceLevelObjective


def deployment() -> Deployment:
    return Deployment(
        get_model("LLaMA-3-8B"), get_hardware("A100"), get_framework("vLLM")
    )


def last_value(series: TimeSeries) -> float:
    return series.to_json_dict()["values"][-1]


class TestTimeSeries:
    def test_append_and_views(self):
        series = TimeSeries("q", unit="requests")
        for ts, v in [(0.0, 1.0), (0.5, 2.0), (1.0, 3)]:
            series.append(ts, v)
        assert series.to_json_dict() == {
            "unit": "requests",
            "ts_s": [0.0, 0.5, 1.0],
            "values": [1.0, 2.0, 3.0],
        }
        assert type(last_value(series)) is float  # stored as float

    def test_out_of_order_append_raises(self):
        series = TimeSeries("q")
        series.append(1.0, 1.0)
        with pytest.raises(ValueError, match="out-of-order"):
            series.append(0.5, 2.0)
        series.append(1.0, 3.0)  # equal timestamps are fine

    def test_ring_wrap_keeps_newest(self):
        series = TimeSeries("q")
        for i in range(SERIES_CAPACITY + 4):
            series.append(float(i), float(i) * 10)
        payload = series.to_json_dict()
        kept = range(4, SERIES_CAPACITY + 4)
        assert payload["ts_s"] == [float(i) for i in kept]
        assert payload["values"] == [float(i) * 10 for i in kept]
        # The dropped samples are gone from the windowed reads too.
        assert series.value_at(3.5, default=-1.0) == -1.0
        assert series.window(10.0, 5.0) == [40.0, 50.0]

    def test_value_at_holds_last(self):
        series = TimeSeries("q")
        series.append(1.0, 10.0)
        series.append(3.0, 30.0)
        assert math.isnan(series.value_at(0.5))
        assert series.value_at(0.5, default=0.0) == 0.0
        assert series.value_at(1.0) == 10.0
        assert series.value_at(2.9) == 10.0
        assert series.value_at(100.0) == 30.0

    def test_window_half_open(self):
        series = TimeSeries("q")
        for ts in (0.0, 1.0, 2.0, 3.0):
            series.append(ts, ts)
        # (now - window, now]: the sample exactly window_s old is excluded.
        assert series.window(2.0, 3.0) == [2.0, 3.0]
        assert series.window(2.0, 100.0) == []

    def test_delta_of_cumulative_counter(self):
        series = TimeSeries("total")
        for ts, v in [(0.0, 0.0), (1.0, 4.0), (2.0, 10.0)]:
            series.append(ts, v)
        assert series.delta(1.0, 2.0) == 6.0
        # Window opening before the series: implicit zero start.
        assert series.delta(10.0, 2.0) == 10.0
        assert math.isnan(TimeSeries("x").delta(1.0, 0.0))

    def test_json_round_trip(self):
        series = TimeSeries("x", unit="tokens")
        series.append(0.0, 1.0)
        series.append(1.0, float("nan"))
        payload = series.to_json_dict()
        assert payload["values"][1] is None  # NaN travels as null
        assert json.loads(dumps(payload)) == payload


class TestQuantileSketch:
    def test_empty_is_nan(self):
        assert math.isnan(QuantileSketch().quantile(0.95))
        assert QuantileSketch().count == 0

    def test_exact_min_max(self):
        sketch = QuantileSketch()
        for v in (0.2, 0.4, 0.6):
            sketch.add(v)
        assert sketch.quantile(0.0) == 0.2
        assert sketch.quantile(1.0) == 0.6

    def test_quantiles_track_numpy_within_bucket_resolution(self):
        rng = np.random.default_rng(7)
        values = rng.lognormal(-1.0, 0.8, size=2000)
        sketch = QuantileSketch()
        for v in values:
            sketch.add(float(v))
        for q in (0.5, 0.9, 0.95):
            exact = float(np.quantile(values, q))
            approx = sketch.quantile(q)
            # 128 geometric buckets over 8 decades: ~15% bucket width.
            assert approx == pytest.approx(exact, rel=0.20)

    def test_nan_rejected(self):
        with pytest.raises(ValueError):
            QuantileSketch().add(float("nan"))

    def test_deterministic(self):
        a, b = QuantileSketch(), QuantileSketch()
        for v in (0.01, 0.5, 2.0, 30.0):
            a.add(v)
            b.add(v)
        assert a.quantile(0.95) == b.quantile(0.95)

    def test_windowed_quantile(self):
        series = TimeSeries("ttft")
        for ts, v in [(0.0, 5.0), (1.0, 0.1), (2.0, 0.2), (3.0, 0.3)]:
            series.append(ts, v)
        # The window excludes the old 5.0 outlier; with 3 samples the
        # sketch's rank interpolation lands between the two largest.
        p95 = windowed_quantile(series, 0.95, window_s=3.0, now_s=3.0)
        assert 0.1 < p95 <= 0.3
        assert math.isnan(
            windowed_quantile(series, 0.95, window_s=1.0, now_s=100.0)
        )


class TestAlert:
    def test_json_round_trip(self):
        alert = Alert(
            name="slo-burn-page", severity="page", state="firing",
            ts_s=11.0, window_s=5.0, value=14.67, threshold=8.0,
        )
        assert Alert.from_json_dict(alert.to_json_dict()) == alert


class TestSloBudget:
    @staticmethod
    def _series(pairs):
        series = TimeSeries("x")
        for ts, v in pairs:
            series.append(ts, v)
        return series

    def test_burn_rate_math(self):
        budget = SloBudget(attainment_target=0.95)
        total = self._series([(0.0, 0.0), (5.0, 20.0)])
        good = self._series([(0.0, 0.0), (5.0, 18.0)])
        # 2/20 missed over a 5% budget: burn 2.0.
        assert budget.burn_rate(good, total, 5.0, 5.0) == pytest.approx(2.0)

    def test_no_traffic_is_nan(self):
        budget = SloBudget()
        total = self._series([(0.0, 10.0), (1.0, 10.0)])
        good = self._series([(0.0, 10.0), (1.0, 10.0)])
        assert math.isnan(budget.burn_rate(good, total, 0.5, 50.0))

    def test_fire_requires_both_windows(self):
        budget = SloBudget(attainment_target=0.95)  # 5 s / 30 s windows
        # Burst of misses inside the fast window only: the slow window
        # has absorbed 300 earlier good completions (before the fast
        # window opens at t=24), so no alert.
        total = self._series([(0.0, 0.0), (20.0, 300.0), (29.0, 320.0)])
        good = self._series([(0.0, 0.0), (20.0, 300.0), (29.0, 300.0)])
        fast, slow, transitions = budget.evaluate(29.0, good, total)
        assert fast > 8.0
        assert slow < 2.0
        assert transitions == []

    def test_fire_and_resolve_cycle(self):
        budget = SloBudget()  # 5 s / 30 s windows
        total = self._series([(0.0, 0.0)])
        good = self._series([(0.0, 0.0)])
        # Sustained misses: both windows burn hot -> page + ticket fire.
        total.append(4.0, 40.0)
        good.append(4.0, 0.0)
        _, _, fired = budget.evaluate(4.0, good, total)
        assert {(a.name, a.state) for a in fired} == {
            ("slo-burn-page", "firing"),
            ("slo-burn-ticket", "firing"),
        }
        # Recovery: the fast window fills with good completions.
        total.append(20.0, 140.0)
        good.append(20.0, 100.0)
        _, _, resolved = budget.evaluate(20.0, good, total)
        assert {(a.name, a.state) for a in resolved} == {
            ("slo-burn-page", "resolved"),
            ("slo-burn-ticket", "resolved"),
        }

    def test_nan_never_transitions(self):
        budget = SloBudget()
        total = self._series([(0.0, 0.0), (4.0, 40.0)])
        good = self._series([(0.0, 0.0), (4.0, 0.0)])
        budget.evaluate(4.0, good, total)  # both alerts now firing
        # Quiet period: no completions in either window -> NaN -> the
        # alerts must stay latched rather than flap.
        _, _, transitions = budget.evaluate(100.0, good, total)
        assert transitions == []

    def test_validation(self):
        with pytest.raises(ValueError):
            SloBudget(attainment_target=1.0)


class TestTelemetryHub:
    def test_series_create_on_first_use(self):
        hub = TelemetryHub()
        series = hub.series("fleet.queue_depth", unit="requests")
        assert hub.series("fleet.queue_depth") is series
        hub.sample("fleet.queue_depth", 0.5, 3.0)
        assert series.to_json_dict()["values"] == [3.0]

    def test_out_of_order_completions_are_buffered(self):
        # Replicas finish requests out of global order; the hub buffers
        # and flushes sorted so series appends stay monotone.
        hub = TelemetryHub(slo=ServiceLevelObjective(ttft_s=1.5, itl_s=1.0))
        hub.record_completion(2.0, ttft_s=0.5, itl_s=0.01, good=True)
        hub.record_completion(1.0, ttft_s=0.4, itl_s=0.01, good=True)
        hub.record_completion(1.5, ttft_s=3.0, itl_s=0.01, good=False)
        hub.tick(2.5)
        total = hub.series("slo.requests_total").to_json_dict()
        assert total["ts_s"] == [1.0, 1.5, 2.0]
        assert total["values"] == [1.0, 2.0, 3.0]
        good = hub.series("slo.good_total").to_json_dict()
        assert good["values"] == [1.0, 1.0, 2.0]

    def test_tick_emits_slo_series(self):
        hub = TelemetryHub()
        hub.record_completion(0.4, ttft_s=0.1, itl_s=0.01, good=True)
        hub.record_completion(0.6, ttft_s=0.2, itl_s=0.01, good=False)
        hub.tick(1.0)
        assert last_value(hub.series("slo.attainment")) == 0.5
        assert 0.1 <= last_value(hub.series("slo.ttft_p95_s")) <= 0.2
        assert last_value(hub.series("slo.burn_rate_fast")) is not None

    def test_tenant_lanes(self):
        tenant_slo = ServiceLevelObjective(ttft_s=0.5, itl_s=1.0)
        hub = TelemetryHub(tenant_slos={"premium": tenant_slo})
        assert hub.slo_for("premium") is tenant_slo
        hub.record_completion(
            0.4, ttft_s=0.1, itl_s=0.01, good=True, tenant="premium"
        )
        hub.tick(1.0)
        assert last_value(hub.series("tenant.premium.attainment")) == 1.0
        assert last_value(hub.series("tenant.premium.requests_total")) == 1.0

    def test_finish_flushes_pending(self):
        hub = TelemetryHub()
        hub.record_completion(7.0, ttft_s=0.1, itl_s=0.01, good=True)
        hub.finish(1.0)  # completions past "now" still land
        assert last_value(hub.series("slo.requests_total")) == 1.0

    def test_snapshot_round_trip_is_byte_identical(self):
        hub = TelemetryHub()
        hub.sample("fleet.queue_depth", 0.5, 3.0, unit="requests")
        hub.record_completion(0.4, ttft_s=0.1, itl_s=float("nan"), good=True)
        hub.finish(1.0)
        snapshot = hub.snapshot()
        blob = json.dumps(snapshot.to_json_dict(), sort_keys=True, indent=1)
        back = TelemetrySnapshot.from_json_dict(
            json.loads(blob)
        )
        assert json.dumps(back.to_json_dict(), sort_keys=True, indent=1) == blob

    def test_null_hub_is_disabled_and_inert(self):
        # An absent hub is ``None``: engines and clusters default to it,
        # their results carry no snapshot, and no null hub object exists.
        from repro.cluster.simulator import ClusterSimulator
        from repro.runtime.engine import ServingEngine
        from repro.runtime.workload import fixed_batch_trace

        engine = ServingEngine(deployment(), max_concurrency=2)
        assert engine.telemetry is None
        assert engine.run(fixed_batch_trace(2, 64, 8)).telemetry is None
        assert ClusterSimulator(deployment(), 2).telemetry is None
        for module in (repro.obs, telemetry_module):
            assert not hasattr(module, "NULL_TELEMETRY")
            assert not hasattr(module, "_NullTelemetry")


class TestEngineIdentity:
    """Telemetry off must be bit-identical; on must be deterministic."""

    @staticmethod
    def _run(telemetry=None):
        from repro.runtime.engine import ServingEngine
        from repro.runtime.workload import open_loop_trace

        kwargs = {} if telemetry is None else {"telemetry": telemetry}
        engine = ServingEngine(deployment(), max_concurrency=8, **kwargs)
        return engine.run(open_loop_trace(24, 6.0, 256, 96, seed=3))

    @staticmethod
    def _fingerprint(result):
        return (
            result.total_time_s,
            result.iterations,
            result.decode_steps,
            result.average_power_w,
            [(r.first_token_time, r.finish_time) for r in result.requests],
        )

    def test_off_is_bit_identical(self):
        plain = self._run()
        instrumented = self._run(TelemetryHub())
        assert plain.telemetry is None
        assert instrumented.telemetry is not None
        assert self._fingerprint(plain) == self._fingerprint(instrumented)

    def test_double_run_json_is_byte_identical(self):
        blobs = []
        for _ in range(2):
            result = self._run(TelemetryHub())
            blobs.append(
                json.dumps(
                    result.telemetry.to_json_dict(), sort_keys=True, indent=1
                )
            )
        assert blobs[0] == blobs[1]

    def test_engine_samples_and_alerts(self):
        result = self._run(TelemetryHub())
        names = set(result.telemetry.series)
        assert {"engine.queue_depth", "engine.batch_size"} <= names
        assert {"slo.attainment", "slo.burn_rate_fast"} <= names


class TestClusterIdentity:
    @staticmethod
    def _run(telemetry=None, **kwargs):
        from repro.cluster.simulator import ClusterSimulator
        from repro.runtime.workload import open_loop_trace

        sim = ClusterSimulator(
            deployment(), 2, max_concurrency=8, telemetry=telemetry, **kwargs
        )
        return sim.run(open_loop_trace(32, 8.0, 256, 96, seed=5))

    def test_off_is_bit_identical(self):
        # The default and an explicit ``telemetry=None`` are one code
        # path: no control ticks, no sampling, and byte-for-byte
        # identical result JSON.  (An *attached* hub arms 0.5s control
        # ticks, which legitimately chop decode spans at different
        # boundaries — that path is covered by the determinism tests
        # below, not by bit-identity with "off".)
        plain = self._run()
        nulled = self._run(None)
        assert plain.telemetry is None
        assert nulled.telemetry is None
        assert dumps(plain.to_json_dict()) == dumps(nulled.to_json_dict())

    def test_off_json_has_no_telemetry_key(self):
        # Old-bundle compatibility: the key appears only when attached.
        assert "telemetry" not in self._run().to_json_dict()

    def test_double_run_json_is_byte_identical(self):
        blobs = [
            json.dumps(
                self._run(TelemetryHub()).to_json_dict(),
                sort_keys=True,
                indent=1,
            )
            for _ in range(2)
        ]
        assert blobs[0] == blobs[1]

    def test_fleet_and_replica_series(self):
        result = self._run(TelemetryHub())
        names = set(result.telemetry.series)
        assert {"fleet.queue_depth", "fleet.serving"} <= names
        assert any(name.startswith("replica.") for name in names)

    def test_profiled_run_samples_utilization(self):
        result = self._run(TelemetryHub(), profiled=True)
        names = set(result.telemetry.series)
        assert any(name.endswith(".mfu") for name in names)
        assert any(name.endswith(".joules_per_token") for name in names)


class TestTickInterval:
    """The snapshot reports the interval the hub was actually ticked at."""

    @staticmethod
    def _snapshot(tick_interval_s: float) -> dict:
        from repro.cluster.simulator import ClusterSimulator
        from repro.control import BurnRateAutoscaler, ControlPlane
        from repro.runtime.workload import open_loop_trace

        control = ControlPlane(
            autoscaler=BurnRateAutoscaler(max_replicas=3),
            tick_interval_s=tick_interval_s,
        )
        sim = ClusterSimulator(deployment(), 2, max_concurrency=8, control=control)
        result = sim.run(open_loop_trace(24, 8.0, 256, 64, seed=2))
        return result.telemetry.to_json_dict()

    @pytest.mark.parametrize("tick_interval_s", [0.25, 0.5])
    def test_auto_created_hub_reports_control_tick(self, tick_interval_s):
        snapshot = self._snapshot(tick_interval_s)
        assert snapshot["config"]["tick_interval_s"] == tick_interval_s
        ticks = snapshot["series"]["slo.burn_rate_fast"]["ts_s"]
        # Every tick but the closeout at the horizon is on the control
        # tick train.
        assert ticks[:-1] == [
            tick_interval_s * (i + 1) for i in range(len(ticks) - 1)
        ]

    def test_engine_hub_keeps_default_interval(self):
        from repro.runtime.engine import ServingEngine
        from repro.runtime.workload import open_loop_trace

        engine = ServingEngine(deployment(), max_concurrency=8, telemetry=TelemetryHub())
        result = engine.run(open_loop_trace(8, 6.0, 256, 32, seed=3))
        assert result.telemetry.config["tick_interval_s"] == 0.5


class TestFlashCrowdControlLoop:
    """The closed loop: flash crowd -> alert -> autoscale -> resolve."""

    @pytest.fixture(scope="class")
    def result(self):
        from repro.cluster.simulator import ClusterSimulator
        from repro.control import BurnRateAutoscaler, ControlPlane
        from repro.scenarios import (
            FlashCrowdArrivals,
            LognormalLengths,
            Scenario,
            SingleShot,
        )

        scenario = Scenario(
            name="flash",
            description="flash crowd over a 2-replica fleet",
            arrival=FlashCrowdArrivals(
                base_rps=0.8, flash_at_s=20.0, flash_factor=6.0,
                ramp_s=2.0, hold_s=6.0, decay_s=8.0,
            ),
            lengths=LognormalLengths(
                mean_input_tokens=400.0, mean_output_tokens=160.0
            ),
            sessions=SingleShot(),
            num_sessions=96,
        )
        sim = ClusterSimulator(
            deployment(),
            2,
            max_concurrency=4,
            traced=True,
            control=ControlPlane(
                autoscaler=BurnRateAutoscaler(
                    slo=ServiceLevelObjective(ttft_s=1.5, itl_s=1 / 12),
                    max_replicas=6,
                ),
            ),
        )
        return sim.run(scenario.build(0))

    def test_hub_auto_created(self, result):
        # No explicit hub: the burn-rate policy needs one, so the
        # simulator arms it automatically.
        assert result.telemetry is not None

    def test_alert_fires_and_resolves(self, result):
        states = [(a.name, a.state) for a in result.telemetry.alerts]
        assert ("slo-burn-ticket", "firing") in states
        assert ("slo-burn-ticket", "resolved") in states
        fired_at = next(
            a.ts_s
            for a in result.telemetry.alerts
            if a.name == "slo-burn-ticket" and a.state == "firing"
        )
        resolved_at = next(
            a.ts_s
            for a in result.telemetry.alerts
            if a.name == "slo-burn-ticket" and a.state == "resolved"
        )
        assert fired_at < resolved_at

    def test_autoscaler_scales_on_burn(self, result):
        ups = [e for e in result.scale_log if e["action"] == "up"]
        assert ups, "burn-rate autoscaler never scaled up under the flash"
        fired_at = next(
            a.ts_s for a in result.telemetry.alerts if a.state == "firing"
        )
        # Scale-ups happen while the budget is burning, not before the
        # flash hits.
        assert all(e["ts_s"] >= 20.0 for e in ups)
        assert any(abs(e["ts_s"] - fired_at) < 15.0 for e in ups)

    def test_alerts_land_in_chrome_trace(self, result):
        control = result.replica_events.get("control", [])
        names = {e.name for e in control if e.category == "control"}
        assert any(n.startswith("alert:slo-burn-ticket:firing") for n in names)
        assert any(
            n.startswith("alert:slo-burn-ticket:resolved") for n in names
        )
        assert any(n == "scale_up" for n in names)

    def test_burn_series_peaks_during_flash(self, result):
        burn = result.telemetry.series["slo.burn_rate_fast"]
        values = [v for v in burn["values"] if v is not None]
        assert max(values) > 2.0


def mistral() -> Deployment:
    return Deployment(
        get_model("Mistral-7B"), get_hardware("A100"), get_framework("vLLM")
    )


class TestObserverPaths:
    """Alert instants and failure records reach the trace and the hub
    once each, on both the engine and the cluster path."""

    def test_engine_alerts_land_once_in_trace(self):
        from repro.obs.tracer import EventTracer
        from repro.runtime.engine import ServingEngine
        from repro.runtime.workload import open_loop_trace

        tracer = EventTracer()
        engine = ServingEngine(
            mistral(),
            tracer=tracer,
            telemetry=TelemetryHub(slo=ServiceLevelObjective(ttft_s=0.05)),
        )
        result = engine.run(open_loop_trace(64, 12.0, 512, 128, seed=3))
        alerts = result.telemetry.alerts
        assert alerts
        instants = [
            e.name for e in tracer.events
            if e.category == "control" and e.name.startswith("alert:")
        ]
        assert len(instants) == len(alerts)
        for alert in alerts:
            assert instants.count(f"alert:{alert.name}:{alert.state}") == 1

    def test_retry_budget_exhaustion_is_recorded(self):
        from repro.cluster.simulator import ClusterSimulator
        from repro.control import ControlPlane, FaultEvent, FaultSchedule, RetryPolicy
        from repro.core.request import RequestState
        from repro.runtime.workload import open_loop_trace

        trace = open_loop_trace(32, 8.0, 256, 96, seed=5)
        sim = ClusterSimulator(
            mistral(),
            2,
            telemetry=TelemetryHub(),
            traced=True,
            control=ControlPlane(
                faults=FaultSchedule(
                    (FaultEvent("crash", 1.0, replica="replica1"),)
                ),
                retry=RetryPolicy(max_retries=0),
            ),
        )
        result = sim.run(trace)
        finished = sum(r.state == RequestState.FINISHED for r in result.requests)
        assert result.failed_requests > 0
        series = result.telemetry.series
        total = series["slo.requests_total"]["values"][-1]
        assert total == len(trace) == finished + result.failed_requests
        assert series["slo.good_total"]["values"][-1] <= finished
        exhausted = [
            e for e in result.replica_events["control"]
            if e.name == "retry_budget_exhausted"
        ]
        assert len(exhausted) == result.failed_requests
