"""Tests for the resilience control plane (repro.control).

Three families: the control-plane primitives themselves (fault
schedules, retry backoff, autoscale policies), the null-control
equivalence guarantee (a ControlPlane with no faults and no autoscaler
must be bit-identical to the plain simulator), and the
co-simulation behaviors (crash recovery, slowdown, KV-handoff loss,
retry-budget exhaustion, mid-run scaling, heterogeneous fleets).
"""

import json
import math

import pytest

from repro.cluster import ClusterSimulator, DisaggregationSpec
from repro.control import (
    AUTOSCALER_NAMES,
    ControlPlane,
    FAULT_KINDS,
    FaultEvent,
    FaultSchedule,
    FleetView,
    QueueDepthAutoscaler,
    RetryPolicy,
    SLOAutoscaler,
    TelemetryFleetView,
    get_autoscaler,
    list_autoscalers,
)
from repro.frameworks.base import get_framework
from repro.hardware.zoo import get_hardware
from repro.models.zoo import get_model
from repro.obs import TelemetryHub
from repro.obs.telemetry import FAST_WINDOW_S
from repro.perf.phases import Deployment
from repro.runtime.loadgen import ServiceLevelObjective
from repro.runtime.workload import open_loop_trace


def _dep(hw="A100") -> Deployment:
    return Deployment(
        get_model("Mistral-7B"), get_hardware(hw), get_framework("vLLM")
    )


def _trace(n=32, rate=8.0, seed=3):
    return open_loop_trace(
        n, rate, mean_input_tokens=256, mean_output_tokens=64, seed=seed
    )


def _view(**kwargs) -> FleetView:
    base = dict(
        now_s=1.0,
        num_serving=2,
        num_warming=0,
        queue_depth=0,
        outstanding_tokens=0,
        slo_attainment=float("nan"),
        ttft_p95_s=float("nan"),
    )
    base.update(kwargs)
    return FleetView(**base)


# ----------------------------------------------------------------------
# Fault schedules


class TestFaultEvent:
    def test_validation(self):
        with pytest.raises(ValueError, match="kind"):
            FaultEvent("meltdown", at_s=1.0)
        with pytest.raises(ValueError, match="at_s"):
            FaultEvent("crash", at_s=-1.0)
        with pytest.raises(ValueError, match="duration"):
            FaultEvent("slowdown", at_s=1.0, replica="r0", duration_s=0.0)
        with pytest.raises(ValueError, match="factor"):
            FaultEvent(
                "slowdown", at_s=1.0, replica="r0", duration_s=1.0, factor=0.5
            )
        with pytest.raises(ValueError, match="replica"):
            FaultEvent("crash", at_s=1.0)  # crash needs a target

    def test_end_time(self):
        event = FaultEvent(
            "slowdown", at_s=2.0, replica="r0", duration_s=1.5, factor=2.0
        )
        assert event.end_s == 3.5

    def test_kinds_registry(self):
        assert FAULT_KINDS == ("crash", "slowdown", "kv_loss")


class TestFaultSchedule:
    def test_sorted_and_sized(self):
        sched = FaultSchedule(
            (
                FaultEvent("crash", at_s=5.0, replica="r1"),
                FaultEvent("kv_loss", at_s=1.0, duration_s=1.0),
            )
        )
        assert [e.at_s for e in sched.events] == [1.0, 5.0]
        assert len(sched) == 2 and bool(sched)
        assert not FaultSchedule()

    def test_json_round_trip(self, tmp_path):
        sched = FaultSchedule(
            (
                FaultEvent("slowdown", at_s=1.0, replica="r0",
                           duration_s=2.0, factor=3.0),
                FaultEvent("crash", at_s=2.0, replica="r1"),
            )
        )
        path = tmp_path / "faults.json"
        path.write_text(json.dumps(sched.to_json_dict()))
        assert FaultSchedule.load(path) == sched

    def test_generate_is_seed_deterministic(self):
        kwargs = dict(
            replicas=["r0", "r1", "r2"],
            horizon_s=10.0,
            num_crashes=1,
            num_slowdowns=2,
            num_kv_losses=1,
        )
        a = FaultSchedule.generate(seed=7, **kwargs)
        b = FaultSchedule.generate(seed=7, **kwargs)
        c = FaultSchedule.generate(seed=8, **kwargs)
        assert a == b
        assert a != c
        assert len(a) == 4
        assert all(0.0 < e.at_s < 10.0 for e in a.events)

    def test_kv_loss_windows(self):
        sched = FaultSchedule(
            (
                FaultEvent("kv_loss", at_s=1.0, duration_s=2.0),
                FaultEvent("crash", at_s=4.0, replica="r0"),
            )
        )
        assert sched.kv_loss_windows() == ((1.0, 3.0),)


class TestRetryPolicy:
    def test_backoff_grows_and_caps(self):
        retry = RetryPolicy(
            max_retries=5, backoff_base_s=0.1, backoff_factor=2.0,
            backoff_cap_s=0.5,
        )
        assert retry.backoff_s(0) == pytest.approx(0.1)
        assert retry.backoff_s(1) == pytest.approx(0.2)
        assert retry.backoff_s(2) == pytest.approx(0.4)
        assert retry.backoff_s(3) == pytest.approx(0.5)  # capped
        assert retry.backoff_s(9) == pytest.approx(0.5)

    def test_validation(self):
        with pytest.raises(ValueError):
            RetryPolicy(max_retries=-1)
        with pytest.raises(ValueError):
            RetryPolicy(backoff_factor=0.5)


# ----------------------------------------------------------------------
# Autoscale policies


class TestAutoscalers:
    def test_registry(self):
        assert list_autoscalers() == sorted(
            ["queue-depth", "slo", "burn-rate"]
        )
        assert set(AUTOSCALER_NAMES) == {"queue-depth", "slo", "burn-rate"}
        with pytest.raises(KeyError, match="queue-depth"):
            get_autoscaler("nope")

    def test_queue_depth_scales_up_on_backlog(self):
        policy = QueueDepthAutoscaler(high_watermark=4.0, low_watermark=0.5)
        assert policy.decide(_view(queue_depth=10, num_serving=2)) == +1
        assert policy.decide(_view(queue_depth=6, num_serving=2)) == 0

    def test_queue_depth_scales_down_when_idle(self):
        policy = QueueDepthAutoscaler(low_watermark=0.5)
        assert policy.decide(_view(queue_depth=0, outstanding_tokens=0)) == -1
        # Never below min_replicas-equivalent signal: busy fleet holds.
        assert policy.decide(_view(queue_depth=0, outstanding_tokens=64)) == 0

    def test_queue_depth_counts_warming_capacity(self):
        # A replica already warming counts toward provisioned capacity, so
        # the same backlog does not trigger a second scale-up.
        policy = QueueDepthAutoscaler(high_watermark=4.0)
        assert policy.decide(
            _view(queue_depth=10, num_serving=2, num_warming=1)
        ) == 0

    def test_slo_scales_up_on_missed_attainment(self):
        policy = SLOAutoscaler(
            slo=ServiceLevelObjective(attainment_target=0.9)
        )
        assert policy.decide(_view(slo_attainment=0.5, ttft_p95_s=3.0)) == +1
        assert policy.decide(_view(slo_attainment=0.95, ttft_p95_s=3.0)) == 0

    def test_slo_holds_on_no_signal(self):
        policy = SLOAutoscaler()
        assert policy.decide(_view(slo_attainment=float("nan"))) == 0

    def test_slo_scales_down_only_with_headroom(self):
        slo = ServiceLevelObjective(ttft_s=2.0, attainment_target=0.9)
        policy = SLOAutoscaler(slo=slo, scale_down_ttft_margin=0.5)
        comfy = _view(slo_attainment=1.0, ttft_p95_s=0.5, queue_depth=0)
        tight = _view(slo_attainment=1.0, ttft_p95_s=1.5, queue_depth=0)
        assert policy.decide(comfy) == -1
        assert policy.decide(tight) == 0

    def test_bounds_validation(self):
        with pytest.raises(ValueError):
            QueueDepthAutoscaler(min_replicas=0)
        with pytest.raises(ValueError):
            QueueDepthAutoscaler(min_replicas=4, max_replicas=2)
        with pytest.raises(ValueError):
            QueueDepthAutoscaler(high_watermark=1.0, low_watermark=2.0)

    def test_fleet_view_derived_fields(self):
        view = _view(queue_depth=9, num_serving=2, num_warming=1)
        assert view.num_provisioned == 3
        assert view.queue_per_replica == pytest.approx(3.0)


class TestTelemetryFleetView:
    """``routing_scales``: each replica's FLOPs per busy second over the
    fleet mean, clipped to [0.5, 2.0]; replicas without signal keep 1.0."""

    @staticmethod
    def _hub(**counters: tuple[float, float]) -> TelemetryHub:
        """A hub whose replica ``name`` accumulated ``(busy_s, flops)``
        between t=0 and t=4."""
        hub = TelemetryHub()
        for name, (busy_s, flops) in counters.items():
            for ts, share in ((0.0, 0.0), (4.0, 1.0)):
                hub.sample(f"replica.{name}.busy_s", ts, busy_s * share)
                hub.sample(f"replica.{name}.flops", ts, flops * share)
        return hub

    def _scales(self, names: list[str], **counters) -> dict[str, float]:
        return TelemetryFleetView(self._hub(**counters)).routing_scales(names, 4.0)

    def test_scale_is_rate_over_fleet_mean(self):
        # Rates 5 and 3 FLOPs per busy second around a mean of 4.
        scales = self._scales(["a", "b"], a=(1.0, 5.0), b=(2.0, 6.0))
        assert scales == {"a": 1.25, "b": 0.75}

    def test_scales_clip_to_floor_and_ceiling(self):
        # Rates 1000, 1 and 1: the mean is 334, so the raw ratios are
        # ~2.99 and ~0.003.
        scales = self._scales(
            ["fast", "slow", "mid"],
            fast=(1.0, 1000.0), slow=(1.0, 1.0), mid=(1.0, 1.0),
        )
        assert scales == {"fast": 2.0, "slow": 0.5, "mid": 0.5}

    def test_replica_without_busy_signal_keeps_unit_scale(self):
        # ``idle`` was busy below the 1e-6 s minimum and ``absent`` has no
        # series (NaN busy time); neither enters the mean.
        scales = self._scales(
            ["a", "b", "idle", "absent"],
            a=(1.0, 5.0), b=(1.0, 3.0), idle=(1e-9, 1.0),
        )
        assert scales == {"a": 1.25, "b": 0.75, "idle": 1.0, "absent": 1.0}

    def test_fewer_than_two_observed_replicas_means_no_adjustment(self):
        names = ["a", "idle", "absent"]
        scales = self._scales(names, a=(1.0, 100.0), idle=(0.0, 0.0))
        assert scales == {name: 1.0 for name in names}


# ----------------------------------------------------------------------
# Control plane object


class TestControlPlane:
    def test_null_detection(self):
        assert ControlPlane().is_null
        assert ControlPlane().autoscaler is None
        crash = FaultSchedule((FaultEvent("crash", at_s=1.0, replica="r0"),))
        assert not ControlPlane(faults=crash).is_null
        assert not ControlPlane(autoscaler=QueueDepthAutoscaler()).is_null

    def test_warmup_priced_from_hardware(self):
        plane = ControlPlane()
        a100 = plane.warmup_s(_dep("A100"))
        assert a100 > 0.0

    def test_validation(self):
        with pytest.raises(ValueError):
            ControlPlane(tick_interval_s=0.0)


# ----------------------------------------------------------------------
# Null-control equivalence (the acceptance-criteria guarantee)


class TestNullControlEquivalence:
    def test_bit_identical_to_plain_simulator(self):
        plain = ClusterSimulator(_dep(), 2).run(_trace())
        nulled = ClusterSimulator(_dep(), 2, control=ControlPlane()).run(
            _trace()
        )
        assert nulled.to_json_dict() == plain.to_json_dict()
        assert nulled.makespan_s == plain.makespan_s  # exact, not approx
        assert nulled.average_power_w == plain.average_power_w

    def test_bit_identical_under_disaggregation(self):
        disagg = DisaggregationSpec(num_prefill_replicas=1)
        plain = ClusterSimulator(_dep(), 2, disaggregation=disagg).run(
            _trace()
        )
        nulled = ClusterSimulator(
            _dep(), 2, disaggregation=disagg, control=ControlPlane()
        ).run(_trace())
        assert nulled.to_json_dict() == plain.to_json_dict()

    def test_homogeneous_fleet_kwarg_is_identity(self):
        plain = ClusterSimulator(_dep(), 2).run(_trace())
        fleet = ClusterSimulator(_dep(), 2, fleet=[_dep(), _dep()]).run(
            _trace()
        )
        assert fleet.to_json_dict() == plain.to_json_dict()


# ----------------------------------------------------------------------
# Fault injection through the simulator


class TestFaultInjection:
    def _run(self, faults, replicas=2, retry=None, **kwargs):
        control = ControlPlane(faults=faults, retry=retry)
        simulator = ClusterSimulator(
            _dep(), replicas, control=control, **kwargs
        )
        return simulator.run(_trace())

    def test_crash_requeues_and_recovers(self):
        faults = FaultSchedule(
            (FaultEvent("crash", at_s=2.0, replica="replica1"),)
        )
        result = self._run(faults)
        assert result.retries > 0
        assert result.failed_requests == 0
        states = [r.state for r in result.requests]
        assert all(s == "finished" for s in states)
        crashed = [r for r in result.replicas if r.status == "crashed"]
        assert [r.name for r in crashed] == ["replica1"]

    def test_crash_run_is_seed_deterministic(self):
        faults = FaultSchedule(
            (FaultEvent("crash", at_s=2.0, replica="replica1"),)
        )
        a = self._run(faults).to_json_dict()
        b = self._run(faults).to_json_dict()
        assert a == b

    def test_slowdown_stretches_single_replica_makespan(self):
        # One replica so the router cannot steer around the straggler.
        faults = FaultSchedule(
            (
                FaultEvent(
                    "slowdown", at_s=1.0, replica="replica0",
                    duration_s=3.0, factor=3.0,
                ),
            )
        )
        slowed = self._run(faults, replicas=1)
        baseline = ClusterSimulator(_dep(), 1).run(_trace())
        assert slowed.makespan_s > baseline.makespan_s * 1.05
        assert slowed.failed_requests == 0

    def test_kv_loss_forces_handoff_retries(self):
        faults = FaultSchedule(
            (FaultEvent("kv_loss", at_s=0.5, duration_s=1.0),)
        )
        control = ControlPlane(faults=faults)
        result = ClusterSimulator(
            _dep(),
            2,
            disaggregation=DisaggregationSpec(num_prefill_replicas=1),
            control=control,
        ).run(_trace())
        assert result.lost_handoffs > 0
        assert result.retries > 0
        finished = sum(1 for r in result.requests if r.state == "finished")
        assert finished + result.failed_requests == len(result.requests)

    def test_retry_budget_exhaustion_fails_requests(self):
        # Both replicas crash and nothing is left to serve the requeues:
        # every in-flight request burns its budget and lands FAILED.
        faults = FaultSchedule(
            (
                FaultEvent("crash", at_s=0.5, replica="replica0"),
                FaultEvent("crash", at_s=0.5, replica="replica1"),
            )
        )
        result = self._run(faults, retry=RetryPolicy(max_retries=1))
        assert result.failed_requests > 0
        assert all(
            r.state in ("finished", "failed") for r in result.requests
        )

    def test_fault_log_recorded(self):
        faults = FaultSchedule(
            (FaultEvent("crash", at_s=2.0, replica="replica1"),)
        )
        result = self._run(faults)
        assert [f["kind"] for f in result.fault_log] == ["crash"]
        assert result.fault_log[0]["replica"] == "replica1"

    def test_traced_chaos_run_emits_control_events(self):
        faults = FaultSchedule(
            (FaultEvent("crash", at_s=2.0, replica="replica1"),)
        )
        control = ControlPlane(faults=faults)
        result = ClusterSimulator(
            _dep(), 2, control=control, traced=True
        ).run(_trace())
        assert "control" in result.replica_events
        names = {e.name for e in result.replica_events["control"]}
        assert "fault:crash" in names


# ----------------------------------------------------------------------
# Autoscaling through the simulator


class TestAutoscaling:
    def test_queue_depth_scales_up_under_backlog(self):
        control = ControlPlane(
            autoscaler=QueueDepthAutoscaler(
                high_watermark=2.0, max_replicas=4
            ),
            tick_interval_s=0.25,
        )
        result = ClusterSimulator(
            _dep(), 1, max_concurrency=4, control=control
        ).run(_trace(n=40))
        ups = [e for e in result.scale_log if e["action"] == "up"]
        assert ups
        assert all(e["ready_s"] > e["ts_s"] for e in ups)  # warm-up priced
        assert len(result.replicas) > 1

    def test_slo_policy_scales_up_when_attainment_missed(self):
        slo = ServiceLevelObjective(ttft_s=0.2, attainment_target=0.95)
        control = ControlPlane(
            autoscaler=SLOAutoscaler(slo=slo, max_replicas=4),
            tick_interval_s=0.25,
        )
        result = ClusterSimulator(
            _dep(), 1, max_concurrency=8, control=control
        ).run(_trace(n=48, rate=12.0))
        assert any(e["action"] == "up" for e in result.scale_log)

    def test_max_replicas_bound_respected(self):
        control = ControlPlane(
            autoscaler=QueueDepthAutoscaler(
                high_watermark=0.1, low_watermark=0.0, max_replicas=2
            ),
            tick_interval_s=0.1,
        )
        result = ClusterSimulator(
            _dep(), 1, max_concurrency=2, control=control
        ).run(_trace(n=40))
        assert len(result.replicas) <= 2

    def test_cooldown_spaces_scale_events(self):
        control = ControlPlane(
            autoscaler=QueueDepthAutoscaler(
                high_watermark=0.1, low_watermark=0.0,
                max_replicas=8, cooldown_s=1.0,
            ),
            tick_interval_s=0.1,
        )
        result = ClusterSimulator(
            _dep(), 1, max_concurrency=2, control=control
        ).run(_trace(n=40))
        times = [e["ts_s"] for e in result.scale_log]
        gaps = [b - a for a, b in zip(times, times[1:])]
        assert all(g >= 1.0 - 1e-9 for g in gaps)

    def test_scale_events_are_deterministic(self):
        def run():
            control = ControlPlane(
                autoscaler=QueueDepthAutoscaler(
                    high_watermark=2.0, max_replicas=4
                ),
                tick_interval_s=0.25,
            )
            return ClusterSimulator(
                _dep(), 1, max_concurrency=4, control=control
            ).run(_trace(n=40))

        assert run().to_json_dict() == run().to_json_dict()

    def test_completion_history_keeps_only_the_window(self):
        # The SLO view reads completions inside the fast window only, and
        # the simulator drops older ones at each tick.  A reference that
        # filters the window from the full history must decide the same.
        class Unpruned(ClusterSimulator):
            def _fleet_view(self, ts, serving, warming):
                history = self._completions
                view = super()._fleet_view(ts, serving, warming)
                self._completions = history
                return view

        class Pruned(ClusterSimulator):
            def _fleet_view(self, ts, serving, warming):
                self.last_tick_s = ts
                return super()._fleet_view(ts, serving, warming)

        def run(cls):
            slo = ServiceLevelObjective(ttft_s=0.2, attainment_target=0.95)
            control = ControlPlane(
                autoscaler=SLOAutoscaler(slo=slo, max_replicas=4),
                tick_interval_s=0.25,
            )
            sim = cls(_dep(), 2, max_concurrency=8, control=control)
            return sim, sim.run(_trace(n=400, rate=8.0))

        pruned, result = run(Pruned)
        reference, expected = run(Unpruned)
        assert result.scale_log and result.scale_log == expected.scale_log
        assert json.dumps(result.to_json_dict(), sort_keys=True) == json.dumps(
            expected.to_json_dict(), sort_keys=True
        )
        kept = pruned._completions
        assert len(reference._completions) == 400
        assert 0 < len(kept) < 100
        assert all(r.finish_time >= pruned.last_tick_s - FAST_WINDOW_S for r in kept)


# ----------------------------------------------------------------------
# Heterogeneous fleets


class TestHeterogeneousFleet:
    def test_capacity_weights_favor_faster_hardware(self):
        fleet = [_dep("A100"), _dep("H100")]
        result = ClusterSimulator(_dep("A100"), 2, fleet=fleet).run(
            _trace(n=48)
        )
        a100, h100 = result.replicas
        assert h100.requests_served > a100.requests_served

    def test_fleet_length_must_match(self):
        with pytest.raises(ValueError, match="fleet"):
            ClusterSimulator(_dep(), 3, fleet=[_dep(), _dep()])

    def test_mixed_fleet_run_is_deterministic(self):
        fleet = [_dep("A100"), _dep("H100")]

        def run():
            return ClusterSimulator(_dep("A100"), 2, fleet=fleet).run(
                _trace(n=32)
            )

        assert run().to_json_dict() == run().to_json_dict()


# ----------------------------------------------------------------------
# Result surface


class TestResultSurface:
    def test_render_mentions_control_activity(self):
        faults = FaultSchedule(
            (FaultEvent("crash", at_s=2.0, replica="replica1"),)
        )
        result = ClusterSimulator(
            _dep(), 2, control=ControlPlane(faults=faults)
        ).run(_trace())
        text = result.render()
        assert "faults" in text
        assert "crashed" in text

    def test_json_dict_has_control_sections(self):
        faults = FaultSchedule(
            (FaultEvent("crash", at_s=2.0, replica="replica1"),)
        )
        payload = ClusterSimulator(
            _dep(), 2, control=ControlPlane(faults=faults)
        ).run(_trace()).to_json_dict()
        assert payload["faults"][0]["kind"] == "crash"
        assert payload["retries"] > 0
        assert not any("id" in r for r in payload["requests"])

    def test_math_nan_absent_from_json(self):
        payload = ClusterSimulator(
            _dep(), 2, control=ControlPlane()
        ).run(_trace()).to_json_dict()
        assert not math.isnan(payload["makespan_s"])
