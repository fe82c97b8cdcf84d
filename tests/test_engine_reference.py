"""Engine and cluster against their per-token and linear-scan references.

The engine run commits each decode span in one pass over the running
requests (``EngineRun._commit_span``).  The reference run below commits
the same spans one token at a time with
``GenerationRequest.record_token``, and the reference cluster picks the
next replica to step by a linear scan over the fleet instead of a pop
from the simulator's runnable heap, running per-token reference replicas.
Everything observable — ``EngineResult`` numbers, per-request
timestamps, trace events, profile reports, and the cluster's
seed-deterministic control-plane JSON — must be *bit-identical* between
the two, across the corner matrix (MI250 saturation, SN40L, MoE EP,
disaggregation, faults, autoscaling, scenarios) and across a seeded
randomized trace generator.  Decision-level oracles hold the runnable
heap to a scan at every selection and the kept routable pools to a
fleet scan at every dispatch.
"""

from __future__ import annotations

import json
import math
import random
from unittest import mock

import pytest

from repro.cluster import ClusterSimulator, DisaggregationSpec, SessionAffinityRouter
from repro.cluster import router as router_module
from repro.cluster import simulator as simulator_module
from repro.control import (
    BurnRateAutoscaler,
    ControlPlane,
    FaultEvent,
    FaultSchedule,
    QueueDepthAutoscaler,
    RetryPolicy,
)
from repro.core.request import GenerationRequest
from repro.frameworks.base import get_framework
from repro.hardware.zoo import get_hardware
from repro.models.zoo import get_model
from repro.obs import TelemetryHub
from repro.obs.tracer import EventTracer
from repro.perf.parallelism import ParallelismPlan
from repro.perf.phases import Deployment
from repro.runtime.engine import EngineRun, ServingEngine
from repro.runtime.loadgen import ServiceLevelObjective, summarize_requests
from repro.runtime.workload import fixed_batch_trace, open_loop_trace, poisson_trace
from repro.scenarios import (
    FlashCrowdArrivals,
    LognormalLengths,
    Scenario,
    SingleShot,
    get_scenario,
)


def _dep(model="LLaMA-3-8B", hw="A100", fw="vLLM", plan=None) -> Deployment:
    if plan is None:
        return Deployment(get_model(model), get_hardware(hw), get_framework(fw))
    return Deployment(
        get_model(model), get_hardware(hw), get_framework(fw), plan=plan
    )


def _clone(trace: list[GenerationRequest]) -> list[GenerationRequest]:
    return [
        GenerationRequest(
            r.input_tokens,
            r.output_tokens,
            arrival_time=r.arrival_time,
            prefix_id=r.prefix_id,
            prefix_tokens=r.prefix_tokens,
            cached_prefix_tokens=r.cached_prefix_tokens,
        )
        for r in trace
    ]


def _assert_results_identical(a, b) -> None:
    """Exact equality — no tolerance anywhere."""
    assert a.total_time_s == b.total_time_s
    assert a.iterations == b.iterations
    assert a.decode_steps == b.decode_steps
    assert a.total_tokens == b.total_tokens
    assert a.average_power_w == b.average_power_w
    assert a.mean_ttft_s == b.mean_ttft_s
    assert a.mean_itl_s == b.mean_itl_s
    assert vars(a.scheduler_stats) == vars(b.scheduler_stats)
    assert len(a.requests) == len(b.requests)
    for x, y in zip(a.requests, b.requests):
        assert x.state == y.state
        assert x.generated_tokens == y.generated_tokens
        assert x.admit_time == y.admit_time
        assert x.first_token_time == y.first_token_time
        assert x.finish_time == y.finish_time
        assert x.preemptions == y.preemptions


class _PerTokenRun(EngineRun):
    """Reference run: commits every decode span token by token."""

    def _commit_span(self, running, steps, step_s):
        for i in range(steps):
            token_time = self.now + step_s * (i + 1)
            if self.tracer is not None:
                self.tracer.advance(token_time)
            for request in running:
                request.record_token(token_time)
                self.outstanding_tokens -= 1


class _PerTokenEngine(ServingEngine):
    """Reference engine: its runs are per-token reference runs."""

    def start(self, pressure=None):
        return _PerTokenRun(self, pressure=pressure)


class _PerTokenReplica(simulator_module.Replica):
    """Reference replica: the per-token commit on a cluster replica."""

    _commit_span = _PerTokenRun._commit_span


def _scan_select(replicas, bound):
    """Least-advanced replica that is alive and has work (clock < ``bound``
    if given), lowest index on clock ties: one pass over the fleet."""
    candidates = [
        r
        for r in replicas
        if r.alive and r.has_work and (bound is None or r.now < bound)
    ]
    if not candidates:
        return None
    return min(candidates, key=lambda r: (r.now, r.index))


class _ScanCluster(ClusterSimulator):
    """Reference cluster: linear-scan replica selection over
    per-token reference replicas."""

    def _select(self, bound):
        return _scan_select(self._replicas, bound)

    def run(self, trace):
        with mock.patch.object(simulator_module, "Replica", _PerTokenReplica):
            return super().run(trace)


ENGINES = {"reference": _PerTokenEngine, "engine": ServingEngine}
CLUSTERS = {"reference": _ScanCluster, "engine": ClusterSimulator}


def _run_pair(dep: Deployment, trace, **engine_kwargs):
    reference = _PerTokenEngine(dep, **engine_kwargs).run(_clone(trace))
    engine = ServingEngine(dep, **engine_kwargs).run(_clone(trace))
    return reference, engine


# ----------------------------------------------------------------------
# Engine workload matrix


ENGINE_CASES = [
    pytest.param(lambda: fixed_batch_trace(8, 128, 64), {}, id="fixed-batch"),
    pytest.param(
        lambda: fixed_batch_trace(8, 32, 32),
        {"max_concurrency": 2},
        id="concurrency-waves",
    ),
    pytest.param(lambda: fixed_batch_trace(4, 64, 1), {}, id="single-token"),
    pytest.param(
        lambda: poisson_trace(
            24, rate_per_s=4.0, input_tokens=256, output_tokens=96, seed=5
        ),
        {"max_concurrency": 8},
        id="poisson-open",
    ),
    pytest.param(
        lambda: open_loop_trace(32, 4.0, 384, 160, seed=7),
        {"max_concurrency": 16},
        id="open-loop",
    ),
    pytest.param(
        lambda: [
            GenerationRequest(128, 256, arrival_time=0.0),
            GenerationRequest(4096, 8, arrival_time=0.5),
        ],
        {"max_concurrency": 4},
        id="chunked-prefill-riders",
    ),
    pytest.param(
        lambda: open_loop_trace(16, 6.0, 200, 80, seed=13),
        {"coalesce": False},
        id="uncoalesced",
    ),
]


class TestEngineEquivalence:
    @pytest.mark.parametrize("make_trace, kwargs", ENGINE_CASES)
    def test_workload_bit_identity(self, make_trace, kwargs):
        reference, engine = _run_pair(_dep(), make_trace(), **kwargs)
        _assert_results_identical(reference, engine)

    def test_static_batching(self):
        dep = _dep("LLaMA-2-7B", "A100", "llama.cpp")
        reference, engine = _run_pair(
            dep, fixed_batch_trace(6, 64, 24), max_concurrency=2
        )
        _assert_results_identical(reference, engine)
        assert engine.scheduler_stats.admission_rounds == 3

    def test_optimistic_preemption_path(self):
        """Optimistic (vLLM preempt-and-recompute) always commits token by
        token, so the reference's override must be a strict no-op there."""
        dep = _dep("LLaMA-2-7B")
        trace = fixed_batch_trace(24, 1800, 2200)  # overpacks the KV pool
        reference, engine = _run_pair(
            dep, trace, optimistic=True, max_concurrency=24
        )
        _assert_results_identical(reference, engine)
        assert engine.scheduler_stats.preemptions > 0


class TestCornerDeployments:
    """The paper's accelerator corners (Sections V-B/V-E)."""

    @pytest.mark.parametrize(
        "model, hw, fw, plan",
        [
            pytest.param(
                "LLaMA-2-70B", "MI250", "vLLM", ParallelismPlan(tp=4),
                id="mi250-saturation",
            ),
            pytest.param("Mistral-7B", "SN40L", "SambaFlow", None, id="sn40l"),
            pytest.param(
                "Mixtral-8x7B", "H100", "vLLM", ParallelismPlan(tp=4, ep=4),
                id="moe-ep",
            ),
            pytest.param("LLaMA-3-8B", "Gaudi2", "vLLM", None, id="gaudi2"),
        ],
    )
    def test_corner_bit_identity(self, model, hw, fw, plan):
        dep = _dep(model, hw, fw, plan=plan)
        trace = open_loop_trace(20, 3.0, 320, 96, seed=17)
        reference, engine = _run_pair(dep, trace, max_concurrency=8)
        _assert_results_identical(reference, engine)


class TestObservabilityEquivalence:
    def test_trace_events_identical(self):
        trace = open_loop_trace(16, 5.0, 256, 64, seed=21)
        events = {}
        for name, cls in ENGINES.items():
            tracer = EventTracer()
            cls(_dep(), max_concurrency=8, tracer=tracer).run(_clone(trace))
            events[name] = [
                (e.name, e.category, e.phase, e.ts_s, e.dur_s, e.args)
                for e in tracer.events
            ]
        assert events["reference"] == events["engine"]

    def test_profile_reports_identical(self):
        trace = open_loop_trace(16, 5.0, 256, 64, seed=23)
        reports = {}
        for name, cls in ENGINES.items():
            result = cls(_dep(), max_concurrency=8, profile=True).run(_clone(trace))
            reports[name] = result.profile.to_json_dict()
        assert json.dumps(reports["reference"], sort_keys=True) == json.dumps(
            reports["engine"], sort_keys=True
        )

    def test_metrics_gauges_identical(self):
        trace = open_loop_trace(16, 5.0, 256, 64, seed=25)
        snapshots = {}
        for name, cls in ENGINES.items():
            result = cls(_dep(), max_concurrency=8, tracer=EventTracer()).run(
                _clone(trace)
            )
            assert result.metrics is not None
            snapshots[name] = json.dumps(
                result.metrics.to_json_dict(), sort_keys=True
            )
        assert snapshots["reference"] == snapshots["engine"]


# ----------------------------------------------------------------------
# Seeded randomized traces (hypothesis-style, reproducible)


def random_trace(seed: int, n: int = 24) -> list[GenerationRequest]:
    """Deterministic pseudo-random workload generator for equivalence
    fuzzing: bursty arrivals, heavy-tailed lengths, occasional
    single-token outputs and arrival ties."""
    rng = random.Random(seed)
    now = 0.0
    trace = []
    for _ in range(n):
        if rng.random() < 0.3:  # burst: identical arrival time
            pass
        else:
            now += rng.expovariate(3.0)
        input_tokens = max(1, int(rng.lognormvariate(5.0, 1.0)))
        if rng.random() < 0.15:
            output_tokens = 1
        else:
            output_tokens = max(1, int(rng.lognormvariate(4.0, 0.8)))
        trace.append(
            GenerationRequest(
                min(input_tokens, 4096),
                min(output_tokens, 1024),
                arrival_time=now,
            )
        )
    return trace


class TestRandomizedEquivalence:
    @pytest.mark.parametrize("seed", range(8))
    def test_random_trace_bit_identity(self, seed):
        trace = random_trace(seed)
        reference, engine = _run_pair(
            _dep(), trace, max_concurrency=4 + seed % 13
        )
        _assert_results_identical(reference, engine)

    @pytest.mark.parametrize("seed", range(4))
    def test_random_trace_cluster_bit_identity(self, seed):
        trace = random_trace(100 + seed, n=32)
        out = {}
        for name, cls in CLUSTERS.items():
            result = cls(_dep(), 3, max_concurrency=6).run(_clone(trace))
            out[name] = json.dumps(result.to_json_dict(), sort_keys=True)
        assert out["reference"] == out["engine"]


# ----------------------------------------------------------------------
# Cluster matrix: routing, disagg, faults, autoscale, scenarios


def _cluster_json(name: str, *, trace, replicas=2, **kwargs) -> str:
    result = CLUSTERS[name](_dep(), replicas, **kwargs).run(_clone(trace))
    return json.dumps(result.to_json_dict(), sort_keys=True)


class TestClusterEquivalence:
    def test_multi_replica(self):
        trace = open_loop_trace(48, 6.0, 256, 96, seed=11)
        assert _cluster_json("reference", trace=trace, replicas=3) == _cluster_json(
            "engine", trace=trace, replicas=3
        )

    def test_single_replica_matches_engine(self):
        """A 1-replica cluster steps its engine through the same event
        horizons the standalone engine computes for itself."""
        trace = open_loop_trace(24, 4.0, 256, 64, seed=31)
        cluster = ClusterSimulator(_dep(), 1, max_concurrency=8).run(_clone(trace))
        engine = ServingEngine(_dep(), max_concurrency=8).run(_clone(trace))
        assert cluster.makespan_s == engine.total_time_s

    def test_disaggregated(self):
        trace = open_loop_trace(32, 5.0, 512, 64, seed=19)
        kwargs = dict(disaggregation=DisaggregationSpec(num_prefill_replicas=1))
        assert _cluster_json("reference", trace=trace, **kwargs) == _cluster_json(
            "engine", trace=trace, **kwargs
        )

    def test_crash_faults_with_retry(self):
        trace = open_loop_trace(32, 8.0, 256, 64, seed=3)
        control = ControlPlane(
            faults=FaultSchedule(
                (FaultEvent("crash", at_s=2.0, replica="replica1"),)
            ),
            retry=RetryPolicy(max_retries=3),
        )
        assert _cluster_json(
            "reference", trace=trace, control=control
        ) == _cluster_json("engine", trace=trace, control=control)

    def test_all_replicas_crash_failed_conventions(self):
        """All-failed runs keep summarize_requests NaN/0 conventions
        identical to the reference (the NaN-safety audit)."""
        trace = open_loop_trace(16, 8.0, 256, 64, seed=3)
        control = ControlPlane(
            faults=FaultSchedule(
                (
                    FaultEvent("crash", at_s=0.2, replica="replica0"),
                    FaultEvent("crash", at_s=0.2, replica="replica1"),
                )
            ),
            retry=RetryPolicy(max_retries=1),
        )
        out = {}
        for name, cls in CLUSTERS.items():
            result = cls(_dep(), 2, control=control).run(_clone(trace))
            assert result.failed_requests > 0
            out[name] = json.dumps(result.to_json_dict(), sort_keys=True)
        assert out["reference"] == out["engine"]

    def test_autoscale(self):
        trace = open_loop_trace(40, 8.0, 256, 64, seed=3)
        control = ControlPlane(
            autoscaler=QueueDepthAutoscaler(high_watermark=2.0, max_replicas=4),
            tick_interval_s=0.25,
        )
        a = _cluster_json(
            "reference", trace=trace, replicas=1, max_concurrency=4, control=control
        )
        b = _cluster_json(
            "engine", trace=trace, replicas=1, max_concurrency=4, control=control
        )
        assert a == b

    @pytest.mark.parametrize("name", ["chat-sharegpt", "flash-crowd"])
    def test_scenario_traces(self, name):
        trace = get_scenario(name).build(seed=5)[:64]
        kwargs = dict(replicas=2, max_concurrency=8, prefix_cache_slots=32)
        assert _cluster_json("reference", trace=trace, **kwargs) == _cluster_json(
            "engine", trace=trace, **kwargs
        )


# ----------------------------------------------------------------------
# Decision-level oracles: heap selection and skipped retirement


class _CheckedSelectCluster(ClusterSimulator):
    """Asserts at every selection that the runnable heap returns the
    replica the linear scan picks."""

    def run(self, trace):
        self.steps_taken = 0
        return super().run(trace)

    def _select(self, bound):
        expected = _scan_select(self._replicas, bound)
        chosen = super()._select(bound)
        assert chosen is expected, (
            f"bound {bound}: heap chose "
            f"{None if chosen is None else chosen.name}, scan chose "
            f"{None if expected is None else expected.name}"
        )
        self.steps_taken += chosen is not None
        return chosen


def _checked_run(trace, replicas, **kwargs):
    sim = _CheckedSelectCluster(_dep(), replicas, **kwargs)
    result = sim.run(_clone(trace))
    assert sim.steps_taken > 0
    plain = ClusterSimulator(_dep(), replicas, **kwargs).run(_clone(trace))
    assert json.dumps(result.to_json_dict(), sort_keys=True) == json.dumps(
        plain.to_json_dict(), sort_keys=True
    )
    return result


class TestHeapSelection:
    def test_crash_and_retry(self):
        trace = open_loop_trace(48, 10.0, 256, 64, seed=3)
        control = ControlPlane(
            faults=FaultSchedule(
                (
                    FaultEvent("crash", at_s=1.0, replica="replica1"),
                    FaultEvent("crash", at_s=2.5, replica="replica2"),
                )
            ),
            retry=RetryPolicy(max_retries=3),
        )
        result = _checked_run(trace, 4, max_concurrency=6, control=control)
        assert result.retries > 0
        assert [r.status for r in result.replicas].count("crashed") == 2

    def test_burn_rate_scale_up_and_down(self):
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
        control = ControlPlane(
            autoscaler=BurnRateAutoscaler(
                slo=ServiceLevelObjective(ttft_s=1.5, itl_s=1 / 12),
                max_replicas=6,
            ),
        )
        result = _checked_run(
            scenario.build(0), 2, max_concurrency=4, control=control
        )
        ups = [e for e in result.scale_log if e["action"] == "up"]
        downs = [e for e in result.scale_log if e["action"] == "down"]
        assert ups and all(e["ready_s"] > e["ts_s"] for e in ups)  # warming
        # Replicas scaled up during the flash drain after it.
        assert {e["replica"] for e in ups} & {e["replica"] for e in downs}

    def test_disaggregated_pressure(self):
        trace = open_loop_trace(32, 5.0, 512, 64, seed=19)
        result = _checked_run(
            trace, 2, disaggregation=DisaggregationSpec(num_prefill_replicas=2)
        )
        assert result.handoffs > 0

    @pytest.mark.parametrize("seed", range(3))
    def test_random_trace_wide_fleet(self, seed):
        trace = random_trace(200 + seed, n=96)
        _checked_run(trace, 16 + 8 * seed, max_concurrency=3)


def _scan_partition(replicas, role, now):
    """The fleet scan the kept pools replace: alive, non-draining replicas
    of ``role`` as (ready, warming) at ``now``, in index order."""
    ready, warming = [], []
    for r in replicas:
        if r.role == role and r.alive and not r.draining:
            (ready if r.start_s <= now else warming).append(r)
    return ready, warming


def _keyed_min(pool):
    return min(
        pool, key=lambda r: (r.outstanding_tokens / r.capacity_weight, r.index)
    )


class _CheckedRouteCluster(ClusterSimulator):
    """Asserts at every dispatch (and control tick) that the kept routable
    pool equals the fleet scan, and at every least-outstanding choice —
    the least-outstanding router, affinity fallbacks and re-pins,
    power-of-two pairs and KV handoffs — that the one-pass choice is the
    keyed ``min``.  Records each read's ``(now, ready)``."""

    def run(self, trace):
        self.reads = []
        self.choices = 0
        single_pass = router_module._least_outstanding

        def checked(pool):
            chosen = single_pass(pool)
            expected = _keyed_min(pool)
            assert chosen is expected, (
                f"one pass chose {chosen.name}, keyed min chose {expected.name}"
            )
            self.choices += 1
            return chosen

        with mock.patch.object(
            router_module, "_least_outstanding", checked
        ), mock.patch.object(simulator_module, "_least_outstanding", checked):
            return super().run(trace)

    def _routable(self, role, now):
        ready, warming = super()._routable(role, now)
        expected = _scan_partition(self._replicas, role, now)
        assert (ready, warming) == expected, (
            f"{role} at t={now}: kept "
            f"{[r.name for r in ready]}/{[r.name for r in warming]}, scan "
            f"{[r.name for r in expected[0]]}/{[r.name for r in expected[1]]}"
        )
        self.reads.append((now, list(ready)))
        return ready, warming


def _clone_sessions(trace):
    """``_clone`` that keeps scenario identity (session, turn, tenant)."""
    clones = _clone(trace)
    for clone, r in zip(clones, trace):
        clone.session_id, clone.turn_index, clone.tenant = (
            r.session_id, r.turn_index, r.tenant
        )
    return clones


def _route_checked(trace, replicas, **kwargs):
    """Run the checked cluster and require the plain run's exact JSON.

    ``router`` and ``telemetry`` are factories: each run gets fresh ones.
    """
    dep = kwargs.pop("dep", _dep())
    make_router = kwargs.pop("router", lambda: None)
    make_hub = kwargs.pop("telemetry", lambda: None)
    sim = _CheckedRouteCluster(
        dep, replicas, router=make_router(), telemetry=make_hub(), **kwargs
    )
    result = sim.run(_clone_sessions(trace))
    assert sim.reads and sim.choices > 0
    plain = ClusterSimulator(
        dep, replicas, router=make_router(), telemetry=make_hub(), **kwargs
    ).run(_clone_sessions(trace))
    assert json.dumps(result.to_json_dict(), sort_keys=True) == json.dumps(
        plain.to_json_dict(), sort_keys=True
    )
    return sim, result


class TestRoutingPool:
    def test_crash_and_retry(self):
        trace = open_loop_trace(48, 10.0, 256, 64, seed=3)
        control = ControlPlane(
            faults=FaultSchedule(
                (
                    FaultEvent("crash", at_s=1.0, replica="replica1"),
                    FaultEvent("crash", at_s=2.5, replica="replica2"),
                )
            ),
            retry=RetryPolicy(max_retries=3),
        )
        _, result = _route_checked(trace, 4, max_concurrency=6, control=control)
        assert result.retries > 0
        assert [r.status for r in result.replicas].count("crashed") == 2

    def test_burn_rate_scale_up_and_drain(self):
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
        control = ControlPlane(
            autoscaler=BurnRateAutoscaler(
                slo=ServiceLevelObjective(ttft_s=1.5, itl_s=1 / 12),
                max_replicas=6,
            ),
        )
        sim, result = _route_checked(
            scenario.build(0), 2, max_concurrency=4, control=control
        )
        ups = [e for e in result.scale_log if e["action"] == "up"]
        downs = [e for e in result.scale_log if e["action"] == "down"]
        assert ups and downs
        # Every scaled replica was routable from its first read at or
        # after its ready instant, and never before.
        for up in ups:
            routable = [
                now for now, ready in sim.reads
                if up["replica"] in {r.name for r in ready}
            ]
            assert routable and min(routable) >= up["ready_s"]

    def test_warming_replica_routable_exactly_at_start(self):
        """The only serving replica crashes while a scaled-up one warms:
        its requeued work defers to the ready instant and lands there."""
        trace = open_loop_trace(40, 8.0, 256, 64, seed=3)

        def control(faults=()):
            return ControlPlane(
                faults=FaultSchedule(tuple(faults)),
                autoscaler=QueueDepthAutoscaler(high_watermark=2.0, max_replicas=4),
                retry=RetryPolicy(backoff_base_s=1e-3),
                tick_interval_s=0.25,
            )

        probe = ClusterSimulator(_dep(), 1, max_concurrency=2, control=control())
        up = next(
            e for e in probe.run(_clone(trace)).scale_log if e["action"] == "up"
        )
        crash = FaultEvent(
            "crash", at_s=(up["ts_s"] + up["ready_s"]) / 2, replica="replica0"
        )
        sim, result = _route_checked(
            trace, 1, max_concurrency=2, control=control([crash])
        )
        assert result.retries > 0
        at_start = [
            ready for now, ready in sim.reads if now == up["ready_s"]
        ]
        assert at_start and all(
            up["replica"] in {r.name for r in ready} for ready in at_start
        )

    def test_disaggregated_prefill_pool(self):
        trace = open_loop_trace(32, 5.0, 512, 64, seed=19)
        _, result = _route_checked(
            trace, 2, disaggregation=DisaggregationSpec(num_prefill_replicas=2)
        )
        assert result.handoffs > 0

    def test_heterogeneous_fleet(self):
        h100 = _dep(hw="H100")
        trace = open_loop_trace(64, 12.0, 256, 96, seed=23)
        sim, _ = _route_checked(
            trace, 3, max_concurrency=4, fleet=[_dep(), h100, _dep()]
        )
        assert {r.capacity_weight for r in sim._replicas} - {1.0}

    def test_profiled_hub_scaled_weights(self):
        trace = open_loop_trace(64, 10.0, 256, 96, seed=29)
        sim, result = _route_checked(
            trace, 3, max_concurrency=4, profiled=True, telemetry=TelemetryHub
        )
        assert result.telemetry is not None
        assert {r.capacity_weight for r in sim._replicas} - {1.0}

    def test_session_affinity_repin_after_crash(self):
        trace = get_scenario("chat-sharegpt").build(seed=5)[:96]
        routers = []

        def make_router():
            routers.append(SessionAffinityRouter())
            return routers[-1]

        control = ControlPlane(
            faults=FaultSchedule(
                (FaultEvent("crash", at_s=trace[40].arrival_time, replica="replica1"),)
            ),
            retry=RetryPolicy(max_retries=3),
        )
        _route_checked(
            trace, 3, max_concurrency=8, prefix_cache_slots=32,
            control=control, router=make_router,
        )
        assert routers[0].reassignments > 0


ADMISSION_CASES = [
    pytest.param(
        lambda: _dep(),
        lambda: open_loop_trace(32, 6.0, 384, 96, seed=7),
        {"max_concurrency": 8},
        id="continuous",
    ),
    pytest.param(
        lambda: _dep("LLaMA-2-7B", "A100", "llama.cpp"),
        lambda: random_trace(41, n=16),
        {"max_concurrency": 3},
        id="static",
    ),
    pytest.param(
        lambda: _dep("LLaMA-2-7B"),
        lambda: fixed_batch_trace(24, 3400, 600),  # overpacks the KV pool
        {"optimistic": True, "max_concurrency": 24},
        id="optimistic",
    ),
    pytest.param(
        lambda: _dep(),
        lambda: [
            GenerationRequest(128, 256, arrival_time=0.0),
            GenerationRequest(96, 3, arrival_time=0.0),
            GenerationRequest(4096, 8, arrival_time=0.5),
            GenerationRequest(2048, 1, arrival_time=0.6),
        ],
        {"max_concurrency": 4},
        id="chunked-prefill-riders",
    ),
]


class TestRetirementInvariant:
    """A decode span shorter than the fewest tokens any running request
    owes skips retirement; no finished request may stay running."""

    @pytest.mark.parametrize("make_dep, make_trace, kwargs", ADMISSION_CASES)
    def test_no_finished_request_stays_running(self, make_dep, make_trace, kwargs):
        run = ServingEngine(make_dep(), **kwargs).start()
        trace = make_trace()
        for request in sorted(trace, key=lambda r: r.arrival_time):
            run.submit(request)
        finished = 0
        while run.has_work:
            finished += len(run.step())
            assert not [r for r in run.scheduler.running if r.is_finished]
        assert finished == len(trace)
        assert all(r.is_finished for r in trace)
        if run.optimistic:
            assert run.scheduler.stats.preemptions > 0


# ----------------------------------------------------------------------
# Scheduler bookkeeping, cached aggregates, NaN safety


class TestCoreSelection:
    def test_scheduler_arrival_index_tracks_waiting(self):
        """The sorted arrival multiset stays equal to the waiting set's
        arrival times through admission and preemption churn."""
        engine = ServingEngine(
            _dep("LLaMA-2-7B"), optimistic=True, max_concurrency=24
        )
        trace = fixed_batch_trace(24, 1800, 2200)  # overpacks the KV pool
        run = engine.start()
        for request in sorted(trace, key=lambda r: r.arrival_time):
            run.submit(request)
        scheduler = run.scheduler
        while run.has_work:
            run.step()
            assert scheduler._arrivals == sorted(
                r.arrival_time for r in scheduler.waiting
            )
        assert scheduler.stats.preemptions > 0


class TestResultCaching:
    def test_aggregates_cached(self):
        result = ServingEngine(_dep()).run(fixed_batch_trace(4, 64, 32))
        first = result.total_tokens
        result.requests[0].generated_tokens += 1000  # cache must not see this
        assert result.total_tokens == first
        assert result.mean_ttft_s == result.mean_ttft_s
        timelines = result.timelines()
        timelines.clear()  # caller-owned copy
        assert len(result.timelines()) == len(result.requests)


class TestNaNSafety:
    def test_empty_trace_rejected_both_cores(self):
        for cls in ENGINES.values():
            with pytest.raises(ValueError, match="empty"):
                cls(_dep()).run([])

    def test_single_token_outputs_no_decode_span(self):
        reference, engine = _run_pair(_dep(), fixed_batch_trace(4, 64, 1))
        _assert_results_identical(reference, engine)
        assert engine.decode_steps == 0
        assert engine.mean_itl_s == 0.0
        assert not math.isnan(engine.mean_ttft_s)

    def test_summary_conventions_match(self):
        trace = open_loop_trace(12, 4.0, 256, 64, seed=29)
        reference, engine = _run_pair(_dep(), trace, max_concurrency=8)
        a = summarize_requests(reference.requests, reference.total_time_s, 4.0)
        b = summarize_requests(engine.requests, engine.total_time_s, 4.0)
        assert repr(a) == repr(b)  # dataclass repr covers NaN fields exactly
