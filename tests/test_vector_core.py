"""Engine and cluster against their per-token and linear-scan references.

The engine commits each decode span in one pass over the running
requests (``ServingEngine._commit_span``).  The reference engine below
commits the same spans one token at a time through
``ServingEngine._commit_tokens``, and the reference cluster picks the
next replica to step by a linear scan over the fleet instead of the
masked argmin over the fleet arrays, running reference-engine replicas.
Everything observable — ``EngineResult`` numbers, per-request
timestamps, trace events, profile reports, and the cluster's
seed-deterministic control-plane JSON — must be *bit-identical* between
the two, across the corner matrix (MI250 saturation, SN40L, MoE EP,
disaggregation, faults, autoscaling, scenarios) and across a seeded
randomized trace generator.

The file keeps the name it had when the engine shipped two cores, so the
test IDs stay stable.
"""

from __future__ import annotations

import json
import math
import random
from unittest import mock

import pytest

from repro.cluster import ClusterSimulator, DisaggregationSpec
from repro.cluster import simulator as simulator_module
from repro.control import (
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
from repro.obs.tracer import EventTracer
from repro.perf.parallelism import ParallelismPlan
from repro.perf.phases import Deployment
from repro.runtime.engine import ServingEngine
from repro.runtime.loadgen import summarize_requests
from repro.runtime.workload import fixed_batch_trace, open_loop_trace, poisson_trace
from repro.scenarios import get_scenario


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


class _PerTokenEngine(ServingEngine):
    """Reference engine: commits every decode span token by token."""

    _commit_span = ServingEngine._commit_tokens


class _ScanCluster(ClusterSimulator):
    """Reference cluster: linear-scan replica selection over
    per-token reference replicas."""

    def _select(self, bound):
        candidates = [
            r
            for r in self._replicas
            if r.alive and r.has_work and (bound is None or r.now < bound)
        ]
        if not candidates:
            return None
        return min(candidates, key=lambda r: (r.now, r.index))

    def run(self, trace):
        with mock.patch.object(simulator_module, "ServingEngine", _PerTokenEngine):
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
            clone = _clone(trace)
            cls(_dep(), max_concurrency=8, tracer=tracer).run(clone)
            # request_id is a process-global counter: normalize to trace
            # position so the two runs compare on structure and timing.
            remap = {r.request_id: i for i, r in enumerate(clone)}
            events[name] = [
                (
                    e.name,
                    e.category,
                    e.phase,
                    e.ts_s,
                    e.dur_s,
                    {
                        k: (remap[v] if k == "request_id" else v)
                        for k, v in e.args.items()
                    },
                )
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
