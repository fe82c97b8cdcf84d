"""Runtime cost-attribution profiler suite.

Three contracts, matching the profiler's docstring invariants:

* **exact sums** — every recorded step's component partition sums to the
  committed step cost to <= 1e-12 relative, across the paper's awkward
  hardware corners (MI250 saturation, SN40L tier walk, MoE expert
  parallelism, multi-device TP);
* **zero overhead** — profiling off is bit-identical to the unprofiled
  engine and cluster, and profiling on never perturbs the simulated
  clock;
* **consistency bridge** — on a static-batch run the runtime
  :class:`ProfileReport` and the static ``analysis.bottleneck.analyze``
  report agree on every phase's dominant mechanism and (normalized)
  fractions.

Plus the NaN-safety of empty/degenerate runs, JSON determinism, Perfetto
counter tracks, and fleet merges.
"""

import json
import math

import pytest

from repro.analysis import analyze
from repro.cluster.simulator import ClusterSimulator
from repro.core.metrics import COMPONENT_FIELDS, CostComponents
from repro.core.request import GenerationConfig
from repro.frameworks.base import get_framework
from repro.hardware.zoo import get_hardware
from repro.models.zoo import get_model
from repro.obs import EventTracer, StepProfiler, counter_series, merge_profiles
from repro.perf.parallelism import ParallelismPlan
from repro.perf.phases import (
    Deployment,
    decode_step_breakdown,
    decode_step_traffic,
    prefill_breakdown,
    prefill_traffic,
)
from repro.perf.kernel import StepCostKernel
from repro.runtime.engine import ServingEngine
from repro.runtime.workload import fixed_batch_trace, open_loop_trace

REL_TOL = 1e-12

COUNTER_NAMES = ("mfu", "mbu", "tokens_per_s", "watts", "joules_per_token")


def rel_close(a: float, b: float, tol: float = REL_TOL) -> bool:
    if a == b:
        return True
    return abs(a - b) <= tol * max(abs(a), abs(b))


def _deployment(model, hardware, framework, **kwargs) -> Deployment:
    return Deployment(
        get_model(model), get_hardware(hardware), get_framework(framework),
        **kwargs,
    )


def _corner_deployments() -> list[Deployment]:
    """The acceptance corners: saturation, tier walk, MoE EP, TP comms."""
    return [
        _deployment("LLaMA-3-8B", "A100", "vLLM"),
        _deployment("LLaMA-3-8B", "MI250", "vLLM"),
        _deployment("LLaMA-3-8B", "SN40L", "SambaFlow"),
        _deployment("Mixtral-8x7B", "A100", "vLLM",
                    plan=ParallelismPlan(tp=4, ep=2)),
        _deployment("LLaMA-2-7B", "H100", "TRT-LLM",
                    plan=ParallelismPlan(tp=4)),
    ]


_CORNERS = _corner_deployments()
_CORNER_IDS = [
    f"{d.model.name}-{d.hardware.name}-{d.framework.name}-{d.plan.label}"
    for d in _CORNERS
]


def _profiled_run(dep, trace, **kwargs):
    engine = ServingEngine(dep, profile=True, **kwargs)
    result = engine.run(trace)
    assert result.profile is not None
    return result


class TestComponentExactness:
    """Component partitions sum to the priced step cost, everywhere."""

    @pytest.mark.parametrize("dep", _CORNERS, ids=_CORNER_IDS)
    def test_breakdown_partition_is_exact(self, dep):
        for batch, tokens in ((1, 128), (8, 512), (32, 2048)):
            for bd in (
                prefill_breakdown(dep, batch, tokens),
                decode_step_breakdown(dep, batch, tokens),
            ):
                components = CostComponents.from_breakdown(bd)
                assert rel_close(components.total_s, bd.total_s)
                assert rel_close(
                    sum(getattr(components, f) for f in COMPONENT_FIELDS),
                    bd.total_s,
                )

    @pytest.mark.parametrize("dep", _CORNERS, ids=_CORNER_IDS)
    def test_run_attribution_sums_to_busy_time(self, dep):
        result = _profiled_run(
            dep, fixed_batch_trace(8, 384, 96), max_concurrency=8
        )
        profile = result.profile
        assert rel_close(profile.busy_s, sum(p.time_s for p in profile.phases))
        for phase in profile.phases:
            assert rel_close(phase.components.total_s, phase.time_s)
        # The per-request split redistributes, never creates or loses, time.
        request_total = sum(r.components.total_s for r in profile.requests)
        assert rel_close(request_total, profile.components.total_s)
        assert rel_close(
            sum(r.time_s for r in profile.requests), profile.busy_s
        )
        assert rel_close(
            sum(r.energy_j for r in profile.requests) + profile.idle_energy_j,
            profile.energy_j,
        )

    @pytest.mark.parametrize("dep", _CORNERS, ids=_CORNER_IDS)
    def test_kernel_traffic_matches_direct(self, dep):
        kernel = StepCostKernel(dep)
        for batch, tokens in ((1, 1), (4, 128), (16, 4096)):
            for fast, direct in (
                (kernel.prefill_traffic(batch, tokens),
                 prefill_traffic(dep, batch, tokens)),
                (kernel.decode_step_traffic(batch, tokens),
                 decode_step_traffic(dep, batch, tokens)),
            ):
                assert rel_close(fast[0], direct[0])
                assert rel_close(fast[1], direct[1])

    def test_energy_matches_engine_accounting(self):
        dep = _deployment("LLaMA-3-8B", "A100", "vLLM")
        result = _profiled_run(
            dep, open_loop_trace(16, 4.0, 256, 96, seed=3), max_concurrency=8
        )
        assert rel_close(
            result.profile.average_power_w, result.average_power_w
        )
        assert rel_close(
            result.profile.energy_j,
            result.average_power_w * result.total_time_s,
        )


class TestZeroOverhead:
    """Profiling off is free; profiling on never moves the clock."""

    def test_disabled_engine_is_bit_identical(self):
        dep = _deployment("LLaMA-3-8B", "A100", "vLLM")

        def run(profile):
            engine = ServingEngine(dep, max_concurrency=8, profile=profile)
            return engine.run(open_loop_trace(12, 4.0, 256, 96, seed=5))

        plain, profiled = run(False), run(True)
        assert plain.profile is None
        assert profiled.profile is not None
        assert plain.total_time_s == profiled.total_time_s
        assert plain.average_power_w == profiled.average_power_w
        assert plain.iterations == profiled.iterations
        assert [r.finish_time for r in plain.requests] == [
            r.finish_time for r in profiled.requests
        ]

    def test_engine_default_is_null_profiler(self):
        dep = _deployment("LLaMA-3-8B", "A100", "vLLM")
        engine = ServingEngine(dep, max_concurrency=4)
        assert engine.profile is False
        run = engine.start()
        assert run.profiler is None
        for request in open_loop_trace(4, 4.0, 128, 16, seed=1):
            run.submit(request)
        while run.has_work:
            run.step()
        assert run.result().profile is None

    def test_disabled_cluster_is_bit_identical(self):
        dep = _deployment("LLaMA-3-8B", "A100", "vLLM")

        def run(profiled):
            simulator = ClusterSimulator(
                dep, 2, max_concurrency=8, profiled=profiled
            )
            return simulator.run(open_loop_trace(16, 6.0, 256, 96, seed=9))

        plain, profiled = run(False), run(True)
        assert plain.profile is None
        assert profiled.profile is not None
        assert plain.makespan_s == profiled.makespan_s
        # The serialized result deliberately excludes the profile, so the
        # chaos job's byte-for-byte diff is unaffected by profiling.
        assert plain.to_json_dict() == profiled.to_json_dict()


class TestConsistencyBridge:
    """Runtime profile vs the static analyzer, static-batch workload."""

    @pytest.mark.parametrize("dep", _CORNERS, ids=_CORNER_IDS)
    def test_static_batch_agrees_with_analyze(self, dep):
        config = GenerationConfig(512, 256, 16)
        result = _profiled_run(
            dep, fixed_batch_trace(16, 512, 256), max_concurrency=16
        )
        profile = result.profile
        static = analyze(dep, config)
        assert profile.dominant_bottleneck == static.end_to_end_bottleneck
        for phase in profile.phases:
            runtime = phase.attribution
            reference = getattr(static, phase.phase)
            assert runtime.dominant == reference.dominant
            # Static fractions are raw leg / total (their sum exceeds 1 by
            # the modeled overlap); normalize before comparing shares.
            fields = (
                "compute", "weight_bandwidth", "kv_bandwidth",
                "activation_bandwidth", "communication", "overhead",
            )
            norm = sum(getattr(reference, f) for f in fields)
            for f in fields:
                assert math.isclose(
                    getattr(runtime, f),
                    getattr(reference, f) / norm,
                    rel_tol=1e-9,
                    abs_tol=1e-9,
                ), f"{phase.phase}.{f}"


class TestDegenerateRuns:
    """NaN-safety on empty, idle and never-seen-request profiles."""

    def test_empty_report_is_nan_free(self):
        dep = _deployment("LLaMA-3-8B", "A100", "vLLM")
        profiler = StepProfiler(dep)
        report = profiler.report(0.0, [])
        assert report.phases == ()
        assert report.requests == ()
        assert report.tokens_per_s == 0.0
        assert report.mfu == 0.0 and report.mbu == 0.0
        assert report.joules_per_token == 0.0
        assert report.dominant_bottleneck is None
        rendered = report.render(max_requests=4)
        assert "no profiled work" in rendered
        assert "nan " not in rendered.lower()  # "dominant" contains "nan"!
        payload = json.dumps(report.to_json_dict())  # must not raise
        assert "NaN" not in payload and "Infinity" not in payload

    def test_unseen_requests_get_zero_attribution(self):
        dep = _deployment("LLaMA-3-8B", "A100", "vLLM")
        profiler = StepProfiler(dep)
        trace = fixed_batch_trace(2, 64, 16)
        report = profiler.report(1.0, trace)
        assert len(report.requests) == 2
        for req in report.requests:
            assert req.time_s == 0.0
            assert req.dominant is None

    def test_idle_only_run(self):
        dep = _deployment("LLaMA-3-8B", "A100", "vLLM")
        profiler = StepProfiler(dep)
        profiler.record_idle(0.0, 2.0, 100.0)
        report = profiler.report(2.0, [])
        assert report.idle_s == 2.0
        assert report.energy_j == 100.0
        assert report.busy_s == 0.0
        assert report.average_power_w == pytest.approx(50.0)
        assert report.dominant_bottleneck is None

    def test_merge_rejects_empty_and_skips_none(self):
        with pytest.raises(ValueError):
            merge_profiles([])
        with pytest.raises(ValueError):
            merge_profiles([None, None])


class TestCounterTracks:
    """Perfetto counter emission: the profile CLI's trace lane."""

    def test_profiled_traced_run_emits_counters(self):
        dep = _deployment("LLaMA-3-8B", "A100", "vLLM")
        tracer = EventTracer()
        engine = ServingEngine(
            dep, max_concurrency=8, tracer=tracer, profile=True
        )
        result = engine.run(open_loop_trace(12, 4.0, 256, 96, seed=5))
        for name in COUNTER_NAMES:
            series = counter_series(tracer.events, name, category="profile")
            assert series, f"no {name} samples"
            assert all(value >= 0.0 for _, value in series)
        mfu = counter_series(tracer.events, "mfu", category="profile")
        assert 0.0 < max(v for _, v in mfu) <= 1.0
        watts = counter_series(tracer.events, "watts", category="profile")
        assert max(v for _, v in watts) <= dep.num_devices * (
            dep.hardware.tdp_w * 1.01
        )
        assert result.profile is not None

    def test_untraced_profiled_run_emits_nothing(self):
        dep = _deployment("LLaMA-3-8B", "A100", "vLLM")
        profiler = StepProfiler(dep)  # no tracer by default
        bd = prefill_breakdown(dep, 2, 128)
        profiler.record_prefill(0.0, bd, 2, 128, 1.0, [])
        profiler.record_decode(1.0, bd, 2, 128, 4, 1.0, [])
        assert profiler.tracer is None


class TestMergeAndDeterminism:
    """Fleet merges and byte-stable JSON."""

    def test_merge_is_capacity_weighted(self):
        dep = _deployment("LLaMA-3-8B", "A100", "vLLM")
        result = _profiled_run(
            dep, fixed_batch_trace(4, 256, 64), max_concurrency=4
        )
        single = result.profile
        merged = merge_profiles([single, single], name="pair")
        assert merged.name == "pair"
        assert merged.num_devices == 2 * single.num_devices
        assert rel_close(merged.flops, 2 * single.flops)
        assert rel_close(merged.flop_capacity, 2 * single.flop_capacity)
        # Equal replicas: fleet MFU equals the per-replica MFU.
        assert rel_close(merged.mfu, single.mfu)
        assert len(merged.requests) == 2 * len(single.requests)
        assert [r.index for r in merged.requests] == list(
            range(len(merged.requests))
        )
        assert merged.model == single.model  # deduplicated label

    def test_cluster_profile_merges_replicas(self):
        dep = _deployment("LLaMA-3-8B", "A100", "vLLM")
        simulator = ClusterSimulator(dep, 2, max_concurrency=8, profiled=True)
        result = simulator.run(open_loop_trace(16, 6.0, 256, 96, seed=9))
        assert result.profile is not None
        assert result.profile.name == "cluster"
        assert result.profile.num_devices == 2 * dep.num_devices
        assert len(result.profile.requests) == 16

    def test_profile_json_is_deterministic(self):
        dep = _deployment("LLaMA-3-8B", "A100", "vLLM")

        def payload():
            result = _profiled_run(
                dep, open_loop_trace(12, 4.0, 256, 96, seed=5),
                max_concurrency=8,
            )
            return json.dumps(
                result.profile.to_json_dict(), sort_keys=True, indent=1
            )

        assert payload() == payload()

    def test_render_lists_expensive_requests(self):
        dep = _deployment("LLaMA-3-8B", "A100", "vLLM")
        result = _profiled_run(
            dep, fixed_batch_trace(4, 256, 64), max_concurrency=4
        )
        rendered = result.profile.render(max_requests=2)
        assert "requests profiled: 4" in rendered
        assert "energy J" in rendered
