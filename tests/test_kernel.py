"""Golden equivalence suite for the affine step-cost kernel.

The contract under test: every path through
:class:`~repro.perf.kernel.StepCostKernel` — scalar memoized steps,
vectorized ``evaluate_grid`` sweeps, engine runs, cluster runs — must
match the direct ``phases.py`` roofline to within 1e-12 relative (it is
bit-identical in practice for the scalar paths).  The grid deliberately
crosses the paper's awkward corners: MI250's saturation cliff, SN40L's
per-request setup cost and SRAM/DDR tier walk, MoE expert parallelism,
KV-cache-disabled recompute, and multi-device plans.
"""

import pytest

from repro.core.request import GenerationConfig
from repro.frameworks.base import get_framework
from repro.hardware.zoo import get_hardware
from repro.models.kvcache import KVCacheSpec
from repro.models.zoo import get_model
from repro.perf.estimator import InferenceEstimator
from repro.perf.kernel import (
    DirectStepCost,
    StepCostKernel,
    clear_kernel_cache,
    get_kernel,
)
from repro.perf.parallelism import ParallelismPlan
from repro.perf.phases import (
    Deployment,
    decode_step_breakdown,
    prefill_breakdown,
)
from repro.perf.quantization import INT8_SCHEME
from repro.analysis.sweeps import find_peak_batch, throughput_curve
from repro.cluster.simulator import ClusterSimulator
from repro.runtime.engine import ServingEngine
from repro.runtime.workload import fixed_batch_trace, open_loop_trace
from tests.test_vector_core import random_trace

REL_TOL = 1e-12

_BREAKDOWN_FIELDS = (
    "compute_s",
    "weight_memory_s",
    "kv_memory_s",
    "activation_memory_s",
    "communication_s",
    "overhead_s",
    "total_s",
)


def rel_close(a: float, b: float, tol: float = REL_TOL) -> bool:
    if a == b:  # covers exact zeros and inf sentinels
        return True
    return abs(a - b) <= tol * max(abs(a), abs(b))


def assert_breakdowns_match(direct, kernel, label: str = "") -> None:
    for field in _BREAKDOWN_FIELDS:
        a, b = getattr(direct, field), getattr(kernel, field)
        assert rel_close(a, b), f"{label} {field}: direct={a!r} kernel={b!r}"


def _deployment(model, hardware, framework, **kwargs) -> Deployment:
    return Deployment(
        get_model(model), get_hardware(hardware), get_framework(framework), **kwargs
    )


def _grid_deployments() -> list[Deployment]:
    """Model x hardware x framework x quantization grid (valid combos only).

    Invalid Table III pairings (e.g. TRT-LLM on MI250, anything but
    SambaFlow on SN40L) raise ``ValueError`` at construction and are
    skipped — the paper's support matrix is the source of truth.
    """
    models = ("LLaMA-3-8B", "LLaMA-2-7B", "Mixtral-8x7B")
    hardwares = ("A100", "H100", "MI250", "Gaudi2", "SN40L")
    frameworks = ("vLLM", "TRT-LLM", "llama.cpp", "SambaFlow")
    deployments: list[Deployment] = []
    for model in models:
        for hardware in hardwares:
            for framework in frameworks:
                try:
                    dep = _deployment(model, hardware, framework)
                except ValueError:
                    continue
                deployments.append(dep)
                try:
                    deployments.append(dep.with_quant(INT8_SCHEME))
                except ValueError:
                    pass
    return deployments


_GRID = _grid_deployments()
_GRID_IDS = [
    f"{d.model.name}-{d.hardware.name}-{d.framework.name}-{d.quant.label}"
    for d in _GRID
]


class TestScalarEquivalence:
    """Kernel scalar steps vs the direct ``phases.py`` roofline."""

    @pytest.mark.parametrize("dep", _GRID, ids=_GRID_IDS)
    def test_decode_matches_direct(self, dep):
        kernel = StepCostKernel(dep)
        for batch in (1, 16, 33, 64):
            for ctx in (1, 128, 2048, 8192):
                direct = decode_step_breakdown(dep, batch, ctx)
                affine = kernel.decode_step(batch, ctx)
                assert_breakdowns_match(direct, affine, f"b={batch} ctx={ctx}")

    @pytest.mark.parametrize("dep", _GRID, ids=_GRID_IDS)
    def test_prefill_matches_direct(self, dep):
        kernel = StepCostKernel(dep)
        for batch in (1, 16, 64):
            for tokens in (1, 128, 2048):
                direct = prefill_breakdown(dep, batch, tokens)
                memo = kernel.prefill(batch, tokens)
                assert_breakdowns_match(direct, memo, f"b={batch} in={tokens}")

    def test_direct_step_cost_is_passthrough(self):
        dep = _deployment("LLaMA-3-8B", "A100", "vLLM")
        direct = DirectStepCost(dep)
        assert direct.decode_step(4, 512) == decode_step_breakdown(dep, 4, 512)
        assert direct.prefill(4, 512) == prefill_breakdown(dep, 4, 512)

    def test_decode_rejects_invalid_arguments(self):
        kernel = StepCostKernel(_deployment("LLaMA-3-8B", "A100", "vLLM"))
        with pytest.raises(ValueError):
            kernel.decode_step(0, 128)
        with pytest.raises(ValueError):
            kernel.decode_step(4, 0)


class TestEdgeCaseEquivalence:
    """The paper's awkward corners, where an affine shortcut could drift."""

    def test_mi250_saturation_cliff(self):
        """Fig. 17: MI250 throughput declines past its saturation batch.

        The penalty multiplies the whole step cost, so the affine split
        must carry it per batch size — probe both sides of the cliff."""
        dep = _deployment("LLaMA-3-8B", "MI250", "vLLM")
        kernel = StepCostKernel(dep)
        sat = dep.hardware.saturation_batch
        assert sat is not None
        for batch in (sat - 1, sat, sat + 1, 2 * sat):
            direct = decode_step_breakdown(dep, batch, 1024)
            assert_breakdowns_match(
                direct, kernel.decode_step(batch, 1024), f"b={batch}"
            )

    def test_sn40l_request_setup_cost(self):
        """SN40L's per-request setup lands in prefill overhead post-roofline."""
        dep = _deployment("LLaMA-3-8B", "SN40L", "SambaFlow")
        assert dep.hardware.request_setup_s > 0.0
        kernel = StepCostKernel(dep)
        for batch in (1, 8, 64):
            direct = prefill_breakdown(dep, batch, 1024)
            assert_breakdowns_match(
                direct, kernel.prefill(batch, 1024), f"b={batch}"
            )

    def test_sn40l_tier_crossing(self):
        """Fig. 18/19 regime: footprints larger than SRAM walk into the
        slower tiers, so effective bandwidth depends on total bytes — the
        kernel must recompute it per context, not bake it into a coefficient."""
        dep = _deployment("LLaMA-3-8B", "SN40L", "SambaFlow")
        kernel = StepCostKernel(dep)
        for batch in (1, 64, 256):
            for ctx in (128, 8192, 32768):
                direct = decode_step_breakdown(dep, batch, ctx)
                assert_breakdowns_match(
                    direct, kernel.decode_step(batch, ctx), f"b={batch} ctx={ctx}"
                )

    def test_kv_cache_disabled_recompute(self):
        """Fig. 2a regime: no KV cache means context-quadratic decode, which
        is NOT affine in ctx — the kernel must route it to the direct path."""
        dep = _deployment("LLaMA-2-7B", "A100", "vLLM").with_kv_spec(
            KVCacheSpec(enabled=False)
        )
        kernel = StepCostKernel(dep)
        for ctx in (1, 512, 4096):
            direct = decode_step_breakdown(dep, 8, ctx)
            assert_breakdowns_match(direct, kernel.decode_step(8, ctx), f"ctx={ctx}")

    def test_paged_kv_block_size(self):
        dep = _deployment("LLaMA-3-8B", "A100", "vLLM").with_kv_spec(
            KVCacheSpec(paged=True, block_size=8)
        )
        kernel = StepCostKernel(dep)
        direct = decode_step_breakdown(dep, 16, 2048)
        assert_breakdowns_match(direct, kernel.decode_step(16, 2048))

    @pytest.mark.parametrize(
        "plan",
        [ParallelismPlan(tp=4), ParallelismPlan(tp=2, pp=2), ParallelismPlan(pp=2)],
        ids=["tp4", "tp2pp2", "pp2"],
    )
    def test_multi_device_plans(self, plan):
        dep = _deployment("LLaMA-3-8B", "A100", "vLLM", plan=plan)
        kernel = StepCostKernel(dep)
        for batch in (1, 16, 64):
            direct = decode_step_breakdown(dep, batch, 1024)
            assert_breakdowns_match(
                direct, kernel.decode_step(batch, 1024), f"b={batch}"
            )
            directp = prefill_breakdown(dep, batch, 512)
            assert_breakdowns_match(directp, kernel.prefill(batch, 512))

    def test_layer_split_multi_device(self):
        """llama.cpp's LAYER_SPLIT takes a different pipeline-factor branch."""
        dep = _deployment("LLaMA-2-7B", "A100", "llama.cpp", plan=ParallelismPlan(pp=2))
        kernel = StepCostKernel(dep)
        for batch in (1, 8, 32):
            direct = decode_step_breakdown(dep, batch, 1024)
            assert_breakdowns_match(
                direct, kernel.decode_step(batch, 1024), f"b={batch}"
            )

    def test_moe_expert_parallel(self):
        dep = _deployment(
            "Mixtral-8x7B", "H100", "vLLM", plan=ParallelismPlan(tp=2, ep=2)
        )
        kernel = StepCostKernel(dep)
        for batch in (1, 16, 64):
            direct = decode_step_breakdown(dep, batch, 2048)
            assert_breakdowns_match(
                direct, kernel.decode_step(batch, 2048), f"b={batch}"
            )


class TestGridEquivalence:
    """``evaluate_grid`` vs the scalar estimator, point for point."""

    def test_grid_matches_scalar_estimator(self):
        dep = _deployment("LLaMA-3-8B", "A100", "vLLM")
        kernel = StepCostKernel(dep)
        batches = (1, 4, 16, 64, 256, 1024)
        inputs = (128, 512, 2048)
        outputs = (1, 128, 1024)
        grid = kernel.evaluate_grid(batches, inputs, outputs)
        estimator = InferenceEstimator(dep, kernel=DirectStepCost(dep))
        for b in batches:
            for inp in inputs:
                for out in outputs:
                    metrics = estimator.estimate(GenerationConfig(inp, out, b))
                    point = grid.point(b, inp, out)
                    label = f"b={b} in={inp} out={out}"
                    assert point["oom"] == metrics.oom, label
                    for field, key in (
                        ("ttft_s", "ttft_s"),
                        ("end_to_end_latency_s", "end_to_end_s"),
                        ("itl_s", "itl_s"),
                        ("throughput_tokens_per_s", "throughput_tokens_per_s"),
                    ):
                        assert rel_close(
                            getattr(metrics, field), point[key]
                        ), f"{label} {field}"
                    if not metrics.oom:
                        assert rel_close(
                            metrics.average_power_w, point["average_power_w"]
                        ), f"{label} power"

    def test_grid_oom_when_weights_do_not_fit(self):
        dep = _deployment("LLaMA-2-70B", "A100", "vLLM")
        grid = StepCostKernel(dep).evaluate_grid((1, 8), (128,), (128,))
        assert grid.oom.all()
        assert InferenceEstimator(dep).estimate(GenerationConfig(128, 128, 1)).oom

    def test_grid_rejects_bad_axes(self):
        kernel = StepCostKernel(_deployment("LLaMA-3-8B", "A100", "vLLM"))
        with pytest.raises(ValueError):
            kernel.evaluate_grid((), (128,), (128,))
        with pytest.raises(ValueError):
            kernel.evaluate_grid((1,), (0,), (128,))


class TestEngineEquivalence:
    """Engine/cluster runs must not change when steps go through the kernel."""

    @staticmethod
    def _run(dep, trace, **engine_kwargs):
        return ServingEngine(dep, **engine_kwargs).run(trace)

    def _assert_runs_match(self, dep, make_trace, **engine_kwargs):
        direct = self._run(dep, make_trace(), kernel=DirectStepCost(dep), **engine_kwargs)
        fast = self._run(dep, make_trace(), kernel=StepCostKernel(dep), **engine_kwargs)
        assert direct.iterations == fast.iterations
        assert rel_close(direct.total_time_s, fast.total_time_s)
        for a, b in zip(direct.requests, fast.requests):
            assert rel_close(a.ttft_s, b.ttft_s)
            assert rel_close(a.finish_time, b.finish_time)

    def test_fixed_batch_run(self):
        dep = _deployment("LLaMA-3-8B", "A100", "vLLM")
        self._assert_runs_match(dep, lambda: fixed_batch_trace(8, 256, 64))

    def test_chunked_prefill_open_loop_run(self):
        dep = _deployment("LLaMA-3-8B", "A100", "vLLM")
        self._assert_runs_match(
            dep,
            lambda: open_loop_trace(24, 6.0, 512, 128, seed=5),
            max_concurrency=8,
        )

    def test_optimistic_preemption_run(self):
        dep = _deployment("LLaMA-2-7B", "A100", "vLLM")
        self._assert_runs_match(
            dep,
            lambda: fixed_batch_trace(24, 1800, 2200),
            max_concurrency=24,
            optimistic=True,
        )

    @pytest.mark.parametrize(
        "optimistic", [True, False], ids=["optimistic", "reserved"]
    )
    @pytest.mark.parametrize(
        "model, make_trace, max_concurrency",
        [
            pytest.param(
                "LLaMA-2-7B", lambda: fixed_batch_trace(24, 1800, 2200), 24,
                id="fixed-batch",
            ),
            *(
                pytest.param(
                    "LLaMA-3-8B", lambda seed=seed: random_trace(seed), 6,
                    id=f"random-{seed}",
                )
                for seed in (1, 2, 3)
            ),
        ],
    )
    def test_outstanding_counter_matches_scan(
        self, model, make_trace, max_concurrency, optimistic
    ):
        """The O(1) outstanding-token counter equals the O(n) reference scan
        after every iteration, under both admission policies — including
        preemption-heavy runs, where recompute restores prefill debt, and
        random traces with chunked-prefill riders and single-token outputs.
        No running request ever holds more tokens than its budget."""
        dep = _deployment(model, "A100", "vLLM")
        engine = ServingEngine(
            dep, max_concurrency=max_concurrency, optimistic=optimistic
        )
        run = engine.start()
        for request in make_trace():
            run.submit(request)
            assert run.outstanding_tokens == run.outstanding_tokens_scan()
        while run.has_work:
            run.step()
            assert run.outstanding_tokens == run.outstanding_tokens_scan()
            assert all(
                r.generated_tokens <= r.output_tokens for r in run.scheduler.running
            )
        assert run.outstanding_tokens == 0

    def test_cluster_run_matches_direct(self):
        dep = _deployment("LLaMA-3-8B", "A100", "vLLM")

        def run_with(kernel):
            sim = ClusterSimulator(dep, 2, max_concurrency=16, kernel=kernel)
            return sim.run(open_loop_trace(24, 8.0, 256, 128, seed=3))

        direct = run_with(DirectStepCost(dep))
        fast = run_with(StepCostKernel(dep))
        assert rel_close(direct.makespan_s, fast.makespan_s)


class TestKernelCache:
    def test_get_kernel_reuses_instance_for_equal_deployments(self):
        clear_kernel_cache()
        a = _deployment("LLaMA-3-8B", "A100", "vLLM")
        b = _deployment("LLaMA-3-8B", "A100", "vLLM")
        assert a is not b
        assert get_kernel(a) is get_kernel(b)

    def test_clear_kernel_cache_forgets(self):
        dep = _deployment("LLaMA-3-8B", "A100", "vLLM")
        first = get_kernel(dep)
        clear_kernel_cache()
        assert get_kernel(dep) is not first

    def test_distinct_deployments_get_distinct_kernels(self):
        base = _deployment("LLaMA-3-8B", "A100", "vLLM")
        other = base.with_kv_spec(KVCacheSpec(block_size=8))
        assert get_kernel(base) is not get_kernel(other)

    def test_coefficient_cache_is_bounded(self):
        from repro.perf import kernel as kernel_mod

        dep = _deployment("LLaMA-3-8B", "A100", "vLLM")
        kernel = StepCostKernel(dep)
        for batch in range(1, kernel_mod._COEFFS_CACHE_SIZE + 50):
            kernel.decode_coeffs(batch)
        assert len(kernel._coeffs) <= kernel_mod._COEFFS_CACHE_SIZE

    def test_step_memo_is_bounded(self):
        dep = _deployment("LLaMA-3-8B", "A100", "vLLM")
        kernel = StepCostKernel(dep)
        kernel._decode_memo.max_size = 32  # shrink for the test
        for ctx in range(1, 100):
            kernel.decode_step(1, ctx)
        assert len(kernel._decode_memo) <= 32
        # Still correct after eviction churn.
        direct = decode_step_breakdown(dep, 1, 5)
        assert_breakdowns_match(direct, kernel.decode_step(1, 5))

    def test_global_kernel_cache_is_bounded(self):
        from repro.perf import kernel as kernel_mod

        clear_kernel_cache()
        base = _deployment("LLaMA-3-8B", "A100", "vLLM")
        for block in range(1, kernel_mod._KERNEL_CACHE_SIZE + 10):
            get_kernel(base.with_kv_spec(KVCacheSpec(block_size=block)))
        assert len(kernel_mod._KERNEL_CACHE) <= kernel_mod._KERNEL_CACHE_SIZE
        clear_kernel_cache()


class TestSweepIntegration:
    def test_throughput_curve_matches_estimator_loop(self):
        dep = _deployment("LLaMA-3-8B", "A100", "vLLM")
        batches = (1, 4, 16, 64, 256)
        curve = throughput_curve(dep, 512, 256, batch_sizes=batches)
        estimator = InferenceEstimator(dep, kernel=DirectStepCost(dep))
        for bs in batches:
            expected = estimator.throughput(GenerationConfig(512, 256, bs))
            assert rel_close(curve[bs], expected), f"bs={bs}"

    def test_throughput_curve_direct_kernel_fallback(self):
        dep = _deployment("LLaMA-3-8B", "A100", "vLLM")
        fast = throughput_curve(dep, 512, 256, batch_sizes=(1, 8, 64))
        slow = throughput_curve(
            dep, 512, 256, batch_sizes=(1, 8, 64), kernel=DirectStepCost(dep)
        )
        for bs, value in fast.items():
            assert rel_close(value, slow[bs]), f"bs={bs}"

    def test_find_peak_batch_probe_budget(self):
        dep = _deployment("LLaMA-3-8B", "A100", "vLLM")
        result = find_peak_batch(dep, 512, 256)
        assert len(result.evaluated) < 30

    def test_find_peak_batch_accepts_shared_estimator(self):
        dep = _deployment("LLaMA-3-8B", "A100", "vLLM")
        estimator = InferenceEstimator(dep)
        shared = find_peak_batch(dep, 512, 256, estimator=estimator)
        fresh = find_peak_batch(dep, 512, 256)
        assert shared.batch_size == fresh.batch_size
        assert rel_close(
            shared.throughput_tokens_per_s, fresh.throughput_tokens_per_s
        )
