"""Exact equivalence suite for the step-cost kernel.

The step model (:class:`~repro.perf.phases.StepModel`) is one expression
over floats or arrays.  The contract under test: every path through
:class:`~repro.perf.kernel.StepCostKernel` — memoized scalar steps with
per-batch decode coefficients, engine runs, cluster runs — equals the
direct ``phases.py`` functions with ``==``, and every latency field of a
vectorized ``evaluate_grid`` lane equals the scalar estimator's with
``==``.  The one documented divergence is average power: the grid raises
utilization to ``gamma`` with ``np.power``, the scalar path with ``**``,
and the two can differ in the last ulp, so grid power is compared with
``==`` against the scalar formula evaluated with ``np.power``.  The
deployments deliberately cross the paper's awkward corners: MI250's
saturation cliff, SN40L's per-request setup cost and SRAM/DDR tier walk,
MoE expert parallelism, KV-cache-disabled recompute, and multi-device
plans; a seeded property test draws random supported configurations, and
a sweep covers every lane of the paper-zoo optimizer space.
"""

import random
from types import SimpleNamespace

import numpy as np
import pytest

from repro.analysis.optimize import SearchSpace
from repro.core.request import GenerationConfig
from repro.core.xp import FLOATS
from repro.frameworks.base import get_framework
from repro.hardware.zoo import get_hardware, list_hardware
from repro.models.kvcache import KVCacheSpec
from repro.models.zoo import get_model, list_models
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
    decode_step_cost,
    phase_utilization,
    prefill_cost,
    step_model,
)
from repro.perf.quantization import FP8_SCHEME, FP16_SCHEME, INT8_SCHEME
from repro.analysis.sweeps import find_peak_batch, throughput_curve
from repro.cluster.simulator import ClusterSimulator
from repro.runtime.engine import ServingEngine
from repro.runtime.workload import fixed_batch_trace, open_loop_trace
from tests.test_engine_reference import random_trace

# The scalar step model with numpy's pow: what a grid lane computes.
NP_POWER_FLOATS = SimpleNamespace(**{**vars(FLOATS), "power": np.power})

_LATENCY_FIELDS = (
    ("ttft_s", "ttft_s"),
    ("end_to_end_latency_s", "end_to_end_s"),
    ("itl_s", "itl_s"),
    ("throughput_tokens_per_s", "throughput_tokens_per_s"),
)


def assert_steps_match(direct, kernel, label: str = "") -> None:
    assert direct == kernel, f"{label}: direct={direct!r} kernel={kernel!r}"


def assert_lane_matches(dep, grid, metrics, b, inp, out) -> None:
    """One grid lane against the scalar estimator's metrics, exactly."""
    point = grid.point(b, inp, out)
    label = f"b={b} in={inp} out={out}"
    assert point["oom"] == metrics.oom, label
    for field, key in _LATENCY_FIELDS:
        assert getattr(metrics, field) == point[key], f"{label} {field}"
    if not metrics.oom:
        expected = step_model(dep).average_power_w(
            NP_POWER_FLOATS, metrics.prefill_breakdown, metrics.decode_breakdown
        )
        assert point["average_power_w"] == expected, f"{label} power"


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
    """Kernel scalar steps vs the direct ``phases.py`` roofline: the whole
    priced step (breakdown, watts, FLOPs, bytes) is equal."""

    @pytest.mark.parametrize("dep", _GRID, ids=_GRID_IDS)
    def test_decode_matches_direct(self, dep):
        kernel = StepCostKernel(dep)
        for batch in (1, 16, 33, 64):
            for ctx in (1, 128, 2048, 8192):
                direct = decode_step_cost(dep, batch, ctx)
                memo = kernel.decode_cost(batch, ctx)
                assert direct == memo, f"b={batch} ctx={ctx}"
                assert kernel.decode_cost(batch, ctx) == direct  # memo hit

    @pytest.mark.parametrize("dep", _GRID, ids=_GRID_IDS)
    def test_prefill_matches_direct(self, dep):
        kernel = StepCostKernel(dep)
        for batch in (1, 16, 64):
            for tokens in (1, 128, 2048):
                direct = prefill_cost(dep, batch, tokens)
                memo = kernel.prefill_cost(batch, tokens)
                assert direct == memo, f"b={batch} in={tokens}"
                assert kernel.prefill_cost(batch, tokens) == direct  # memo hit

    def test_direct_step_cost_is_passthrough(self):
        dep = _deployment("LLaMA-3-8B", "A100", "vLLM")
        direct = DirectStepCost(dep)
        assert direct.decode_cost(4, 512) == decode_step_cost(dep, 4, 512)
        assert direct.prefill_cost(4, 512) == prefill_cost(dep, 4, 512)

    def test_decode_rejects_invalid_arguments(self):
        kernel = StepCostKernel(_deployment("LLaMA-3-8B", "A100", "vLLM"))
        with pytest.raises(ValueError):
            kernel.decode_cost(0, 128)
        with pytest.raises(ValueError):
            kernel.decode_cost(4, 0)


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
            direct = decode_step_cost(dep, batch, 1024)
            assert_steps_match(
                direct, kernel.decode_cost(batch, 1024), f"b={batch}"
            )

    def test_sn40l_request_setup_cost(self):
        """SN40L's per-request setup lands in prefill overhead post-roofline."""
        dep = _deployment("LLaMA-3-8B", "SN40L", "SambaFlow")
        assert dep.hardware.request_setup_s > 0.0
        kernel = StepCostKernel(dep)
        for batch in (1, 8, 64):
            direct = prefill_cost(dep, batch, 1024)
            assert_steps_match(
                direct, kernel.prefill_cost(batch, 1024), f"b={batch}"
            )

    def test_sn40l_tier_crossing(self):
        """Fig. 18/19 regime: footprints larger than SRAM walk into the
        slower tiers, so effective bandwidth depends on total bytes — the
        kernel must recompute it per context, not bake it into a coefficient."""
        dep = _deployment("LLaMA-3-8B", "SN40L", "SambaFlow")
        kernel = StepCostKernel(dep)
        for batch in (1, 64, 256):
            for ctx in (128, 8192, 32768):
                direct = decode_step_cost(dep, batch, ctx)
                assert_steps_match(
                    direct, kernel.decode_cost(batch, ctx), f"b={batch} ctx={ctx}"
                )

    def test_kv_cache_disabled_recompute(self):
        """Fig. 2a regime: no KV cache means context-quadratic decode, which
        is NOT affine in ctx — the kernel must route it to the direct path."""
        dep = _deployment("LLaMA-2-7B", "A100", "vLLM").with_kv_spec(
            KVCacheSpec(enabled=False)
        )
        kernel = StepCostKernel(dep)
        for ctx in (1, 512, 4096):
            direct = decode_step_cost(dep, 8, ctx)
            assert_steps_match(direct, kernel.decode_cost(8, ctx), f"ctx={ctx}")

    def test_paged_kv_block_size(self):
        dep = _deployment("LLaMA-3-8B", "A100", "vLLM").with_kv_spec(
            KVCacheSpec(paged=True, block_size=8)
        )
        kernel = StepCostKernel(dep)
        direct = decode_step_cost(dep, 16, 2048)
        assert_steps_match(direct, kernel.decode_cost(16, 2048))

    @pytest.mark.parametrize(
        "plan",
        [ParallelismPlan(tp=4), ParallelismPlan(tp=2, pp=2), ParallelismPlan(pp=2)],
        ids=["tp4", "tp2pp2", "pp2"],
    )
    def test_multi_device_plans(self, plan):
        dep = _deployment("LLaMA-3-8B", "A100", "vLLM", plan=plan)
        kernel = StepCostKernel(dep)
        for batch in (1, 16, 64):
            direct = decode_step_cost(dep, batch, 1024)
            assert_steps_match(
                direct, kernel.decode_cost(batch, 1024), f"b={batch}"
            )
            directp = prefill_cost(dep, batch, 512)
            assert_steps_match(directp, kernel.prefill_cost(batch, 512))

    def test_layer_split_multi_device(self):
        """llama.cpp's LAYER_SPLIT takes a different pipeline-factor branch."""
        dep = _deployment("LLaMA-2-7B", "A100", "llama.cpp", plan=ParallelismPlan(pp=2))
        kernel = StepCostKernel(dep)
        for batch in (1, 8, 32):
            direct = decode_step_cost(dep, batch, 1024)
            assert_steps_match(
                direct, kernel.decode_cost(batch, 1024), f"b={batch}"
            )

    def test_moe_expert_parallel(self):
        dep = _deployment(
            "Mixtral-8x7B", "H100", "vLLM", plan=ParallelismPlan(tp=2, ep=2)
        )
        kernel = StepCostKernel(dep)
        for batch in (1, 16, 64):
            direct = decode_step_cost(dep, batch, 2048)
            assert_steps_match(
                direct, kernel.decode_cost(batch, 2048), f"b={batch}"
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
                    assert_lane_matches(dep, grid, metrics, b, inp, out)

    def test_paper_zoo_space_lanes_match_scalar_estimator(self):
        """Every lane of the paper-zoo optimizer space: latency fields
        equal the scalar estimator's; power equals the scalar formula with
        ``np.power``, and differs from the estimator's only where
        ``np.power`` and ``**`` round a phase utilization differently."""
        space = SearchSpace(
            models=(
                "LLaMA-2-7B", "LLaMA-3-8B", "Mistral-7B", "Qwen2-7B",
                "LLaMA-2-70B", "LLaMA-3-70B", "Qwen2-72B",
            ),
            hardware=tuple(list_hardware()),
            frameworks=("vLLM", "TRT-LLM", "DeepSpeed-MII"),
            quant_schemes=("fp16", "fp8", "int8"),
            tensor_parallel=(1, 2, 4, 8),
            batch_sizes=tuple(2**i for i in range(10)),
        )
        candidates, _ = space.enumerate_deployments()
        inp, out = space.input_tokens, space.output_tokens
        lanes = power_moved = 0
        for cand in candidates:
            dep = cand.deployment
            grid = StepCostKernel(dep).evaluate_grid(space.batch_sizes, (inp,), (out,))
            estimator = InferenceEstimator(dep, kernel=DirectStepCost(dep))
            for b in space.batch_sizes:
                metrics = estimator.estimate(GenerationConfig(inp, out, b))
                assert_lane_matches(dep, grid, metrics, b, inp, out)
                if metrics.oom:
                    continue
                lanes += 1
                if metrics.average_power_w != grid.point(b, inp, out)["average_power_w"]:
                    power_moved += 1
                    utils = [
                        phase_utilization(bd, dep.framework.power_intensity)
                        for bd in (metrics.prefill_breakdown, metrics.decode_breakdown)
                    ]
                    assert any(np.power(u, 0.70) != u**0.70 for u in utils)
        assert lanes > 4000
        assert power_moved < lanes // 10

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


def _random_deployment(rng: random.Random) -> Deployment:
    """A random supported deployment: model, hardware, framework, plan,
    quantization and KV policy (on, off, small blocks, contiguous)."""
    frameworks = ("vLLM", "TRT-LLM", "DeepSpeed-MII", "llama.cpp", "SambaFlow")
    kv_specs = (
        KVCacheSpec(),
        KVCacheSpec(enabled=False),
        KVCacheSpec(block_size=8),
        KVCacheSpec(paged=False),
    )
    while True:
        try:
            return Deployment(
                get_model(rng.choice(list_models())),
                get_hardware(rng.choice(list_hardware())),
                get_framework(rng.choice(frameworks)),
                plan=ParallelismPlan(
                    tp=rng.choice((1, 1, 2, 4)),
                    pp=rng.choice((1, 1, 2)),
                    ep=rng.choice((1, 1, 2)),
                ),
                quant=rng.choice((FP16_SCHEME, FP8_SCHEME, INT8_SCHEME)),
                kv_spec=rng.choice(kv_specs),
            )
        except ValueError:  # unsupported combination: draw again
            continue


class TestRandomDraws:
    """Seeded property test: kernel scalar == direct == grid lane."""

    @pytest.mark.parametrize("seed", range(4))
    def test_kernel_direct_and_grid_agree(self, seed):
        rng = random.Random(seed)
        for _ in range(25):
            dep = _random_deployment(rng)
            kernel = StepCostKernel(dep)
            for _ in range(4):
                batch = rng.choice((1, 2, 7, 16, 33, 64, 256))
                ctx = rng.randint(1, 16384)
                assert kernel.decode_cost(batch, ctx) == decode_step_cost(dep, batch, ctx)
                assert kernel.prefill_cost(batch, ctx) == prefill_cost(dep, batch, ctx)
            batches = tuple(sorted(rng.sample((1, 2, 4, 8, 16, 32, 64, 128), 3)))
            inputs = (rng.randint(1, 4096),)
            outputs = tuple(sorted({rng.randint(1, 2048), rng.choice((1, 2))}))
            grid = kernel.evaluate_grid(batches, inputs, outputs)
            fast = InferenceEstimator(dep, kernel=kernel)
            direct = InferenceEstimator(dep, kernel=DirectStepCost(dep))
            for b in batches:
                for out in outputs:
                    config = GenerationConfig(inputs[0], out, b)
                    metrics = direct.estimate(config)
                    assert fast.estimate(config) == metrics
                    assert_lane_matches(dep, grid, metrics, b, inputs[0], out)


class TestEngineEquivalence:
    """Engine/cluster runs must not change when steps go through the kernel."""

    @staticmethod
    def _run(dep, trace, **engine_kwargs):
        return ServingEngine(dep, **engine_kwargs).run(trace)

    def _assert_runs_match(self, dep, make_trace, **engine_kwargs):
        """Unprofiled and profiled, the two kernels give the same run; the
        profiled runs also give the same profile."""
        for profile in (False, True):
            direct = self._run(
                dep, make_trace(), kernel=DirectStepCost(dep), profile=profile,
                **engine_kwargs,
            )
            fast = self._run(
                dep, make_trace(), kernel=StepCostKernel(dep), profile=profile,
                **engine_kwargs,
            )
            assert direct.iterations == fast.iterations
            assert direct.total_time_s == fast.total_time_s
            assert direct.average_power_w == fast.average_power_w
            for a, b in zip(direct.requests, fast.requests):
                assert a.ttft_s == b.ttft_s
                assert a.finish_time == b.finish_time
            if profile:
                assert direct.profile.to_json_dict() == fast.profile.to_json_dict()
            else:
                assert direct.profile is None and fast.profile is None

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
        assert direct.makespan_s == fast.makespan_s


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
            kernel.decode_cost(1, ctx)
        assert len(kernel._decode_memo) <= 32
        # Still correct after eviction churn.
        direct = decode_step_cost(dep, 1, 5)
        assert_steps_match(direct, kernel.decode_cost(1, 5))

    @pytest.mark.parametrize(
        "accessor, memo",
        [
            ("decode_cost", "_decode_memo"),
            ("prefill_cost", "_prefill_memo"),
            ("decode_coeffs", "_coeffs"),
        ],
    )
    def test_hit_refreshes_recency(self, accessor, memo):
        """A memo hit returns the stored object and makes its key the most
        recently used: an overflow right after evicts the oldest key that
        was not touched, not the hit one.  (A FIFO memo prices the same
        bytes but misses more once a workload overflows it.)"""
        kernel = StepCostKernel(_deployment("LLaMA-3-8B", "A100", "vLLM"))
        table = getattr(kernel, memo)
        table.max_size = 3  # shrink for the test
        price = getattr(kernel, accessor)
        if accessor == "decode_coeffs":
            keys = [1, 2, 3, 4]
            args = [(k,) for k in keys]
        else:
            keys = [(1, 100), (1, 200), (1, 300), (1, 400)]
            args = keys
        first = price(*args[0])
        price(*args[1])
        price(*args[2])
        assert price(*args[0]) is first  # hit: the identical object
        price(*args[3])  # overflow
        assert list(table) == [keys[2], keys[0], keys[3]]
        assert keys[1] not in table
        assert price(*args[0]) is first

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
            assert curve[bs] == expected, f"bs={bs}"

    def test_throughput_curve_direct_kernel_fallback(self):
        dep = _deployment("LLaMA-3-8B", "A100", "vLLM")
        fast = throughput_curve(dep, 512, 256, batch_sizes=(1, 8, 64))
        slow = throughput_curve(
            dep, 512, 256, batch_sizes=(1, 8, 64), kernel=DirectStepCost(dep)
        )
        for bs, value in fast.items():
            assert value == slow[bs], f"bs={bs}"

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
        assert shared.throughput_tokens_per_s == fresh.throughput_tokens_per_s
