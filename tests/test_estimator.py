"""Tests for the closed-form end-to-end estimator."""

import pytest

from repro.core.request import GenerationConfig
from repro.frameworks.base import get_framework
from repro.hardware.zoo import get_hardware
from repro.models.zoo import get_model
from repro.perf.estimator import InferenceEstimator, phase_utilization
from repro.perf.parallelism import ParallelismPlan
from repro.perf.phases import Deployment
from repro.core.metrics import LatencyBreakdown


def _est(model="LLaMA-3-8B", hw="A100", fw="vLLM", **kwargs) -> InferenceEstimator:
    dep = Deployment(get_model(model), get_hardware(hw), get_framework(fw), **kwargs)
    return InferenceEstimator(dep)


class TestBasicEstimation:
    def test_metrics_are_consistent(self, basic_estimator, small_config):
        m = basic_estimator.estimate(small_config)
        assert m.ttft_s > 0
        assert m.end_to_end_latency_s > m.ttft_s
        assert m.throughput_tokens_per_s > 0
        assert m.average_power_w is not None

    def test_throughput_grows_with_batch(self, basic_estimator):
        t1 = basic_estimator.throughput(GenerationConfig(512, 512, 1))
        t16 = basic_estimator.throughput(GenerationConfig(512, 512, 16))
        assert t16 > 5 * t1

    def test_ttft_method_uses_single_token(self, basic_estimator):
        config = GenerationConfig(1024, 1024, 1)
        ttft = basic_estimator.estimate_ttft(config)
        # TTFT from the one-token run matches the prefill of the full run.
        assert ttft == pytest.approx(basic_estimator.estimate(config).ttft_s)

    def test_itl_positive(self, basic_estimator):
        assert basic_estimator.estimate_itl(GenerationConfig(128, 128, 1)) > 0

    def test_single_output_token(self, basic_estimator):
        m = basic_estimator.estimate(GenerationConfig(128, 1, 1))
        assert m.itl_s == 0.0
        assert m.end_to_end_latency_s == pytest.approx(m.ttft_s)


class TestCapacity:
    def test_weights_fit_on_one_a100(self):
        cap = _est().capacity(GenerationConfig(128, 128, 1))
        assert cap.weights_fit
        assert cap.max_concurrency > 1

    def test_70b_oom_on_single_a100(self):
        est = _est(model="LLaMA-2-70B")
        m = est.estimate(GenerationConfig(128, 128, 1))
        assert m.oom

    def test_70b_fits_on_h100_node(self):
        est = _est(model="LLaMA-2-70B", hw="H100", plan=ParallelismPlan(tp=4))
        assert not est.estimate(GenerationConfig(1024, 1024, 16)).oom

    def test_paged_and_contiguous_reserve_final_context(self):
        """For the paper's fixed-shape workloads both allocators reserve
        the final context; paged rounds up to whole blocks (within one
        block of contiguous)."""
        config = GenerationConfig(100, 100, 1)
        paged_est = _est(fw="vLLM")
        paged = paged_est.capacity(config).kv_allocated_per_sequence_bytes
        contiguous = _est(fw="llama.cpp").capacity(
            config
        ).kv_allocated_per_sequence_bytes
        assert paged > 0 and contiguous > 0
        block = paged_est.deployment.kv_spec.block_size
        per_token = paged / (200 + (block - 200 % block) % block)
        assert abs(paged - contiguous) <= block * per_token

    def test_workspace_factor_inflates_gaudi2(self):
        config = GenerationConfig(512, 512, 1)
        a100 = _est().capacity(config).kv_allocated_per_sequence_bytes
        gaudi = _est(hw="Gaudi2").capacity(config).kv_allocated_per_sequence_bytes
        assert gaudi > a100


class TestWaves:
    def test_continuous_batching_waves_instead_of_oom(self):
        """70B on 4xA100: tiny KV budget -> waves, not failure."""
        est = _est(model="LLaMA-3-70B", fw="vLLM", plan=ParallelismPlan(tp=4))
        config = GenerationConfig(1024, 1024, 64)
        cap = est.capacity(config)
        assert 0 < cap.max_concurrency < 64
        m = est.estimate(config)
        assert not m.oom
        assert m.effective_concurrency == cap.max_concurrency

    def test_wave_throughput_saturates(self):
        """Beyond the concurrency cap, throughput stops growing."""
        est = _est(model="LLaMA-3-70B", fw="vLLM", plan=ParallelismPlan(tp=4))
        t32 = est.throughput(GenerationConfig(1024, 1024, 32))
        t64 = est.throughput(GenerationConfig(1024, 1024, 64))
        assert t64 == pytest.approx(t32, rel=0.25)

    def test_static_batching_ooms_instead_of_waving(self):
        est = _est(model="LLaMA-2-7B", fw="llama.cpp")
        # MHSA KV for 64 x 4096-token contexts >> one A100's budget.
        m = est.estimate(GenerationConfig(2048, 2048, 64))
        assert m.oom


class TestPower:
    def test_power_between_idle_and_tdp(self, basic_estimator):
        m = basic_estimator.estimate(GenerationConfig(1024, 1024, 16))
        spec = basic_estimator.deployment.hardware
        assert spec.idle_power_w < m.average_power_w < spec.tdp_w

    def test_group_power_scales_with_devices(self):
        one = _est().estimate(GenerationConfig(1024, 1024, 16))
        four = _est(plan=ParallelismPlan(tp=4)).estimate(
            GenerationConfig(1024, 1024, 16)
        )
        assert four.average_power_w > 2 * one.average_power_w

    def test_phase_utilization_bounds(self):
        assert phase_utilization(LatencyBreakdown()) == 0.0
        bd = LatencyBreakdown(compute_s=1.0, total_s=1.0)
        assert 0.05 <= phase_utilization(bd) <= 1.0

    def test_trtllm_draws_more_power_than_vllm(self):
        """Fig. 16."""
        config = GenerationConfig(1024, 1024, 16)
        trt = _est(fw="TRT-LLM").estimate(config)
        vllm = _est(fw="vLLM").estimate(config)
        assert trt.average_power_w > vllm.average_power_w
