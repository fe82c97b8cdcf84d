"""Tests for the prefill/decode phase latency models."""

import pytest

from repro.frameworks.base import get_framework
from repro.hardware.zoo import get_hardware
from repro.models.kvcache import KVCacheSpec
from repro.models.zoo import get_model
from repro.perf.parallelism import ParallelismPlan
from repro.perf.phases import (
    Deployment,
    decode_step_cost,
    moe_expected_active_experts,
    prefill_cost,
    step_weight_bytes,
)


def _dep(model="LLaMA-3-8B", hw="A100", fw="vLLM", **kwargs) -> Deployment:
    return Deployment(
        get_model(model), get_hardware(hw), get_framework(fw), **kwargs
    )


class TestDeployment:
    def test_framework_specialized_at_build(self):
        dep = _dep(hw="Gaudi2")
        assert not dep.framework.paged_kv  # Gaudi2 override applied

    def test_kv_spec_follows_framework(self):
        dep = _dep(fw="llama.cpp", kv_spec=KVCacheSpec(paged=True))
        assert not dep.kv_spec.paged

    def test_unsupported_pair_raises(self):
        with pytest.raises(ValueError, match="Table III"):
            _dep(fw="TRT-LLM", hw="MI250")


class TestMoEActivation:
    def test_batch_one_touches_topk(self, mixtral):
        assert moe_expected_active_experts(mixtral, 1) == pytest.approx(2.0)

    def test_large_batch_touches_all(self, mixtral):
        assert moe_expected_active_experts(mixtral, 64) == pytest.approx(8.0, rel=0.01)

    def test_monotone(self, mixtral):
        values = [moe_expected_active_experts(mixtral, t) for t in (1, 2, 8, 64)]
        assert values == sorted(values)

    def test_dense_is_one(self, llama3_8b):
        assert moe_expected_active_experts(llama3_8b, 64) == 1.0

    def test_rejects_zero_tokens(self, mixtral):
        with pytest.raises(ValueError):
            moe_expected_active_experts(mixtral, 0)


class TestStepWeightBytes:
    def test_dense_reads_everything(self):
        dep = _dep()
        assert step_weight_bytes(dep, 1) == pytest.approx(
            dep.model.total_params * 2.0
        )

    def test_moe_batch_one_is_active_subset(self):
        dep = _dep(model="Mixtral-8x7B", plan=ParallelismPlan(tp=4))
        small = step_weight_bytes(dep, 1)
        large = step_weight_bytes(dep, 64)
        assert small < large
        assert large <= dep.model.total_params * 2.0 * 1.001

    def test_moe_batch_one_close_to_active_params(self):
        dep = _dep(model="Mixtral-8x7B", plan=ParallelismPlan(tp=4))
        assert step_weight_bytes(dep, 1) == pytest.approx(
            dep.model.active_params * 2.0, rel=0.02
        )


class TestPrefill:
    def test_compute_dominates_large_prefill(self):
        bd = prefill_cost(_dep(), 16, 2048).breakdown
        assert bd.compute_s > bd.weight_memory_s

    def test_scales_superlinearly_with_length(self):
        """Quadratic attention term: 2x length is more than 2x FLOPs but
        prefill time grows at least linearly."""
        short = prefill_cost(_dep(), 1, 512).breakdown.total_s
        long = prefill_cost(_dep(), 1, 2048).breakdown.total_s
        assert long > 3.5 * short

    def test_sn40l_charges_request_setup(self):
        sn = prefill_cost(
            _dep(hw="SN40L", fw="SambaFlow", plan=ParallelismPlan(tp=8)), 1, 128
        ).breakdown
        assert sn.overhead_s >= get_hardware("SN40L").request_setup_s

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError):
            prefill_cost(_dep(), 0, 128)
        with pytest.raises(ValueError):
            prefill_cost(_dep(), 1, 0)


class TestDecodeStep:
    def test_memory_dominates_at_batch_one(self):
        bd = decode_step_cost(_dep(), 1, 1024).breakdown
        memory = bd.weight_memory_s + bd.kv_memory_s + bd.activation_memory_s
        assert memory > bd.compute_s

    def test_grows_with_context(self):
        short = decode_step_cost(_dep(), 16, 256).breakdown.total_s
        long = decode_step_cost(_dep(), 16, 4096).breakdown.total_s
        assert long > short

    def test_affine_in_context(self):
        """The estimator's mean-context trick requires affinity."""
        dep = _dep()
        t1 = decode_step_cost(dep, 16, 1000).breakdown.total_s
        t2 = decode_step_cost(dep, 16, 2000).breakdown.total_s
        t3 = decode_step_cost(dep, 16, 3000).breakdown.total_s
        assert (t3 - t2) == pytest.approx(t2 - t1, rel=1e-6)

    def test_gqa_beats_mhsa_at_long_context(self):
        """The paper's central result, at step level."""
        gqa = decode_step_cost(_dep("LLaMA-3-8B"), 64, 4096).breakdown.total_s
        mhsa = decode_step_cost(_dep("LLaMA-2-7B"), 64, 4096).breakdown.total_s
        assert mhsa > 1.5 * gqa

    def test_mhsa_wins_at_tiny_context(self):
        """LLaMA-2-7B is smaller; with negligible KV it is faster."""
        gqa = decode_step_cost(_dep("LLaMA-3-8B"), 1, 8).breakdown.total_s
        mhsa = decode_step_cost(_dep("LLaMA-2-7B"), 1, 8).breakdown.total_s
        assert mhsa < gqa

    def test_kv_disabled_is_much_slower(self):
        """Fig. 2a: recompute regime."""
        cached = decode_step_cost(_dep(), 1, 2048).breakdown.total_s
        dep_off = _dep(kv_spec=KVCacheSpec(enabled=False))
        recompute = decode_step_cost(dep_off, 1, 2048).breakdown.total_s
        assert recompute > 3 * cached

    def test_kv_disabled_has_no_kv_traffic(self):
        bd = decode_step_cost(
            _dep(kv_spec=KVCacheSpec(enabled=False)), 1, 512
        ).breakdown
        assert bd.kv_memory_s == 0.0

    def test_mi250_saturation_inflates_step(self):
        mi250_32 = decode_step_cost(_dep(hw="MI250"), 32, 1024).breakdown.total_s
        mi250_64 = decode_step_cost(_dep(hw="MI250"), 64, 1024).breakdown.total_s
        # More than 2x the work per step past the knee.
        assert mi250_64 > 1.3 * mi250_32

    def test_tp_reduces_step_time(self):
        one = decode_step_cost(_dep(), 16, 1024).breakdown.total_s
        four = decode_step_cost(
            _dep(plan=ParallelismPlan(tp=4)), 16, 1024
        ).breakdown.total_s
        assert four < one
        assert four > one / 4  # communication prevents perfect scaling

    def test_pp_does_not_help_decode_latency(self):
        one = decode_step_cost(_dep(), 1, 1024).breakdown.total_s
        pp4 = decode_step_cost(
            _dep(plan=ParallelismPlan(pp=4)), 1, 1024
        ).breakdown.total_s
        assert pp4 >= 0.9 * one

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError):
            decode_step_cost(_dep(), 0, 10)
        with pytest.raises(ValueError):
            decode_step_cost(_dep(), 1, 0)
