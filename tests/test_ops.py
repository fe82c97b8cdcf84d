"""Tests for the FLOP/byte accounting."""

import pytest

from repro.core.precision import Precision
from repro.models.ops import (
    OpCounts,
    activation_bytes_per_token,
    attention_context_flops,
    attention_linear_flops,
    ffn_flops,
    layer_flops,
    linear_flops,
    lm_head_flops,
    model_flops,
    weight_bytes,
)
from repro.models.zoo import get_model


class TestLinearFlops:
    def test_two_flops_per_mac(self):
        assert linear_flops(1, 10, 20) == 400.0

    def test_scales_with_tokens(self):
        assert linear_flops(8, 10, 20) == 8 * linear_flops(1, 10, 20)

    def test_rejects_bad_dims(self):
        with pytest.raises(ValueError):
            linear_flops(1, 0, 10)


class TestAttentionFlops:
    def test_gqa_reduces_linear_flops_only(self, llama3_8b, llama2_7b):
        # Same hidden size; GQA shrinks K/V projections...
        assert attention_linear_flops(llama3_8b, 0, 1) < attention_linear_flops(
            llama2_7b, 0, 1
        )
        # ...but context (score/value) FLOPs are identical: every *query*
        # head still attends (the GQA win is memory, not compute).
        assert attention_context_flops(llama3_8b, 1, 100) == attention_context_flops(
            llama2_7b, 1, 100
        )

    def test_context_flops_linear_in_context(self, llama3_8b):
        f1 = attention_context_flops(llama3_8b, 1, 100)
        f2 = attention_context_flops(llama3_8b, 1, 200)
        assert f2 == pytest.approx(2 * f1)

    def test_context_flops_rejects_negative(self, llama3_8b):
        with pytest.raises(ValueError):
            attention_context_flops(llama3_8b, 1, -1)


class TestFFNFlops:
    def test_moe_counts_active_experts_only(self, mixtral, llama3_8b):
        # Mixtral activates 2 experts over the same intermediate size.
        assert ffn_flops(mixtral, 1) == pytest.approx(2 * ffn_flops(llama3_8b, 1))

    def test_gated_has_three_matrices(self, llama3_8b):
        expected = 3 * 2 * llama3_8b.hidden_size * llama3_8b.ffn_intermediate_size
        assert ffn_flops(llama3_8b, 1) == pytest.approx(expected)


class TestModelFlops:
    def test_decode_flops_approx_2P(self, llama2_7b):
        """One decode token costs ~2 * params FLOPs at short context."""
        flops = model_flops(llama2_7b, 1, mean_context=1)
        assert flops == pytest.approx(2 * llama2_7b.total_params, rel=0.1)

    def test_layer_flops_sum_to_model(self, llama3_8b):
        per_layer = sum(
            layer_flops(llama3_8b, i, 4, 64.0) for i in range(llama3_8b.num_layers)
        )
        total = model_flops(llama3_8b, 4, 64.0)
        assert total == pytest.approx(per_layer + lm_head_flops(llama3_8b, 4))

    def test_lm_head_tokens_override(self, llama3_8b):
        full = model_flops(llama3_8b, 16, 8.0)
        prefill_style = model_flops(llama3_8b, 16, 8.0, include_lm_head_tokens=1)
        assert full - prefill_style == pytest.approx(lm_head_flops(llama3_8b, 15))


class TestWeightBytes:
    def test_fp16_is_two_bytes_per_param(self, llama2_7b):
        assert weight_bytes(llama2_7b) == pytest.approx(2.0 * llama2_7b.total_params)

    def test_int8_halves_fp16(self, llama2_7b):
        assert weight_bytes(llama2_7b, Precision.INT8) == pytest.approx(
            0.5 * weight_bytes(llama2_7b, Precision.FP16)
        )

    def test_active_only_matters_for_moe(self, mixtral, llama2_7b):
        assert weight_bytes(mixtral, active_only=True) < weight_bytes(mixtral)
        assert weight_bytes(llama2_7b, active_only=True) == weight_bytes(llama2_7b)


class TestOpCounts:
    def test_addition(self):
        a = OpCounts(flops=1.0, weight_bytes=2.0)
        b = OpCounts(flops=3.0, kv_read_bytes=4.0)
        c = a + b
        assert c.flops == 4.0
        assert c.weight_bytes == 2.0
        assert c.kv_read_bytes == 4.0

    def test_scaled(self):
        assert OpCounts(flops=2.0).scaled(3.0).flops == 6.0


class TestActivationBytes:
    def test_positive_and_scales_with_layers(self, llama2_7b, llama3_8b):
        assert activation_bytes_per_token(llama2_7b) > 0
        # LLaMA-3 has a larger FFN, so more activation spill per token.
        assert activation_bytes_per_token(llama3_8b) > activation_bytes_per_token(
            llama2_7b
        )
