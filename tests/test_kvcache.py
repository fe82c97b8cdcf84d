"""Tests for KV-cache sizing and allocation policies."""

import pytest

from repro.core.precision import Precision
from repro.models.kvcache import (
    KVCacheSpec,
    kv_bytes_for_sequence,
    kv_bytes_per_token,
)
from repro.models.zoo import get_model


class TestKVBytes:
    def test_gqa_is_group_times_smaller(self):
        """The paper's central mechanism: LLaMA-3-8B carries 4x less KV
        than LLaMA-2-7B (32 vs 8 KV heads)."""
        mhsa = kv_bytes_per_token(get_model("LLaMA-2-7B"))
        gqa = kv_bytes_per_token(get_model("LLaMA-3-8B"))
        assert mhsa == pytest.approx(4 * gqa)

    def test_llama2_7b_absolute_value(self):
        # 2 (K+V) * 32 layers * 32 heads * 128 dim * 2 bytes = 512 KiB/token
        assert kv_bytes_per_token(get_model("LLaMA-2-7B")) == 2 * 32 * 32 * 128 * 2

    def test_fp8_kv_halves_bytes(self):
        model = get_model("LLaMA-3-8B")
        assert kv_bytes_per_token(model, Precision.FP8) == pytest.approx(
            0.5 * kv_bytes_per_token(model, Precision.FP16)
        )

    def test_sequence_scales_linearly(self):
        model = get_model("Mistral-7B")
        assert kv_bytes_for_sequence(model, 100) == pytest.approx(
            100 * kv_bytes_per_token(model)
        )

    def test_sequence_rejects_negative(self):
        with pytest.raises(ValueError):
            kv_bytes_for_sequence(get_model("Mistral-7B"), -1)

    def test_decilm_kv_below_uniform_gqa(self):
        """NAS spent only 67 KV heads, below Mistral's 256."""
        assert kv_bytes_per_token(get_model("DeciLM-7B")) < kv_bytes_per_token(
            get_model("Mistral-7B")
        )


class TestKVCacheSpec:
    def test_blocks_ceiling_division(self):
        spec = KVCacheSpec(block_size=16)
        assert spec.blocks_for(0) == 0
        assert spec.blocks_for(1) == 1
        assert spec.blocks_for(16) == 1
        assert spec.blocks_for(17) == 2

    def test_paged_allocates_whole_blocks(self):
        spec = KVCacheSpec(paged=True, block_size=16)
        assert spec.allocated_tokens(20, 4096) == 32

    def test_contiguous_reserves_max_context(self):
        spec = KVCacheSpec(paged=False)
        assert spec.allocated_tokens(20, 4096) == 4096

    def test_rejects_bad_block_size(self):
        with pytest.raises(ValueError, match="block_size"):
            KVCacheSpec(block_size=0)

    def test_blocks_for_rejects_negative(self):
        with pytest.raises(ValueError):
            KVCacheSpec().blocks_for(-1)
