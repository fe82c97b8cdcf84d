"""Tests for ModelConfig validation and derived quantities."""

from dataclasses import replace

import pytest

from repro.models.config import AttentionType, FFNType, ModelConfig


def _dense(**overrides) -> ModelConfig:
    params = dict(
        name="test-model",
        num_layers=4,
        hidden_size=256,
        attention_type=AttentionType.GQA,
        num_attention_heads=8,
        num_kv_heads=2,
        ffn_type=FFNType.DENSE,
        num_experts=1,
        ffn_intermediate_size=512,
        max_sequence_length=1024,
        vocab_size=1000,
    )
    params.update(overrides)
    return ModelConfig(**params)


class TestValidation:
    def test_valid_config_builds(self):
        cfg = _dense()
        assert cfg.head_dim == 32

    def test_heads_must_divide(self):
        with pytest.raises(ValueError, match="divisible"):
            _dense(num_kv_heads=3)

    def test_mhsa_requires_equal_heads(self):
        with pytest.raises(ValueError, match="MHSA"):
            _dense(attention_type=AttentionType.MHSA, num_kv_heads=2)

    def test_dense_needs_one_expert(self):
        with pytest.raises(ValueError, match="dense"):
            _dense(num_experts=2)

    def test_moe_needs_multiple_experts(self):
        with pytest.raises(ValueError, match="MoE"):
            _dense(ffn_type=FFNType.MOE, num_experts=1)

    def test_moe_experts_per_token_bounded(self):
        with pytest.raises(ValueError, match="experts_per_token"):
            _dense(ffn_type=FFNType.MOE, num_experts=4, experts_per_token=5)

    def test_explicit_head_dim_allows_nonstandard(self):
        cfg = _dense(hidden_size=3072, num_attention_heads=16, num_kv_heads=16,
                     attention_type=AttentionType.MHSA, head_dim=256)
        assert cfg.q_dim == 4096

    def test_head_dim_required_when_not_divisible(self):
        with pytest.raises(ValueError, match="head_dim"):
            _dense(hidden_size=250)

    def test_kv_heads_per_layer_length_checked(self):
        with pytest.raises(ValueError, match="entries"):
            _dense(kv_heads_per_layer=(1, 2))

    def test_kv_heads_per_layer_divisibility_checked(self):
        with pytest.raises(ValueError, match="divide"):
            _dense(kv_heads_per_layer=(1, 2, 3, 4))


class TestDerived:
    def test_total_kv_heads_uniform(self):
        assert _dense().total_kv_heads == 4 * 2

    def test_total_kv_heads_per_layer(self):
        cfg = _dense(kv_heads_per_layer=(1, 2, 4, 1))
        assert cfg.total_kv_heads == 8
        assert cfg.kv_heads_at(2) == 4

    def test_kv_heads_at_bounds(self):
        with pytest.raises(IndexError):
            _dense().kv_heads_at(4)

    def test_attention_params_shrink_with_gqa(self):
        gqa = _dense()
        mhsa = _dense(attention_type=AttentionType.MHSA, num_kv_heads=8)
        assert gqa.attention_params_at(0) < mhsa.attention_params_at(0)

    def test_gated_ffn_has_three_matrices(self):
        gated = _dense()
        ungated = _dense(gated_ffn=False)
        assert gated.ffn_params_per_expert == pytest.approx(
            1.5 * ungated.ffn_params_per_expert
        )

    def test_tied_embeddings_halve_embedding_params(self):
        tied = _dense(tied_embeddings=True)
        untied = _dense()
        assert untied.embedding_params == 2 * tied.embedding_params

    def test_moe_total_vs_active_params(self):
        moe = _dense(ffn_type=FFNType.MOE, num_experts=8, experts_per_token=2)
        assert moe.total_params > moe.active_params
        # active FFN weights are 2/8 of total FFN weights
        ffn_total = 4 * 8 * moe.ffn_params_per_expert
        ffn_active = 4 * 2 * moe.ffn_params_per_expert
        assert moe.total_params - moe.active_params == ffn_total - ffn_active

    def test_dense_total_equals_active(self):
        cfg = _dense()
        assert cfg.total_params == cfg.active_params

    def test_total_params_cache_keeps_identity(self):
        """``total_params`` is cached on first read without touching
        equality, hashing or ``dataclasses.replace``."""
        cold, warm = _dense(), _dense()
        walked = sum(warm.layer_params_at(i) for i in range(warm.num_layers))
        assert warm.total_params == walked + warm.embedding_params + warm.hidden_size
        assert warm.total_params is warm.total_params
        assert cold == warm and hash(cold) == hash(warm)
        deeper = replace(warm, num_layers=8)
        assert deeper.total_params == _dense(num_layers=8).total_params
        assert deeper.total_params > warm.total_params
        assert replace(warm, name="copy").total_params == warm.total_params

    def test_uses_gqa_flag(self):
        assert _dense().uses_gqa
        assert not _dense(
            attention_type=AttentionType.MHSA, num_kv_heads=8
        ).uses_gqa


class TestNASVariant:
    def test_with_kv_heads_per_layer(self):
        base = _dense(attention_type=AttentionType.MHSA, num_kv_heads=8)
        variant = base.with_kv_heads_per_layer((1, 2, 4, 2))
        assert variant.name == "test-model-nas"
        assert variant.attention_type is AttentionType.GQA
        assert variant.total_kv_heads == 9

    def test_variant_with_custom_name(self):
        variant = _dense().with_kv_heads_per_layer((1, 1, 1, 1), name="tiny-kv")
        assert variant.name == "tiny-kv"

    def test_variant_reduces_params(self):
        base = _dense(attention_type=AttentionType.MHSA, num_kv_heads=8)
        variant = base.with_kv_heads_per_layer((1, 1, 1, 1))
        assert variant.total_params < base.total_params
