"""Tests for the calibrated quality (perplexity) model."""

import math

import pytest

from repro.core.precision import Precision
from repro.models.quality import (
    QualityModel,
    estimate_loss,
    estimate_perplexity,
    quantization_perplexity_factor,
)
from repro.models.zoo import get_model


class TestPaperOrderings:
    """Fig. 10 / Fig. 29 orderings the paper reports."""

    def test_llama2_beats_llama3_perplexity(self):
        """Paper: 'LLaMA-2-7B has better perplexity than LLaMA-3-8B'."""
        assert estimate_perplexity(get_model("LLaMA-2-7B")) < estimate_perplexity(
            get_model("LLaMA-3-8B")
        )

    def test_mistral_gap_is_small(self):
        """Paper: Mistral-7B is ~0.09 perplexity above LLaMA-2-7B."""
        gap = estimate_perplexity(get_model("Mistral-7B")) - estimate_perplexity(
            get_model("LLaMA-2-7B")
        )
        assert 0.0 < gap < 0.25

    def test_legacy_models_are_worse(self):
        llama2 = estimate_perplexity(get_model("LLaMA-2-7B"))
        for name in ("OPT-6.7B", "GPT-J-6B", "Bloom-7.1B"):
            assert estimate_perplexity(get_model(name)) > llama2

    def test_draft_model_is_far_worse(self):
        assert estimate_perplexity(get_model("LLaMA-68M")) > 2 * estimate_perplexity(
            get_model("LLaMA-2-7B")
        )

    def test_all_perplexities_reasonable(self):
        """Every zoo model lands in a plausible LongBench range."""
        for name in ("LLaMA-2-7B", "Mistral-7B", "Qwen2-7B", "Gemma-7B"):
            ppl = estimate_perplexity(get_model(name))
            assert 4.0 < ppl < 15.0


class TestMechanisms:
    def test_more_training_tokens_lower_loss(self):
        model = get_model("LLaMA-2-7B")
        assert estimate_loss(model, 10e12) < estimate_loss(model, 1e12)

    def test_vocab_penalty(self):
        """Same architecture except vocabulary: bigger vocab, higher loss."""
        mistral = get_model("Mistral-7B")  # 32K vocab
        llama3 = get_model("LLaMA-3-8B")  # 128K vocab
        # Control the data term so only architecture differs.
        assert estimate_loss(llama3, 8e12) > estimate_loss(mistral, 8e12)

    def test_gqa_penalty(self):
        """MHSA improves validation quality (paper Section V-2)."""
        llama2 = get_model("LLaMA-2-7B")  # MHSA
        mistral = get_model("Mistral-7B")  # GQA, same vocab/hidden
        assert estimate_loss(mistral, 2e12) > estimate_loss(llama2, 2e12)

    def test_rejects_nonpositive_tokens(self):
        with pytest.raises(ValueError):
            estimate_loss(get_model("LLaMA-2-7B"), 0.0)

    def test_perplexity_is_exp_loss(self):
        model = get_model("LLaMA-2-7B")
        assert estimate_perplexity(model) == pytest.approx(
            math.exp(estimate_loss(model))
        )


class TestQuantizationDegradation:
    def test_16_bit_is_reference(self):
        assert quantization_perplexity_factor(Precision.FP16) == 1.0
        assert quantization_perplexity_factor(Precision.BF16) == 1.0
        assert quantization_perplexity_factor(Precision.FP32) == 1.0

    def test_8_bit_degrades_under_one_percent(self):
        """Paper: FP8/INT8 'without compromising the output quality'."""
        assert 1.0 < quantization_perplexity_factor(Precision.FP8) < 1.01
        assert 1.0 < quantization_perplexity_factor(Precision.INT8) < 1.01

    def test_int4_degrades_more(self):
        assert quantization_perplexity_factor(Precision.INT4) > (
            quantization_perplexity_factor(Precision.INT8)
        )


class TestQualityModelWrapper:
    def test_bound_properties(self):
        qm = QualityModel(get_model("LLaMA-2-7B"))
        assert qm.perplexity == pytest.approx(math.exp(qm.loss))

    def test_training_tokens_override(self):
        base = QualityModel(get_model("LLaMA-2-7B"))
        more_data = QualityModel(get_model("LLaMA-2-7B"), training_tokens=20e12)
        assert more_data.perplexity < base.perplexity
