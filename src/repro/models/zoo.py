"""Model registry reproducing the paper's Table I plus the extra ~7B zoo.

The eight primary models come verbatim from Table I ("LLaMA Model Family
Summary").  The additional ~7B-class models (DeciLM-7B, GPT-J-6B, OPT-6.7B,
Gemma-7B, Qwen1.5-7B, Aquila-7B, Bloom-7.1B, LLaMA-7B) appear in the
perplexity-vs-throughput studies (Fig. 10 and Fig. 29), and LLaMA-68M is the
speculative-decoding draft model (Fig. 4b).
"""

from __future__ import annotations

from repro.core import UnknownNameError
from repro.models.config import AttentionType, FFNType, ModelConfig

__all__ = [
    "MODEL_ZOO",
    "PRIMARY_MODELS",
    "SEVEN_B_MODELS",
    "SEVENTY_B_MODELS",
    "PERPLEXITY_ZOO",
    "get_model",
    "list_models",
    "register_model",
]


def _dense(
    name: str,
    layers: int,
    hidden: int,
    attn: AttentionType,
    heads: int,
    kv_heads: int,
    inter: int,
    max_seq: int,
    vocab: int,
    **kwargs: object,
) -> ModelConfig:
    return ModelConfig(
        name=name,
        num_layers=layers,
        hidden_size=hidden,
        attention_type=attn,
        num_attention_heads=heads,
        num_kv_heads=kv_heads,
        ffn_type=FFNType.DENSE,
        num_experts=1,
        ffn_intermediate_size=inter,
        max_sequence_length=max_seq,
        vocab_size=vocab,
        **kwargs,  # type: ignore[arg-type]
    )


# DeciLM-7B's NAS-searched per-layer KV head counts.  The paper reports 67
# KV heads total across 32 layers drawn from the pool {1, 2, 4}; this tuple
# realizes that budget (7x1 + 20x2 + 5x4 = 67) with more KV capacity in the
# middle of the network, matching the published DeciLM pattern of cheap
# early/late layers.
DECILM_KV_HEADS: tuple[int, ...] = (
    1, 1, 2, 2, 2, 2, 2, 2,
    2, 4, 4, 2, 2, 4, 2, 2,
    2, 2, 4, 2, 2, 4, 2, 2,
    2, 2, 2, 1, 1, 1, 1, 1,
)
assert sum(DECILM_KV_HEADS) == 67, "DeciLM KV budget must match the paper"


MODEL_ZOO: dict[str, ModelConfig] = {}


def register_model(config: ModelConfig) -> ModelConfig:
    """Add a model to the global registry (used by the NAS subsystem too)."""
    key = config.name.lower()
    if key in MODEL_ZOO:
        raise ValueError(f"model {config.name!r} already registered")
    MODEL_ZOO[key] = config
    return config


# ----------------------------------------------------------------------
# Table I: the eight primary models
# ----------------------------------------------------------------------

LLAMA_2_7B = register_model(
    _dense("LLaMA-2-7B", 32, 4096, AttentionType.MHSA, 32, 32, 11008, 4096, 32000)
)
LLAMA_3_8B = register_model(
    _dense("LLaMA-3-8B", 32, 4096, AttentionType.GQA, 32, 8, 14336, 8192, 128256)
)
MISTRAL_7B = register_model(
    _dense("Mistral-7B", 32, 4096, AttentionType.GQA, 32, 8, 14336, 32768, 32000)
)
QWEN_2_7B = register_model(
    _dense("Qwen2-7B", 28, 3584, AttentionType.GQA, 28, 4, 18944, 131072, 152064)
)
LLAMA_2_70B = register_model(
    _dense("LLaMA-2-70B", 80, 8192, AttentionType.GQA, 64, 8, 28672, 4096, 32000)
)
LLAMA_3_70B = register_model(
    _dense("LLaMA-3-70B", 80, 8192, AttentionType.GQA, 64, 8, 28672, 8192, 128256)
)
QWEN_2_72B = register_model(
    _dense("Qwen2-72B", 80, 8192, AttentionType.GQA, 64, 8, 29568, 131072, 152064)
)
MIXTRAL_8X7B = register_model(
    ModelConfig(
        name="Mixtral-8x7B",
        num_layers=32,
        hidden_size=4096,
        attention_type=AttentionType.GQA,
        num_attention_heads=32,
        num_kv_heads=8,
        ffn_type=FFNType.MOE,
        num_experts=8,
        experts_per_token=2,
        ffn_intermediate_size=14336,
        max_sequence_length=32768,
        vocab_size=32000,
    )
)

# ----------------------------------------------------------------------
# Extra ~7B zoo for the perplexity/throughput studies (Fig. 10, Fig. 29)
# ----------------------------------------------------------------------

DECILM_7B = register_model(
    _dense(
        "DeciLM-7B",
        32,
        4096,
        AttentionType.GQA,
        32,
        4,
        11008,
        8192,
        32000,
        kv_heads_per_layer=DECILM_KV_HEADS,
    )
)
LLAMA_7B = register_model(
    _dense("LLaMA-7B", 32, 4096, AttentionType.MHSA, 32, 32, 11008, 2048, 32000)
)
GPT_J_6B = register_model(
    _dense(
        "GPT-J-6B",
        28,
        4096,
        AttentionType.MHSA,
        16,
        16,
        16384,
        2048,
        50400,
        gated_ffn=False,
    )
)
OPT_6_7B = register_model(
    _dense(
        "OPT-6.7B",
        32,
        4096,
        AttentionType.MHSA,
        32,
        32,
        16384,
        2048,
        50272,
        gated_ffn=False,
        tied_embeddings=True,
    )
)
GEMMA_7B = register_model(
    _dense(
        "Gemma-7B",
        28,
        3072,
        AttentionType.MHSA,
        16,
        16,
        24576,
        8192,
        256000,
        head_dim=256,
        tied_embeddings=True,
    )
)
QWEN_1_5_7B = register_model(
    _dense("Qwen1.5-7B", 32, 4096, AttentionType.MHSA, 32, 32, 11008, 32768, 151936)
)
AQUILA_7B = register_model(
    _dense("Aquila-7B", 32, 4096, AttentionType.MHSA, 32, 32, 11008, 2048, 100008)
)
BLOOM_7B = register_model(
    _dense(
        "Bloom-7.1B",
        30,
        4096,
        AttentionType.MHSA,
        32,
        32,
        16384,
        2048,
        250880,
        gated_ffn=False,
        tied_embeddings=True,
    )
)

# Speculative-decoding draft model (Fig. 4b)
LLAMA_68M = register_model(
    _dense("LLaMA-68M", 2, 768, AttentionType.MHSA, 12, 12, 3072, 2048, 32000)
)

# Appendix A-1's second MoE example: Qwen2-57B-A14B (64 routed experts,
# top-8, plus a large shared expert).  The shared expert is folded into a
# higher effective experts-per-token (12) so active parameters land at the
# published ~14B without a dedicated shared-expert code path.
QWEN_2_57B_A14B = register_model(
    ModelConfig(
        name="Qwen2-57B-A14B",
        num_layers=28,
        hidden_size=3584,
        attention_type=AttentionType.GQA,
        num_attention_heads=28,
        num_kv_heads=4,
        ffn_type=FFNType.MOE,
        num_experts=64,
        experts_per_token=12,
        ffn_intermediate_size=2880,
        max_sequence_length=65536,
        vocab_size=151936,
    )
)

PRIMARY_MODELS: tuple[str, ...] = (
    "LLaMA-2-7B",
    "LLaMA-3-8B",
    "Mistral-7B",
    "Qwen2-7B",
    "LLaMA-2-70B",
    "LLaMA-3-70B",
    "Qwen2-72B",
    "Mixtral-8x7B",
)
SEVEN_B_MODELS: tuple[str, ...] = ("LLaMA-2-7B", "LLaMA-3-8B", "Mistral-7B", "Qwen2-7B")
SEVENTY_B_MODELS: tuple[str, ...] = ("LLaMA-2-70B", "LLaMA-3-70B", "Qwen2-72B")
PERPLEXITY_ZOO: tuple[str, ...] = (
    "LLaMA-2-7B",
    "LLaMA-3-8B",
    "Mistral-7B",
    "DeciLM-7B",
    "LLaMA-7B",
    "GPT-J-6B",
    "OPT-6.7B",
    "Gemma-7B",
    "Qwen1.5-7B",
    "Aquila-7B",
    "Bloom-7.1B",
)


def get_model(name: str) -> ModelConfig:
    """Case-insensitive registry lookup with a helpful error."""
    key = name.lower()
    if key not in MODEL_ZOO:
        known = ", ".join(sorted(MODEL_ZOO))
        raise UnknownNameError(f"unknown model {name!r}; known models: {known}")
    return MODEL_ZOO[key]


def list_models() -> list[str]:
    """Registered model names in registration order."""
    return [cfg.name for cfg in MODEL_ZOO.values()]
