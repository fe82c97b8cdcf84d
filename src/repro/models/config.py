"""LLM architecture configuration (the paper's Table I schema).

A :class:`ModelConfig` carries exactly the hyperparameters Table I reports —
hidden layers, hidden size, attention type and head counts, FFN type and
expert counts, intermediate size, maximum sequence length, and vocabulary
size — plus derived quantities (parameter counts, active parameters for MoE)
that the performance model consumes.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from functools import cached_property

__all__ = ["AttentionType", "FFNType", "ModelConfig"]


class AttentionType(str, enum.Enum):
    """Attention operator family (paper Section II-A / Appendix A-B)."""

    MHSA = "mhsa"  # each head has unique K/V (LLaMA-2-7B)
    GQA = "gqa"  # query heads grouped over shared K/V heads

    def __str__(self) -> str:  # pragma: no cover - trivial
        return self.value


class FFNType(str, enum.Enum):
    """Feed-forward family: dense MLP or mixture-of-experts."""

    DENSE = "dense"
    MOE = "moe"

    def __str__(self) -> str:  # pragma: no cover - trivial
        return self.value


@dataclass(frozen=True)
class ModelConfig:
    """Architecture description of a decoder-only transformer LLM.

    All models in the paper use gated (SwiGLU-style) FFNs with three weight
    matrices, rotary position embeddings, RMSNorm, and untied embeddings for
    the 7B+ class; ``gated_ffn`` / ``tied_embeddings`` let the extra zoo
    models (GPT-J, OPT, Bloom, ...) deviate.
    """

    name: str
    num_layers: int
    hidden_size: int
    attention_type: AttentionType
    num_attention_heads: int
    num_kv_heads: int
    ffn_type: FFNType
    num_experts: int
    ffn_intermediate_size: int
    max_sequence_length: int
    vocab_size: int
    experts_per_token: int = 2  # active experts per token for MoE (Mixtral: 2)
    head_dim: int | None = None
    gated_ffn: bool = True
    tied_embeddings: bool = False
    # Per-layer KV head override for NAS-searched models (DeciLM-7B): maps
    # layer index -> kv head count; None means uniform ``num_kv_heads``.
    kv_heads_per_layer: tuple[int, ...] | None = None

    def __post_init__(self) -> None:
        if self.num_layers < 1:
            raise ValueError(f"num_layers must be >= 1, got {self.num_layers}")
        if self.hidden_size < 1:
            raise ValueError(f"hidden_size must be >= 1, got {self.hidden_size}")
        if self.num_attention_heads < 1:
            raise ValueError("num_attention_heads must be >= 1")
        if self.num_kv_heads < 1:
            raise ValueError("num_kv_heads must be >= 1")
        if self.num_attention_heads % self.num_kv_heads != 0:
            raise ValueError(
                f"{self.name}: attention heads ({self.num_attention_heads}) must "
                f"be divisible by KV heads ({self.num_kv_heads})"
            )
        if self.attention_type is AttentionType.MHSA:
            if self.num_kv_heads != self.num_attention_heads:
                raise ValueError(
                    f"{self.name}: MHSA requires num_kv_heads == num_attention_heads"
                )
        if self.ffn_type is FFNType.DENSE and self.num_experts != 1:
            raise ValueError(f"{self.name}: dense FFN must have exactly 1 expert")
        if self.ffn_type is FFNType.MOE and self.num_experts < 2:
            raise ValueError(f"{self.name}: MoE needs >= 2 experts")
        if self.ffn_type is FFNType.MOE and self.experts_per_token > self.num_experts:
            raise ValueError(
                f"{self.name}: experts_per_token ({self.experts_per_token}) "
                f"exceeds num_experts ({self.num_experts})"
            )
        if self.experts_per_token < 1:
            raise ValueError(f"{self.name}: experts_per_token must be >= 1")
        if self.head_dim is None:
            if self.hidden_size % self.num_attention_heads != 0:
                raise ValueError(
                    f"{self.name}: hidden_size not divisible by attention heads; "
                    "pass head_dim explicitly"
                )
            object.__setattr__(
                self, "head_dim", self.hidden_size // self.num_attention_heads
            )
        if self.kv_heads_per_layer is not None:
            if len(self.kv_heads_per_layer) != self.num_layers:
                raise ValueError(
                    f"{self.name}: kv_heads_per_layer has "
                    f"{len(self.kv_heads_per_layer)} entries for "
                    f"{self.num_layers} layers"
                )
            for i, kv in enumerate(self.kv_heads_per_layer):
                if kv < 1 or self.num_attention_heads % kv != 0:
                    raise ValueError(
                        f"{self.name}: layer {i} kv heads ({kv}) must divide "
                        f"attention heads ({self.num_attention_heads})"
                    )

    # ------------------------------------------------------------------
    # Derived per-layer quantities
    # ------------------------------------------------------------------

    def kv_heads_at(self, layer: int) -> int:
        """KV head count of a specific layer (honours NAS overrides)."""
        if not 0 <= layer < self.num_layers:
            raise IndexError(f"layer {layer} out of range for {self.name}")
        if self.kv_heads_per_layer is not None:
            return self.kv_heads_per_layer[layer]
        return self.num_kv_heads

    @property
    def total_kv_heads(self) -> int:
        """Sum of KV heads over all layers (paper: LLaMA-3-8B has 256)."""
        return sum(self.kv_heads_at(layer) for layer in range(self.num_layers))

    @property
    def q_dim(self) -> int:
        assert self.head_dim is not None
        return self.num_attention_heads * self.head_dim

    def kv_dim_at(self, layer: int) -> int:
        assert self.head_dim is not None
        return self.kv_heads_at(layer) * self.head_dim

    # ------------------------------------------------------------------
    # Parameter counts
    # ------------------------------------------------------------------

    def attention_params_at(self, layer: int) -> int:
        """Attention weights in one layer: Wq, Wk, Wv, Wo."""
        kv_dim = self.kv_dim_at(layer)
        wq = self.hidden_size * self.q_dim
        wk = self.hidden_size * kv_dim
        wv = self.hidden_size * kv_dim
        wo = self.q_dim * self.hidden_size
        return wq + wk + wv + wo

    @property
    def ffn_params_per_expert(self) -> int:
        """Weights in one FFN expert (3 matrices when gated, else 2)."""
        matrices = 3 if self.gated_ffn else 2
        return matrices * self.hidden_size * self.ffn_intermediate_size

    def layer_params_at(self, layer: int) -> int:
        """All weights in one transformer layer (attention + FFN + norms)."""
        norms = 2 * self.hidden_size
        return (
            self.attention_params_at(layer)
            + self.num_experts * self.ffn_params_per_expert
            + norms
        )

    @property
    def embedding_params(self) -> int:
        """Token embedding table (and untied LM head if present)."""
        table = self.vocab_size * self.hidden_size
        return table if self.tied_embeddings else 2 * table

    @cached_property
    def total_params(self) -> int:
        """All weights stored in memory (MoE counts every expert).

        Cached on first read: the count walks every layer, and the
        dataclass is frozen, so the value never goes stale."""
        layers = sum(self.layer_params_at(i) for i in range(self.num_layers))
        final_norm = self.hidden_size
        return layers + self.embedding_params + final_norm

    @property
    def active_params(self) -> int:
        """Weights touched per generated token.

        For MoE models only ``experts_per_token`` experts run per token, so
        Mixtral-8x7B behaves like a ~14B dense model (paper Section V-1).
        """
        active_experts = self.experts_per_token if self.is_moe else 1
        active_layers = 0
        for layer in range(self.num_layers):
            norms = 2 * self.hidden_size
            active_layers += (
                self.attention_params_at(layer)
                + active_experts * self.ffn_params_per_expert
                + norms
            )
        return active_layers + self.embedding_params + self.hidden_size

    @property
    def is_moe(self) -> bool:
        return self.ffn_type is FFNType.MOE

    @property
    def uses_gqa(self) -> bool:
        return self.attention_type is AttentionType.GQA

    def with_kv_heads_per_layer(
        self, kv_heads_per_layer: tuple[int, ...], name: str | None = None
    ) -> "ModelConfig":
        """Derive a NAS variant with per-layer KV head counts."""
        from dataclasses import replace

        return replace(
            self,
            name=name or f"{self.name}-nas",
            kv_heads_per_layer=tuple(kv_heads_per_layer),
            attention_type=AttentionType.GQA
            if any(kv < self.num_attention_heads for kv in kv_heads_per_layer)
            else self.attention_type,
            num_kv_heads=kv_heads_per_layer[0],
        )
