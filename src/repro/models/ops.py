"""Operation-level FLOP and byte accounting for decoder-only transformers.

These counters are the substrate of the analytical performance model: each
transformer module (QKV projections, attention score/value matmuls, output
projection, FFN — dense or MoE — and the LM head) contributes FLOPs (for the
compute roofline leg) and weight/KV bytes (for the memory leg).

Conventions
-----------
* One multiply-accumulate = 2 FLOPs, the convention used by every vendor
  whitepaper cited in the paper's Table II.
* ``tokens`` is the number of *new* tokens processed in the step across the
  whole batch: ``batch * input_len`` for prefill, ``batch`` for one decode
  step.
* Attention score/value FLOPs depend on the *context* each new token attends
  to, supplied separately so prefill (causal, growing context) and decode
  (full cached context) can share the code.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.precision import Precision, precision_spec
from repro.models.config import ModelConfig

__all__ = [
    "OpCounts",
    "linear_flops",
    "attention_linear_flops",
    "attention_context_flops",
    "ffn_flops",
    "lm_head_flops",
    "layer_flops",
    "model_flops",
    "weight_bytes",
    "activation_bytes_per_token",
]


@dataclass(frozen=True)
class OpCounts:
    """FLOPs and memory traffic of one logical operation or phase."""

    flops: float = 0.0
    weight_bytes: float = 0.0
    kv_read_bytes: float = 0.0
    kv_write_bytes: float = 0.0
    activation_bytes: float = 0.0

    def __add__(self, other: "OpCounts") -> "OpCounts":
        return OpCounts(
            flops=self.flops + other.flops,
            weight_bytes=self.weight_bytes + other.weight_bytes,
            kv_read_bytes=self.kv_read_bytes + other.kv_read_bytes,
            kv_write_bytes=self.kv_write_bytes + other.kv_write_bytes,
            activation_bytes=self.activation_bytes + other.activation_bytes,
        )

    def scaled(self, factor: float) -> "OpCounts":
        return OpCounts(
            flops=self.flops * factor,
            weight_bytes=self.weight_bytes * factor,
            kv_read_bytes=self.kv_read_bytes * factor,
            kv_write_bytes=self.kv_write_bytes * factor,
            activation_bytes=self.activation_bytes * factor,
        )


def linear_flops(tokens: int, in_features: int, out_features: int) -> float:
    """FLOPs of a dense layer applied to ``tokens`` row vectors."""
    if tokens < 0 or in_features < 1 or out_features < 1:
        raise ValueError("invalid linear dimensions")
    return 2.0 * tokens * in_features * out_features


def attention_linear_flops(config: ModelConfig, layer: int, tokens: int) -> float:
    """QKV + output projection FLOPs for one layer."""
    kv_dim = config.kv_dim_at(layer)
    q = linear_flops(tokens, config.hidden_size, config.q_dim)
    k = linear_flops(tokens, config.hidden_size, kv_dim)
    v = linear_flops(tokens, config.hidden_size, kv_dim)
    o = linear_flops(tokens, config.q_dim, config.hidden_size)
    return q + k + v + o


def attention_context_flops(
    config: ModelConfig, tokens: int, mean_context: float
) -> float:
    """Score (QK^T) plus value (PV) matmul FLOPs for one layer.

    Each new token's query attends to ``mean_context`` cached positions.
    Both matmuls cost ``2 * q_dim`` FLOPs per (token, position) pair; GQA
    does not reduce these FLOPs (every *query* head still attends), it only
    shrinks KV memory — which is exactly why GQA's win is a memory-bandwidth
    story (paper Section V-1).
    """
    if mean_context < 0:
        raise ValueError(f"mean_context must be >= 0, got {mean_context}")
    per_pair = 2.0 * config.q_dim  # QK^T
    per_pair += 2.0 * config.q_dim  # PV
    return tokens * mean_context * per_pair


def ffn_flops(config: ModelConfig, tokens: int) -> float:
    """FFN FLOPs per layer for ``tokens`` tokens (active experts only)."""
    matrices = 3 if config.gated_ffn else 2
    per_expert = (
        matrices * 2.0 * tokens * config.hidden_size * config.ffn_intermediate_size
    )
    experts = config.experts_per_token if config.is_moe else 1
    return per_expert * experts


def lm_head_flops(config: ModelConfig, tokens: int) -> float:
    """Final vocabulary projection FLOPs.

    During prefill only the last position needs logits, but frameworks
    compute them for all positions when computing perplexity; the perf model
    passes the appropriate ``tokens``.
    """
    return linear_flops(tokens, config.hidden_size, config.vocab_size)


def layer_flops(
    config: ModelConfig, layer: int, tokens: int, mean_context: float
) -> float:
    """All FLOPs of one transformer layer."""
    return (
        attention_linear_flops(config, layer, tokens)
        + attention_context_flops(config, tokens, mean_context)
        + ffn_flops(config, tokens)
    )


def model_flops(
    config: ModelConfig,
    tokens: int,
    mean_context: float,
    include_lm_head_tokens: int | None = None,
) -> float:
    """End-to-end FLOPs of one forward pass over ``tokens`` new tokens.

    ``include_lm_head_tokens`` defaults to ``tokens`` (decode); prefill
    passes 1-per-sequence since only the final position's logits matter.
    """
    total = sum(
        layer_flops(config, layer, tokens, mean_context)
        for layer in range(config.num_layers)
    )
    head_tokens = tokens if include_lm_head_tokens is None else include_lm_head_tokens
    total += lm_head_flops(config, head_tokens)
    return total


def weight_bytes(
    config: ModelConfig,
    precision: Precision | str = Precision.FP16,
    active_only: bool = False,
) -> float:
    """Bytes of model weights (optionally only MoE-active weights).

    ``active_only=True`` gives the per-step weight *traffic* for MoE models:
    each decode step touches only the routed experts, though at large batch
    all experts tend to be hit — callers model that separately.
    """
    spec = precision_spec(precision)
    params = config.active_params if active_only else config.total_params
    return params * spec.bytes_per_element


def activation_bytes_per_token(
    config: ModelConfig, precision: Precision | str = Precision.FP16
) -> float:
    """Approximate DRAM activation traffic per token per forward pass.

    Fused-kernel frameworks keep most intermediates in SRAM; what spills is
    roughly the residual stream entering/leaving each layer plus the FFN
    intermediate once.  This term matters only at very large batch.
    """
    spec = precision_spec(precision)
    per_layer = 4.0 * config.hidden_size + 2.0 * config.ffn_intermediate_size
    return config.num_layers * per_layer * spec.bytes_per_element
