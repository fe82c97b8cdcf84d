"""Speculative-decoding performance model (paper Section IV-B5, Fig. 4b).

A draft model proposes ``gamma`` tokens per iteration; the target model
verifies them in a single forward pass.  Expected tokens accepted per
iteration with per-token acceptance probability ``a`` is the truncated
geometric sum ``(1 - a^(gamma+1)) / (1 - a)`` (Leviathan et al.).

Two mechanisms make the paper's observed behaviour emerge:

* **acceptance decays with context length** — a 68M draft cannot track a
  long context, so the benefit "vanishes with an increase in sequence
  length";
* **MoE verification is expensive** — verifying ``gamma`` tokens routes
  each to its own experts, so the verify pass streams ~``gamma``x more
  expert weights than a single decode step (``moe_expected_active_experts``
  grows with tokens), which is why SD "improves the performance of only
  the 7B model" and not Mixtral-8x7B.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.core.request import GenerationConfig
from repro.models.config import ModelConfig
from repro.models.quality import estimate_loss
from repro.perf.phases import (
    Deployment,
    decode_step_cost,
    forward_flops,
    step_weight_bytes,
)

__all__ = [
    "SpeculativeConfig",
    "acceptance_rate",
    "expected_tokens_per_iteration",
    "speculative_speedup",
]

# Acceptance-model calibration: token-level agreement between draft and
# target decays with their quality gap and with context length.
_QUALITY_DECAY = 0.45
_CONTEXT_DECAY_TOKENS = 4096.0
_MAX_ACCEPTANCE = 0.95


@dataclass(frozen=True)
class SpeculativeConfig:
    """Draft-model setup: who drafts and how many tokens per iteration."""

    draft_model: ModelConfig
    gamma: int = 4  # draft tokens proposed per iteration

    def __post_init__(self) -> None:
        if self.gamma < 1:
            raise ValueError(f"gamma must be >= 1, got {self.gamma}")


def acceptance_rate(
    target: ModelConfig, draft: ModelConfig, context_length: int
) -> float:
    """Per-token probability the target accepts a draft token."""
    if context_length < 1:
        raise ValueError("context_length must be >= 1")
    gap = max(0.0, estimate_loss(draft) - estimate_loss(target))
    base = _MAX_ACCEPTANCE * math.exp(-_QUALITY_DECAY * gap)
    context_factor = math.exp(-context_length / _CONTEXT_DECAY_TOKENS)
    # Even at long context some easy tokens (punctuation, copying) accept.
    return max(0.05, base * (0.35 + 0.65 * context_factor))


def expected_tokens_per_iteration(a: float, gamma: int) -> float:
    """Expected tokens produced per draft-verify iteration (>= 1)."""
    if not 0.0 <= a < 1.0:
        if a == 1.0:
            return float(gamma + 1)
        raise ValueError(f"acceptance must be in [0, 1], got {a}")
    return (1.0 - a ** (gamma + 1)) / (1.0 - a)


def _verify_step_seconds(
    dep: Deployment, batch_size: int, context_length: int, gamma: int
) -> float:
    """Target forward over ``gamma + 1`` positions per sequence.

    Approximated by scaling a decode step's compute/weight legs: the KV
    read happens once, but the token-parallel work (GEMMs, expert weight
    traffic for MoE) covers ``gamma + 1`` positions.
    """
    base = decode_step_cost(dep, batch_size, context_length).breakdown
    tokens = batch_size * (gamma + 1)
    # Recompute the token-scaled legs.
    flops_scale = (
        forward_flops(dep.model, tokens, float(context_length), tokens)
        / forward_flops(dep.model, batch_size, float(context_length), batch_size)
    )
    weight_scale = step_weight_bytes(dep, tokens) / step_weight_bytes(
        dep, batch_size
    )
    verify = (
        base.compute_s * flops_scale
        + base.weight_memory_s * weight_scale
        + base.kv_memory_s
        + base.activation_memory_s * (gamma + 1)
        + base.communication_s
        + base.overhead_s
    )
    return verify


def speculative_speedup(
    target_dep: Deployment,
    spec: SpeculativeConfig,
    config: GenerationConfig,
) -> float:
    """Decode-phase speedup of speculative decoding over plain decoding.

    Values > 1 mean SD helps.  Fig. 4b's pattern: gains for LLaMA-2-7B at
    short sequences, shrinking with length; no gain for Mixtral-8x7B.
    """
    if not target_dep.framework.supports_speculative_decoding:
        raise ValueError(
            f"{target_dep.framework.name} does not implement speculative decoding"
        )
    batch = config.batch_size
    mean_ctx = config.midpoint_context
    draft_dep = Deployment(
        model=spec.draft_model,
        hardware=target_dep.hardware,
        framework=target_dep.framework,
        plan=target_dep.plan,
        quant=target_dep.quant,
        kv_spec=target_dep.kv_spec,
    )

    t_target = decode_step_cost(target_dep, batch, mean_ctx).breakdown.total_s
    t_draft = decode_step_cost(draft_dep, batch, mean_ctx).breakdown.total_s
    t_verify = _verify_step_seconds(target_dep, batch, mean_ctx, spec.gamma)

    a = acceptance_rate(target_dep.model, spec.draft_model, mean_ctx)
    tokens_per_iter = expected_tokens_per_iteration(a, spec.gamma)
    iteration = spec.gamma * t_draft + t_verify
    return tokens_per_iter * t_target / iteration
