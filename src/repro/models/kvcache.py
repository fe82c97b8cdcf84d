"""KV-cache sizing (paper Section IV-B1/B2).

The KV cache stores, per token and per layer, one key and one value vector
of ``kv_heads * head_dim`` elements.  GQA models therefore carry
``num_attention_heads / num_kv_heads`` times less cache than MHSA models —
the central mechanism behind most of the paper's model-ordering results.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.precision import Precision, precision_spec
from repro.models.config import ModelConfig

__all__ = ["KVCacheSpec", "kv_bytes_per_token", "kv_bytes_for_sequence"]


def kv_bytes_per_token(
    config: ModelConfig, precision: Precision | str = Precision.FP16
) -> float:
    """KV-cache bytes added per token across all layers (2 = K and V)."""
    spec = precision_spec(precision)
    assert config.head_dim is not None
    elements = 2 * config.head_dim * config.total_kv_heads
    return elements * spec.bytes_per_element


def kv_bytes_for_sequence(
    config: ModelConfig,
    context_length: int,
    precision: Precision | str = Precision.FP16,
) -> float:
    """Total KV-cache bytes for one sequence at a given context length."""
    if context_length < 0:
        raise ValueError(f"context_length must be >= 0, got {context_length}")
    return context_length * kv_bytes_per_token(config, precision)


@dataclass(frozen=True)
class KVCacheSpec:
    """KV-cache configuration for a model deployment.

    ``enabled=False`` models the recompute regime of Fig. 2a: without a
    cache, every decode step re-runs attention projections over the whole
    context.  ``paged`` + ``block_size`` model vLLM's PagedAttention
    (Fig. 2b): memory is allocated in fixed blocks of ``block_size`` tokens;
    small blocks add per-block lookup overhead, huge blocks waste capacity
    to internal fragmentation.
    """

    enabled: bool = True
    paged: bool = True
    block_size: int = 16
    precision: Precision = Precision.FP16

    def __post_init__(self) -> None:
        if self.block_size < 1:
            raise ValueError(f"block_size must be >= 1, got {self.block_size}")

    def blocks_for(self, context_length: int) -> int:
        """Blocks needed to hold a context (ceiling division)."""
        if context_length < 0:
            raise ValueError("context_length must be >= 0")
        return -(-context_length // self.block_size)

    def allocated_tokens(self, context_length: int, max_context: int) -> int:
        """Token capacity actually reserved for a sequence.

        Paged allocation reserves whole blocks as the context grows;
        contiguous (non-paged) allocation must reserve the *maximum* context
        up front — the mechanism behind Gaudi2's early OOMs (Section VI-4).
        """
        if self.paged:
            return self.blocks_for(context_length) * self.block_size
        return max_context
