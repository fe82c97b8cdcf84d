"""Performance metrics defined in Section III-5 of the paper.

The paper's five metrics are perplexity, Time to First Token (TTFT),
Inter-Token Latency (ITL, Eq. 1), throughput (Eq. 2) and power.  This module
implements the latency-derived metrics exactly as the paper defines them so
that every benchmark in the suite reports numbers on the same footing.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields

__all__ = [
    "inter_token_latency",
    "throughput_tokens_per_s",
    "perf_per_watt",
    "COMPONENT_FIELDS",
    "CostComponents",
    "component_partition",
    "LatencyBreakdown",
    "InferenceMetrics",
]


def inter_token_latency(
    end_to_end_latency_s: float,
    ttft_s: float,
    batch_size: int,
    output_tokens: int,
) -> float:
    """Inter-Token Latency per Eq. 1 of the paper.

    ``ITL = (E2E latency - TTFT) / (batch_size * (output_tokens - 1))``

    For a single output token the decode phase is empty and ITL is defined
    as 0.0 (the paper measures TTFT in that regime instead).
    """
    if batch_size < 1:
        raise ValueError(f"batch_size must be >= 1, got {batch_size}")
    if output_tokens < 1:
        raise ValueError(f"output_tokens must be >= 1, got {output_tokens}")
    if end_to_end_latency_s < ttft_s:
        raise ValueError(
            "end-to-end latency cannot be smaller than TTFT: "
            f"{end_to_end_latency_s} < {ttft_s}"
        )
    if output_tokens == 1:
        return 0.0
    return (end_to_end_latency_s - ttft_s) / (batch_size * (output_tokens - 1))


def throughput_tokens_per_s(
    batch_size: int,
    input_tokens: int,
    output_tokens: int,
    end_to_end_latency_s: float,
) -> float:
    """Throughput per Eq. 2: total (input + output) tokens per second."""
    if end_to_end_latency_s <= 0.0:
        raise ValueError(f"latency must be positive, got {end_to_end_latency_s}")
    if batch_size < 1:
        raise ValueError(f"batch_size must be >= 1, got {batch_size}")
    if input_tokens < 0 or output_tokens < 0:
        raise ValueError("token counts must be non-negative")
    return batch_size * (input_tokens + output_tokens) / end_to_end_latency_s


def perf_per_watt(throughput_tokens_per_second: float, average_power_w: float) -> float:
    """Performance per watt in tokens/sec/watt (Fig. 16, right panel)."""
    if average_power_w <= 0.0:
        raise ValueError(f"power must be positive, got {average_power_w}")
    if throughput_tokens_per_second < 0.0:
        raise ValueError("throughput must be non-negative")
    return throughput_tokens_per_second / average_power_w


@dataclass(frozen=True)
class LatencyBreakdown:
    """Decomposition of one phase's latency into mechanism buckets.

    Every bucket is in seconds.  ``total`` is not necessarily the sum of the
    parts: compute and memory overlap under the roofline model, so
    ``total >= max(compute, memory)`` but ``total <= compute + memory + ...``.
    """

    compute_s: float = 0.0
    weight_memory_s: float = 0.0
    kv_memory_s: float = 0.0
    activation_memory_s: float = 0.0
    communication_s: float = 0.0
    overhead_s: float = 0.0
    total_s: float = 0.0

    def __post_init__(self) -> None:
        values = (
            self.compute_s,
            self.weight_memory_s,
            self.kv_memory_s,
            self.activation_memory_s,
            self.communication_s,
            self.overhead_s,
            self.total_s,
        )
        # One pass on the hot path: ``min`` catches a negative bucket, the
        # sum a NaN or an infinity.  Only a failure names the bucket.
        if min(values) >= 0.0 and math.isfinite(sum(values)):
            return
        for f, value in zip(fields(self), values):
            if not math.isfinite(value) or value < 0.0:
                raise ValueError(f"{f.name} must be finite and >= 0, got {value}")

    def scaled(self, factor: float) -> "LatencyBreakdown":
        """Return a breakdown with every bucket multiplied by ``factor``."""
        if factor < 0.0:
            raise ValueError(f"factor must be >= 0, got {factor}")
        return LatencyBreakdown(
            compute_s=self.compute_s * factor,
            weight_memory_s=self.weight_memory_s * factor,
            kv_memory_s=self.kv_memory_s * factor,
            activation_memory_s=self.activation_memory_s * factor,
            communication_s=self.communication_s * factor,
            overhead_s=self.overhead_s * factor,
            total_s=self.total_s * factor,
        )

    def __add__(self, other: "LatencyBreakdown") -> "LatencyBreakdown":
        return LatencyBreakdown(
            compute_s=self.compute_s + other.compute_s,
            weight_memory_s=self.weight_memory_s + other.weight_memory_s,
            kv_memory_s=self.kv_memory_s + other.kv_memory_s,
            activation_memory_s=self.activation_memory_s + other.activation_memory_s,
            communication_s=self.communication_s + other.communication_s,
            overhead_s=self.overhead_s + other.overhead_s,
            total_s=self.total_s + other.total_s,
        )


#: Field order of a :class:`CostComponents` partition.  Fixed so every
#: summation over components (``total_s``, the remainder trick in
#: ``component_partition``, renderers, JSON export) associates identically.
COMPONENT_FIELDS = (
    "compute_s",
    "weight_s",
    "kv_s",
    "activation_s",
    "communication_s",
    "overhead_s",
)


def component_partition(bd: LatencyBreakdown) -> tuple[float, ...]:
    """The six :class:`CostComponents` terms of ``bd`` as plain floats, in
    :data:`COMPONENT_FIELDS` order (the partition the class documents)."""
    legs = (
        bd.compute_s,
        bd.weight_memory_s,
        bd.kv_memory_s,
        bd.activation_memory_s,
        bd.communication_s,
        bd.overhead_s,
    )
    total = bd.total_s
    raw = 0.0
    for leg in legs:
        raw += leg
    if total <= 0.0:
        return (0.0,) * len(legs)
    if raw <= 0.0:
        return (0.0,) * (len(legs) - 1) + (total,)
    scale = total / raw
    parts = [leg * scale for leg in legs[:-1]]
    partial = 0.0
    for part in parts:
        partial += part
    parts.append(total - partial)  # overhead absorbs the rounding slack
    return tuple(parts)


@dataclass(frozen=True)
class CostComponents:
    """Exact partition of one step's committed cost into roofline terms.

    Unlike :class:`LatencyBreakdown` — whose buckets are the *raw* leg
    times and whose total reflects compute/memory overlap, MoE grouped-GEMM
    efficiency, pipeline serialization and the saturation penalty — a
    ``CostComponents`` is an attribution: the six terms sum to the step's
    committed cost (to floating-point associativity, far inside the 1e-12
    bar the tests enforce).  The partition is proportional: each raw
    serial leg is scaled by ``total / (sum of raw legs)``, so component
    *ordering* (and therefore the dominant bottleneck) matches the raw
    breakdown exactly, while the overlap slack and multiplicative
    penalties are spread pro-rata instead of being attributed to any one
    mechanism.  The last term is computed as a remainder to force the
    exact sum; it can undershoot its scaled value by an ulp.
    """

    compute_s: float = 0.0
    weight_s: float = 0.0
    kv_s: float = 0.0
    activation_s: float = 0.0
    communication_s: float = 0.0
    overhead_s: float = 0.0

    @classmethod
    def from_breakdown(cls, bd: LatencyBreakdown) -> "CostComponents":
        """Partition ``bd.total_s`` across its raw legs pro-rata."""
        return cls(*component_partition(bd))

    @property
    def total_s(self) -> float:
        """Sum of the six terms in :data:`COMPONENT_FIELDS` order."""
        total = 0.0
        for name in COMPONENT_FIELDS:
            total += getattr(self, name)
        return total

    def fractions(self) -> dict[str, float]:
        """Each term's share of the total (all zeros on an empty partition)."""
        total = self.total_s
        if total <= 0.0:
            return dict.fromkeys(COMPONENT_FIELDS, 0.0)
        return {name: getattr(self, name) / total for name in COMPONENT_FIELDS}

    def as_dict(self) -> dict[str, float]:
        return {name: getattr(self, name) for name in COMPONENT_FIELDS}


@dataclass
class InferenceMetrics:
    """Complete metrics for one (model, hardware, framework, workload) run.

    This is the record type every benchmark produces; it carries the paper's
    reported quantities plus the simulator's internal breakdowns for
    debugging and ablation benches.
    """

    batch_size: int
    input_tokens: int
    output_tokens: int
    ttft_s: float
    end_to_end_latency_s: float
    itl_s: float = field(default=0.0)
    throughput_tokens_per_s: float = field(default=0.0)
    average_power_w: float | None = None
    perf_per_watt: float | None = None
    prefill_breakdown: LatencyBreakdown | None = None
    decode_breakdown: LatencyBreakdown | None = None
    effective_concurrency: float | None = None
    oom: bool = False

    def __post_init__(self) -> None:
        if not self.oom:
            if self.itl_s == 0.0 and self.output_tokens > 1:
                self.itl_s = inter_token_latency(
                    self.end_to_end_latency_s,
                    self.ttft_s,
                    self.batch_size,
                    self.output_tokens,
                )
            if self.throughput_tokens_per_s == 0.0:
                self.throughput_tokens_per_s = throughput_tokens_per_s(
                    self.batch_size,
                    self.input_tokens,
                    self.output_tokens,
                    self.end_to_end_latency_s,
                )
            if self.average_power_w is not None and self.perf_per_watt is None:
                self.perf_per_watt = perf_per_watt(
                    self.throughput_tokens_per_s, self.average_power_w
                )

    @classmethod
    def out_of_memory(
        cls, batch_size: int, input_tokens: int, output_tokens: int
    ) -> "InferenceMetrics":
        """Sentinel record for configurations that OOM (Gaudi2 at bs>=32)."""
        return cls(
            batch_size=batch_size,
            input_tokens=input_tokens,
            output_tokens=output_tokens,
            ttft_s=0.0,
            end_to_end_latency_s=float("inf"),
            itl_s=float("inf"),
            throughput_tokens_per_s=0.0,
            oom=True,
        )
