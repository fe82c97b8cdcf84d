"""Roofline primitives: efficiency curves and compute/memory leg times.

The analytical model treats every phase as ``max(compute leg, memory leg)``
plus fixed overheads.  This module supplies:

* ``mfu_at_batch`` — achieved fraction of peak FLOPs as a function of batch
  (tensor cores need large GEMMs to approach peak; the curve saturates at
  the hardware's ``mfu_ceiling`` scaled by the framework's kernel quality);
* ``saturation_penalty`` — the super-linear contention factor that makes
  MI250 throughput *decline* past batch 32 (Fig. 17/35);
* ``compute_time`` / ``memory_time`` / ``roofline_time`` — leg evaluation.
"""

from __future__ import annotations

from repro.hardware.spec import HardwareSpec

__all__ = [
    "mfu_at_batch",
    "saturation_penalty",
    "compute_time",
    "memory_time",
    "roofline_time",
]


def mfu_at_batch(
    spec: HardwareSpec,
    batch_tokens: float,
    kernel_quality: float = 1.0,
) -> float:
    """Achieved fraction of peak FLOPs for a GEMM over ``batch_tokens`` rows.

    A saturating curve ``ceiling * B / (B + B_half)``: one row uses a sliver
    of the tensor pipes, large batches approach the ceiling.  For prefill,
    ``batch_tokens`` is batch x sequence length, which is why prefill runs
    near peak even at batch 1.  ``kernel_quality`` is the framework's
    multiplier (TRT-LLM ~1.0, llama.cpp well below — Section VI-1).
    """
    if batch_tokens <= 0:
        raise ValueError(f"batch_tokens must be positive, got {batch_tokens}")
    if not 0 < kernel_quality <= 1.2:
        raise ValueError(f"kernel_quality out of range: {kernel_quality}")
    curve = batch_tokens / (batch_tokens + spec.mfu_half_batch)
    return min(1.0, spec.mfu_ceiling * kernel_quality) * curve


def saturation_penalty(spec: HardwareSpec, batch_size: int) -> float:
    """Multiplicative slowdown for batches beyond the contention knee.

    Models the MI250 behaviour of Section VI-2: NUMA balancing forces the
    GPU to wait on the memory-management notifier, so beyond a batch size
    the per-step time grows faster than the work does.  Returns >= 1.0.
    """
    if batch_size < 1:
        raise ValueError(f"batch_size must be >= 1, got {batch_size}")
    if spec.saturation_batch is None or batch_size <= spec.saturation_batch:
        return 1.0
    excess = batch_size - spec.saturation_batch
    return 1.0 + spec.saturation_slope * excess


def compute_time(flops: float, peak_flops_per_s: float, mfu: float) -> float:
    """Seconds to execute ``flops`` at ``mfu`` fraction of peak."""
    if flops < 0:
        raise ValueError(f"flops must be >= 0, got {flops}")
    if peak_flops_per_s <= 0 or not 0 < mfu <= 1:
        raise ValueError("need positive peak FLOPs and mfu in (0, 1]")
    return flops / (peak_flops_per_s * mfu)


def memory_time(bytes_moved: float, bandwidth_bytes_s: float) -> float:
    """Seconds to stream ``bytes_moved`` at the given effective bandwidth."""
    if bytes_moved < 0:
        raise ValueError(f"bytes_moved must be >= 0, got {bytes_moved}")
    if bandwidth_bytes_s <= 0:
        raise ValueError("bandwidth must be positive")
    return bytes_moved / bandwidth_bytes_s


def roofline_time(
    flops: float,
    bytes_moved: float,
    peak_flops_per_s: float,
    mfu: float,
    bandwidth_bytes_s: float,
    overlap: float = 1.0,
) -> float:
    """Combined kernel time under partial compute/memory overlap.

    ``overlap=1`` is the ideal roofline ``max(legs)``; ``overlap=0`` is
    fully serialized ``sum(legs)``.  Real kernels sit near 1; frameworks
    with poor pipelining (llama.cpp) sit lower.
    """
    if not 0.0 <= overlap <= 1.0:
        raise ValueError(f"overlap must be in [0, 1], got {overlap}")
    t_compute = compute_time(flops, peak_flops_per_s, mfu)
    t_memory = memory_time(bytes_moved, bandwidth_bytes_s)
    lo, hi = min(t_compute, t_memory), max(t_compute, t_memory)
    # overlap blends between max (hi) and sum (hi + lo).
    return hi + (1.0 - overlap) * lo
