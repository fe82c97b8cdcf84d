"""Inference-framework profiles.

A :class:`FrameworkProfile` captures what distinguishes vLLM, TensorRT-LLM,
DeepSpeed-MII and llama.cpp in the paper's measurements: kernel quality
(fraction of the hardware's ceiling the framework's kernels reach), memory
management (paged vs contiguous KV), batching policy (continuous vs static),
attention-kernel GQA awareness, and multi-GPU execution style.

These are *behavioural profiles*, not reimplementations of the frameworks:
the serving engine (:mod:`repro.runtime.engine`) and the analytical
estimator (:mod:`repro.perf.estimator`) consume them to produce the
framework-specific performance the paper reports.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, replace

from repro.core import UnknownNameError
from repro.core.precision import Precision

__all__ = [
    "MultiGpuStyle",
    "FrameworkProfile",
    "FRAMEWORK_REGISTRY",
    "register_framework",
    "get_framework",
    "list_frameworks",
]


class MultiGpuStyle(str, enum.Enum):
    """How a framework spreads a model over multiple devices.

    ``TENSOR_PARALLEL`` shards every GEMM and all-reduces activations
    (vLLM, TRT-LLM, DS-MII).  ``LAYER_SPLIT`` assigns whole layers to
    devices and runs them *serially* for a single batch — llama.cpp's
    default "split by layer" mode, which is why the paper observes only
    marginal gains from more GPUs (Fig. 13/14: "suffers from device
    scaling ... due to the inability to fully utilize parallelism").
    """

    TENSOR_PARALLEL = "tensor-parallel"
    LAYER_SPLIT = "layer-split"


@dataclass(frozen=True)
class FrameworkProfile:
    """Behavioural description of one inference framework."""

    name: str
    supported_hardware: frozenset[str]
    # Fraction of the hardware's MFU ceiling this framework's GEMM/attention
    # kernels reach (TRT-LLM ~1.0 on Nvidia; llama.cpp far below).
    kernel_quality: float = 1.0
    # Fraction of the hardware's achievable bandwidth the framework's
    # memory-bound kernels sustain.
    bandwidth_quality: float = 1.0
    # Compute/memory overlap quality (1 = ideal roofline max()).
    overlap: float = 0.92
    # Multiplier on KV-cache read traffic for GQA models.  1.0 = the kernels
    # fully exploit shared KV heads; >1 models frameworks whose attention
    # kernels replicate/gather KV per query-head group (llama.cpp, DS-MII —
    # the paper's "do not support model-wise optimizations well").
    gqa_kv_penalty: float = 1.0
    # KV allocation: paged (vLLM PagedAttention / TRT-LLM paged KV /
    # DS-MII blocked KV) vs contiguous max-length reservation.
    paged_kv: bool = True
    kv_block_size: int = 16
    # Scheduler: continuous (in-flight) batching vs static batches.
    continuous_batching: bool = True
    # Chunked prefill (vLLM's chunked prefill / DS-MII's Dynamic SplitFuse
    # / TRT-LLM's in-flight batching): long prompts are processed in
    # chunks interleaved with decode steps, so running streams do not
    # stall behind a new request's prefill.
    chunked_prefill: bool = False
    prefill_chunk_tokens: int = 2048
    multi_gpu_style: MultiGpuStyle = MultiGpuStyle.TENSOR_PARALLEL
    # Efficiency of the framework's collective implementation (multiplies
    # communication time; <1.0 is better than the plain ring model, >1.0
    # adds software overhead on top of it).
    comm_overhead_factor: float = 1.0
    # Extra kernel quality unlocked at very large batch x sequence work
    # (DS-MII's Dynamic SplitFuse, Section V-3).  Effective kernel quality
    # is ``kernel_quality * (1 + large_batch_bonus * tokens/(tokens+4096))``.
    large_batch_bonus: float = 0.0
    # Fixed scheduler/host overhead multiplier on the hardware step overhead.
    host_overhead_factor: float = 1.0
    # Absolute host-side latency added to every forward pass (Python
    # scheduler loops, sampling, detokenization).  Dominates nothing at
    # large batch but caps single-sequence decode rates, which is why
    # measured bs=1 throughput sits well below the bandwidth roofline.
    host_step_latency_s: float = 0.0
    # Memory overhead of the runtime itself (activation buffers, graph
    # workspaces, allocator slack) as a multiplier on resident weight bytes
    # in *capacity* accounting only.  llama.cpp's up-front context buffers
    # make it the heaviest; this is what excludes 70B-on-A100 for it
    # (Fig. 32) while vLLM squeezes in with a tiny KV budget.
    memory_overhead_factor: float = 1.05
    # Relative efficiency of the framework's MoE (grouped/fused expert)
    # kernels; 1.0 = as good as its dense path.  vLLM's 2024-era fused-MoE
    # kernels trailed DeepSpeed's, the mechanism behind DS-MII overtaking
    # vLLM on Mixtral at scale (Fig. 12).
    moe_efficiency: float = 1.0
    # Token-sampling cost in nanoseconds per vocabulary entry per sequence
    # per step.  GPU-side samplers make this negligible; llama.cpp samples
    # on the host over the full logit vector, so large-vocabulary models
    # (Qwen2-7B: 152K, LLaMA-3: 128K) pay heavily — the paper's "Qwen2-7B
    # ... has the least performance using llama.cpp" (Fig. 36) and the
    # Mistral-over-LLaMA-3 ordering under llama.cpp (Fig. 14).
    sampling_ns_per_vocab_token: float = 0.05
    # Weight/KV precisions the framework can execute.
    supported_precisions: frozenset[Precision] = frozenset(
        {Precision.FP16, Precision.BF16}
    )
    # How hard the framework drives the device; multiplies roofline
    # utilization in the power model (TRT-LLM draws more power, Fig. 16).
    power_intensity: float = 1.0
    supports_moe: bool = True
    supports_speculative_decoding: bool = False
    notes: str = ""

    def __post_init__(self) -> None:
        if not self.supported_hardware:
            raise ValueError(f"{self.name}: must support at least one platform")
        if not 0 < self.kernel_quality <= 1.2:
            raise ValueError(f"{self.name}: kernel_quality out of range")
        if not 0 < self.bandwidth_quality <= 1.2:
            raise ValueError(f"{self.name}: bandwidth_quality out of range")
        if not 0 <= self.overlap <= 1:
            raise ValueError(f"{self.name}: overlap must be in [0, 1]")
        if self.gqa_kv_penalty < 1.0:
            raise ValueError(f"{self.name}: gqa_kv_penalty must be >= 1")
        if self.kv_block_size < 1:
            raise ValueError(f"{self.name}: kv_block_size must be >= 1")
        if self.prefill_chunk_tokens < 1:
            raise ValueError(f"{self.name}: prefill_chunk_tokens must be >= 1")
        if self.large_batch_bonus < 0:
            raise ValueError(f"{self.name}: large_batch_bonus must be >= 0")
        if self.comm_overhead_factor <= 0:
            raise ValueError(f"{self.name}: comm_overhead_factor must be > 0")
        if self.host_step_latency_s < 0:
            raise ValueError(f"{self.name}: host_step_latency_s must be >= 0")
        if self.memory_overhead_factor < 1.0:
            raise ValueError(f"{self.name}: memory_overhead_factor must be >= 1")
        if not 0 < self.moe_efficiency <= 1.0:
            raise ValueError(f"{self.name}: moe_efficiency must be in (0, 1]")
        if self.sampling_ns_per_vocab_token < 0:
            raise ValueError(
                f"{self.name}: sampling_ns_per_vocab_token must be >= 0"
            )

    # ------------------------------------------------------------------

    def supports_hardware(self, hardware_name: str) -> bool:
        return hardware_name.lower() in {h.lower() for h in self.supported_hardware}

    def supports_precision(self, precision: Precision | str) -> bool:
        if isinstance(precision, str):
            precision = Precision(precision.lower())
        if precision in self.supported_precisions:
            return True
        # FP16 and BF16 are interchangeable 16-bit formats for scheduling
        # purposes (SambaFlow serves BF16 where GPUs serve FP16).
        sixteen = {Precision.FP16, Precision.BF16}
        return precision in sixteen and bool(
            sixteen & self.supported_precisions
        )

    def effective_kernel_quality(self, step_tokens: float) -> float:
        """Kernel quality including the large-batch bonus."""
        if step_tokens <= 0:
            raise ValueError("step_tokens must be positive")
        bonus = self.large_batch_bonus * step_tokens / (step_tokens + 4096.0)
        return min(1.2, self.kernel_quality * (1.0 + bonus))

    def on_hardware(self, hardware_name: str) -> "FrameworkProfile":
        """Profile specialized to a platform, with documented overrides.

        On Gaudi2 the vLLM/DeepSpeed ports use static shapes with
        contiguous max-length KV reservations and static batch composition
        (optimum-habana), which is what drives the paper's Gaudi2 OOM
        observations — so ``paged_kv`` and ``continuous_batching`` are
        forced off there.
        """
        if not self.supports_hardware(hardware_name):
            raise ValueError(
                f"{self.name} does not support {hardware_name} (paper Table III)"
            )
        if hardware_name.lower() == "gaudi2" and (
            self.paged_kv or self.continuous_batching
        ):
            return replace(self, paged_kv=False, continuous_batching=False)
        return self


FRAMEWORK_REGISTRY: dict[str, FrameworkProfile] = {}


def register_framework(profile: FrameworkProfile) -> FrameworkProfile:
    key = profile.name.lower()
    if key in FRAMEWORK_REGISTRY:
        raise ValueError(f"framework {profile.name!r} already registered")
    FRAMEWORK_REGISTRY[key] = profile
    return profile


def get_framework(name: str) -> FrameworkProfile:
    """Case-insensitive registry lookup with a helpful error."""
    key = name.lower()
    if key not in FRAMEWORK_REGISTRY:
        known = ", ".join(sorted(FRAMEWORK_REGISTRY))
        raise UnknownNameError(f"unknown framework {name!r}; known frameworks: {known}")
    return FRAMEWORK_REGISTRY[key]


def list_frameworks() -> list[str]:
    return [p.name for p in FRAMEWORK_REGISTRY.values()]
