"""The step-cost model: prefill and decode-step rooflines, written once.

This module prices one forward pass of a deployed LLM:

* **prefill** — the whole prompt batch in one pass: compute-rich (large
  GEMMs run near peak), writes the KV cache, determines TTFT;
* **decode step** — one token per sequence: memory-rich (the entire active
  weight set plus the whole KV cache stream from DRAM per step), determines
  ITL and, iterated ``output_tokens - 1`` times, the decode phase.

Every mechanism the paper measures enters here: GQA's smaller KV traffic,
MoE's active-expert weight traffic, paged-KV block granularity, tensor/
pipeline/expert parallelism, quantization, per-platform efficiency curves,
the MI250 saturation penalty and the SN40L's tiered memory and per-request
setup cost.

:class:`StepModel` holds the one expression.  A step's cost splits into
:class:`StepCoeffs`, everything fixed for a batch shape (FLOP and byte
traffic, MFU, pipeline factor, communication, overhead, penalty), and a
*point*, the mean attention context, at which :meth:`StepModel.cost`
evaluates the roofline.  Every method takes an ``xp`` namespace
(:mod:`repro.core.xp`): the direct functions below and the memoized
:class:`~repro.perf.kernel.StepCostKernel` pass ``FLOATS``;
:meth:`~repro.perf.kernel.StepCostKernel.evaluate_grid` passes ``ARRAYS``
with a whole sweep as arrays.  With the KV cache on, a decode step's
coefficients do not depend on its context, so the kernel builds them once
per batch size and evaluates only the point per call.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from functools import cached_property, lru_cache
from typing import NamedTuple

from repro.core.metrics import LatencyBreakdown
from repro.core.xp import FLOATS
from repro.frameworks.base import FrameworkProfile, MultiGpuStyle
from repro.hardware.power import PowerModel
from repro.hardware.roofline import mfu_at_batch, overlap_time, saturation_penalty
from repro.hardware.spec import HardwareSpec
from repro.models.config import ModelConfig
from repro.models.kvcache import KVCacheSpec, kv_bytes_per_token
from repro.models.ops import (
    activation_bytes_per_token,
    attention_context_flops,
    attention_linear_flops,
    ffn_flops,
    lm_head_flops,
)
from repro.perf.attention import kv_time_multiplier
from repro.perf.capacity import Capacity
from repro.perf.parallelism import (
    ParallelismPlan,
    comm_costs_per_forward,
    pipeline_factor,
)
from repro.perf.quantization import QuantizationScheme

__all__ = [
    "Deployment",
    "StepCoeffs",
    "StepCost",
    "StepModel",
    "step_model",
    "moe_expected_active_experts",
    "step_weight_bytes",
    "forward_flops",
    "phase_utilization",
    "prefill_cost",
    "decode_step_cost",
]


@dataclass(frozen=True)
class Deployment:
    """A fully specified serving configuration.

    Bundles everything fixed for a benchmark point except the workload:
    model x hardware x framework x parallelism plan x quantization x KV
    policy.  ``framework`` is specialized to the hardware at construction
    (Table III validation plus platform overrides such as Gaudi2's
    contiguous KV).
    """

    model: ModelConfig
    hardware: HardwareSpec
    framework: FrameworkProfile
    plan: ParallelismPlan = field(default_factory=ParallelismPlan)
    quant: QuantizationScheme = field(default_factory=QuantizationScheme)
    kv_spec: KVCacheSpec = field(default_factory=KVCacheSpec)

    def __post_init__(self) -> None:
        specialized = self.framework.on_hardware(self.hardware.name)
        object.__setattr__(self, "framework", specialized)
        self.plan.validate_for(self.model, self.hardware)
        self.quant.validate_for(self.hardware, self.framework)
        if self.model.is_moe and not self.framework.supports_moe:
            raise ValueError(
                f"{self.framework.name} cannot serve MoE model {self.model.name}"
            )
        # The KV policy follows the framework unless explicitly overridden;
        # a paged KV spec on a contiguous-only framework is contradictory.
        if self.kv_spec.paged and not self.framework.paged_kv:
            object.__setattr__(self, "kv_spec", replace(self.kv_spec, paged=False))

    @property
    def num_devices(self) -> int:
        return self.plan.num_devices

    @cached_property
    def capacity(self) -> Capacity:
        """This deployment's capacity model and memory tiers (cached: a
        pure function of the frozen fields; not a field, so it never
        enters ``__eq__``/``__hash__``)."""
        return Capacity(self)

    # ------------------------------------------------------------------

    def with_kv_spec(self, kv_spec: KVCacheSpec) -> "Deployment":
        return replace(self, kv_spec=kv_spec)

    def with_quant(self, quant: QuantizationScheme) -> "Deployment":
        return replace(self, quant=quant)


def moe_expected_active_experts(
    config: ModelConfig, routed_tokens: int, xp=FLOATS
) -> float:
    """Expected distinct experts hit per layer by ``routed_tokens`` tokens.

    With top-k routing over n experts, a token misses a given expert with
    probability (1 - k/n); ``routed_tokens`` independent tokens leave
    ``n * (1 - k/n)^tokens`` experts cold.  At batch 1 Mixtral touches ~2
    experts per layer (the paper's "equivalent to a 14B model"); at batch
    16+ essentially all 8 are hot, so large-batch weight traffic grows.
    """
    if not config.is_moe:
        return 1.0
    if xp.any(routed_tokens < 1):
        raise ValueError(f"routed_tokens must be >= 1, got {routed_tokens}")
    n = config.num_experts
    k = config.experts_per_token
    return n * (1.0 - xp.power(1.0 - k / n, routed_tokens))


def step_weight_bytes(dep: Deployment, routed_tokens: int) -> float:
    """Weight bytes streamed from memory in one forward pass.

    Dense models stream every weight once.  MoE models stream attention
    weights plus the *expected active* experts only.
    """
    return step_model(dep).weight_bytes(FLOATS, routed_tokens)


@lru_cache(maxsize=64)
def _flops_per_token(config: ModelConfig) -> tuple[float, float, float]:
    """(linear, attention-context, LM-head) FLOPs of one token."""
    layers = range(config.num_layers)
    linear = sum(attention_linear_flops(config, layer, 1) for layer in layers)
    linear += config.num_layers * ffn_flops(config, 1)
    context = config.num_layers * attention_context_flops(config, 1, 1.0)
    return linear, context, lm_head_flops(config, 1)


def _flops_coeffs(config: ModelConfig, tokens, lm_head_tokens):
    """``(base, per_ctx)``: a forward pass over ``tokens`` new tokens costs
    ``base + per_ctx * mean_context`` FLOPs."""
    linear, context, head = _flops_per_token(config)
    return tokens * linear + lm_head_tokens * head, tokens * context


def forward_flops(
    config: ModelConfig,
    new_tokens: int,
    mean_context: float,
    lm_head_tokens: int,
) -> float:
    """FLOPs of one forward pass over ``new_tokens`` across the batch."""
    base, per_ctx = _flops_coeffs(config, new_tokens, lm_head_tokens)
    return base + per_ctx * mean_context


def phase_utilization(
    breakdown: LatencyBreakdown, power_intensity: float = 1.0, xp=FLOATS
) -> float:
    """Roofline occupancy of a phase in [0, 1], for the power model.

    Compute-bound phases run near their compute fraction; memory-bound
    phases still draw substantial dynamic power (HBM + data movement),
    captured by the 0.70 weighting on the memory fraction.  A phase that
    takes no time has utilization 0.
    """
    busy = breakdown.total_s > 0
    total = xp.where(busy, breakdown.total_s, 1.0)
    compute_frac = xp.minimum(1.0, breakdown.compute_s / total)
    memory = (
        breakdown.weight_memory_s
        + breakdown.kv_memory_s
        + breakdown.activation_memory_s
    )
    memory_frac = xp.minimum(1.0, memory / total)
    util = xp.maximum(compute_frac, 0.70 * memory_frac) * power_intensity
    return xp.where(busy, xp.minimum(1.0, xp.maximum(0.05, util)), 0.0)


# Decode microbatches are tiny, so engines split a step into at most ~2
# of them before per-microbatch weight re-streaming erases the benefit.
_DECODE_MICROBATCHES = 2


@dataclass(frozen=True)
class StepCoeffs:
    """The part of one step's cost that is fixed for its batch shape.

    ``flops(ctx) = flops_base + flops_per_ctx * ctx`` and
    ``kv_read_bytes(ctx) = kv_read_per_ctx * ctx``; :meth:`StepModel.cost`
    evaluates the rest of the roofline at ``ctx``.  Fields are floats, or
    arrays over a sweep grid.
    """

    flops_base: float
    flops_per_ctx: float
    weight_bytes: float
    kv_read_per_ctx: float
    kv_write_bytes: float
    activation_bytes: float
    rate_mfu: float  # (peak rate * devices) * mfu, the t_compute denominator
    pipeline_factor: float
    comm_s: float
    overhead_s: float
    penalty: float
    setup_s: float


class StepCost(NamedTuple):
    """One priced step: its breakdown, the device group's draw while it
    runs, and the FLOPs and modeled bytes it moves (the traffic MFU and
    MBU divide by peak rates; KV reads count their GQA/paging-scaled
    stream bytes)."""

    breakdown: LatencyBreakdown
    power_w: float
    flops: float
    bytes_moved: float


class StepModel:
    """The roofline of one deployment, over floats or arrays."""

    def __init__(self, dep: Deployment) -> None:
        self.deployment = dep
        config = dep.model
        spec = dep.hardware
        fw = dep.framework
        self.power_model = PowerModel(spec, dep.num_devices)
        self._memory = dep.capacity.memory

        self._kv_bytes_per_token = kv_bytes_per_token(config, dep.kv_spec.precision)
        self._kv_read_multiplier = kv_time_multiplier(config, fw, dep.kv_spec)
        self._act_bytes_per_token = activation_bytes_per_token(
            config, dep.quant.activation_precision
        )
        self._weight_bytes_per_param = dep.quant.weight_bytes_per_param()
        # Every weight, all experts resident: a dense model streams these.
        self.total_weight_bytes = config.total_params * self._weight_bytes_per_param
        if config.is_moe:
            self._moe_attn_and_norms = sum(
                config.attention_params_at(layer) + 2 * config.hidden_size
                for layer in range(config.num_layers)
            )
            self._moe_other = config.embedding_params + config.hidden_size

        self._rate = dep.quant.compute_rate_flops(spec) * dep.num_devices
        self._compute_overhead = dep.quant.compute_overhead(spec)
        self._bandwidth_quality = fw.bandwidth_quality
        self._overlap = fw.overlap
        # MoE expert dispatch runs at the framework's grouped-GEMM
        # efficiency; expert-parallel load imbalance slows the compute path
        # too: hot experts queue on their device while cold ones idle
        # (Section IV-C3).  Dividing or multiplying by 1.0 is exact, so
        # dense models take the same expression.
        self._moe_divisor = fw.moe_efficiency if config.is_moe else 1.0
        ep = dep.plan.ep
        self._ep_factor = (
            1.0 + 0.15 * (1.0 - 1.0 / ep) if ep > 1 and config.is_moe else 1.0
        )
        # llama.cpp's layer-split mode serializes all devices as stages.
        self._layer_split_stages = (
            dep.num_devices
            if fw.multi_gpu_style is MultiGpuStyle.LAYER_SPLIT and dep.num_devices > 1
            else None
        )
        # Prefill chunks pipeline deeply (decode: _DECODE_MICROBATCHES).
        self._prefill_microbatches = 4 * max(1, dep.plan.pp)
        self._fixed_overhead = (
            config.num_layers * spec.layer_overhead_s
            + spec.step_overhead_s * fw.host_overhead_factor
            + fw.host_step_latency_s
        )

    # ------------------------------------------------------------------
    # Traffic
    # ------------------------------------------------------------------

    def weight_bytes(self, xp, routed_tokens):
        """Weight bytes one forward pass over ``routed_tokens`` streams."""
        config = self.deployment.model
        if not config.is_moe:
            return self.total_weight_bytes
        active = moe_expected_active_experts(config, routed_tokens, xp)
        expert_params = config.num_layers * active * config.ffn_params_per_expert
        return (
            self._moe_attn_and_norms + expert_params + self._moe_other
        ) * self._weight_bytes_per_param

    def _coeffs(
        self, xp, batch, tokens, microbatch_limit, kv_read_per_ctx, kv_write_bytes,
        setup_s=0.0,
    ) -> StepCoeffs:
        """Coefficients of a pass over ``tokens`` new tokens of ``batch``
        sequences (the GEMM rows and the communicated activations)."""
        dep = self.deployment
        config = dep.model
        fw = dep.framework
        flops_base, flops_per_ctx = _flops_coeffs(config, tokens, batch)
        mfu = mfu_at_batch(
            dep.hardware, tokens, fw.effective_kernel_quality(tokens, xp), xp
        )
        stages = self._layer_split_stages
        if stages is None:
            pf = pipeline_factor(dep.plan, batch, microbatch_limit, xp)
        else:
            microbatches = xp.minimum(batch, microbatch_limit)
            pf = (microbatches + stages - 1) / microbatches
        comm = comm_costs_per_forward(
            config, dep.hardware, fw, dep.plan, tokens,
            dep.quant.activation_precision, xp,
        )
        # Per-step sampling over the logit vector, once per sequence.
        sampling = config.vocab_size * batch * fw.sampling_ns_per_vocab_token * 1e-9
        return StepCoeffs(
            flops_base=flops_base,
            flops_per_ctx=flops_per_ctx,
            weight_bytes=self.weight_bytes(xp, tokens),
            kv_read_per_ctx=kv_read_per_ctx,
            kv_write_bytes=kv_write_bytes,
            activation_bytes=tokens * self._act_bytes_per_token,
            rate_mfu=self._rate * mfu,
            pipeline_factor=pf,
            comm_s=comm.total_s,
            overhead_s=self._fixed_overhead + sampling,
            penalty=saturation_penalty(dep.hardware, batch, xp),
            setup_s=setup_s,
        )

    def prefill_point(self, xp, batch, input_tokens):
        """``(coeffs, point)`` of prefilling ``batch`` prompts of
        ``input_tokens``.

        Causal attention means the t-th prompt token attends ~t/2 positions
        on average.  Only the final position's logits are needed, so the LM
        head runs once per sequence.  The per-request pipeline-setup cost
        (SN40L) is charged here, once per batch admission.
        """
        if xp.any((batch < 1) | (input_tokens < 1)):
            raise ValueError("batch_size and input_tokens must be >= 1")
        tokens = batch * input_tokens
        kv_write = (
            tokens * self._kv_bytes_per_token
            if self.deployment.kv_spec.enabled
            else 0.0
        )
        coeffs = self._coeffs(
            xp, batch, tokens, self._prefill_microbatches, 0.0, kv_write,
            self.deployment.hardware.request_setup_s,
        )
        return coeffs, (input_tokens + 1) / 2.0

    def decode_coeffs(self, xp, batch) -> StepCoeffs:
        """Coefficients of one KV-cached decode step, constant in the
        context: each sequence reads its whole cached context (scaled by
        the framework's GQA awareness and the paged-block overhead) and
        writes one token."""
        kv = self._kv_bytes_per_token
        return self._coeffs(
            xp, batch, batch, _DECODE_MICROBATCHES,
            batch * kv * self._kv_read_multiplier, batch * kv,
        )

    def decode_point(self, xp, batch, context_length):
        """``(coeffs, point)`` of one decode iteration.

        With the KV cache *disabled* (Fig. 2a) the step degenerates to a
        full re-prefill of the entire context.
        """
        if xp.any((batch < 1) | (context_length < 1)):
            raise ValueError("batch_size and context_length must be >= 1")
        if self.deployment.kv_spec.enabled:
            return self.decode_coeffs(xp, batch), context_length
        coeffs = self._coeffs(
            xp, batch, batch * context_length, _DECODE_MICROBATCHES, 0.0, 0.0
        )
        return coeffs, (context_length + 1) / 2.0

    # ------------------------------------------------------------------
    # Roofline and power
    # ------------------------------------------------------------------

    def cost(self, xp, c: StepCoeffs, point):
        """Evaluate the roofline at ``point``: ``(parts, flops, bytes)``
        with ``parts`` in :class:`LatencyBreakdown` field order."""
        flops = c.flops_base + c.flops_per_ctx * point
        kv_read = c.kv_read_per_ctx * point
        total_bytes = (
            (c.weight_bytes + kv_read) + c.kv_write_bytes
        ) + c.activation_bytes

        t_compute = flops * self._compute_overhead / c.rate_mfu
        bandwidth = (
            self._memory.effective_stream_bandwidth(total_bytes, xp)
            * self._bandwidth_quality
        )
        t_memory = total_bytes / bandwidth
        # Partial compute/memory overlap, MoE dispatch, pipeline bubbles
        # (and llama.cpp's layer split), expert-parallel imbalance.
        t_kernels = overlap_time(t_compute, t_memory, self._overlap, xp)
        t_kernels = t_kernels / self._moe_divisor * c.pipeline_factor * self._ep_factor
        total = (t_kernels + c.comm_s + c.overhead_s) * c.penalty
        parts = (
            t_compute,
            c.weight_bytes / total_bytes * t_memory,
            kv_read / total_bytes * t_memory
            + c.kv_write_bytes / total_bytes * t_memory,
            c.activation_bytes / total_bytes * t_memory,
            c.comm_s,
            c.overhead_s + c.setup_s,
            total + c.setup_s,
        )
        return parts, flops, total_bytes

    def power_w(self, xp, breakdown):
        """Draw of the device group while a phase with ``breakdown`` runs."""
        util = phase_utilization(
            breakdown, self.deployment.framework.power_intensity, xp
        )
        return self.power_model.group_power_w(util, xp)

    def average_power_w(self, xp, prefill, decode):
        """Energy-weighted average draw over a prefill and a decode phase."""
        p, d = prefill.total_s, decode.total_s
        energy = p * self.power_w(xp, prefill) + xp.where(
            d > 0, d * self.power_w(xp, decode), 0.0
        )
        return energy / (p + d)

    def price(self, coeffs: StepCoeffs, point) -> StepCost:
        """One scalar step, priced."""
        parts, flops, bytes_moved = self.cost(FLOATS, coeffs, point)
        breakdown = LatencyBreakdown(*parts)
        return StepCost(breakdown, self.power_w(FLOATS, breakdown), flops, bytes_moved)


@lru_cache(maxsize=64)
def step_model(dep: Deployment) -> StepModel:
    """The step model of a deployment (bounded cache: equal deployments
    share one, as they share one kernel)."""
    return StepModel(dep)


def prefill_cost(dep: Deployment, batch_size: int, input_tokens: int) -> StepCost:
    """Prefilling ``batch_size`` prompts of ``input_tokens``, priced."""
    model = step_model(dep)
    return model.price(*model.prefill_point(FLOATS, batch_size, input_tokens))


def decode_step_cost(
    dep: Deployment, batch_size: int, context_length: int
) -> StepCost:
    """One decode iteration (one new token per sequence), priced."""
    model = step_model(dep)
    return model.price(*model.decode_point(FLOATS, batch_size, context_length))

