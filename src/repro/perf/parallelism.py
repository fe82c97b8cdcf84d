"""Parallelism plans and their communication/utilization costs.

Implements the paper's Section IV-C taxonomy: tensor parallelism (TP,
per-GEMM sharding with all-reduces), pipeline parallelism (PP, layer
splitting with point-to-point activation handoffs and pipeline bubbles),
expert parallelism (EP, expert sharding with all-to-all token exchange and
load imbalance), and hybrid combinations (HP).

Key reproduced behaviour (Fig. 5): on 4 A100s with LLaMA-3-8B, TP=4 beats
the TP=2/PP=2 hybrid by ~1.3x and pure PP=4 by ~1.9x, because TP
parallelizes every step's weight/KV streaming while PP serializes stages
for each microbatch and only recovers throughput via pipelining.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.precision import Precision, precision_spec
from repro.core.xp import FLOATS
from repro.frameworks.base import FrameworkProfile, MultiGpuStyle
from repro.hardware.interconnect import all_to_all_time, allreduce_time, p2p_time
from repro.hardware.spec import HardwareSpec
from repro.models.config import ModelConfig

__all__ = ["ParallelismPlan", "CommCosts", "comm_costs_per_forward", "pipeline_factor"]

# Expert-parallel load imbalance: "A load balancing issue may exist when
# experts assigned to a GPU are not active" (Section IV-C3).
_EP_IMBALANCE = 1.30


@dataclass(frozen=True)
class ParallelismPlan:
    """How a deployment spreads one model over ``num_devices`` accelerators.

    ``tp * pp`` must equal the device count; ``ep`` (expert parallelism)
    reuses the same devices for MoE expert sharding and must divide
    ``tp * pp``.  ``ep=1`` keeps every expert replicated on every TP shard.
    """

    tp: int = 1
    pp: int = 1
    ep: int = 1

    def __post_init__(self) -> None:
        for name in ("tp", "pp", "ep"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1, got {getattr(self, name)}")
        if self.num_devices % self.ep != 0:
            raise ValueError(
                f"ep ({self.ep}) must divide tp*pp ({self.num_devices})"
            )

    @property
    def num_devices(self) -> int:
        return self.tp * self.pp

    @property
    def label(self) -> str:
        parts = []
        if self.tp > 1:
            parts.append(f"TP{self.tp}")
        if self.pp > 1:
            parts.append(f"PP{self.pp}")
        if self.ep > 1:
            parts.append(f"EP{self.ep}")
        return "+".join(parts) if parts else "single"

    def validate_for(self, config: ModelConfig, spec: HardwareSpec) -> None:
        """Reject plans the model/hardware cannot realize."""
        if self.num_devices > spec.devices_per_node:
            raise ValueError(
                f"plan needs {self.num_devices} devices; {spec.name} node has "
                f"{spec.devices_per_node}"
            )
        if self.tp > config.num_kv_heads and config.uses_gqa:
            # KV heads are the finest TP sharding grain for attention.
            raise ValueError(
                f"{config.name}: TP={self.tp} exceeds {config.num_kv_heads} KV heads"
            )
        if self.pp > config.num_layers:
            raise ValueError(
                f"{config.name}: PP={self.pp} exceeds {config.num_layers} layers"
            )
        if self.ep > 1 and not config.is_moe:
            raise ValueError(f"{config.name} is dense; expert parallelism needs MoE")
        if self.ep > config.num_experts:
            raise ValueError(
                f"{config.name}: EP={self.ep} exceeds {config.num_experts} experts"
            )


@dataclass(frozen=True)
class CommCosts:
    """Per-forward-pass communication time, split by mechanism (seconds)."""

    tp_allreduce_s: float = 0.0
    pp_p2p_s: float = 0.0
    ep_all_to_all_s: float = 0.0

    @property
    def total_s(self) -> float:
        return self.tp_allreduce_s + self.pp_p2p_s + self.ep_all_to_all_s


def comm_costs_per_forward(
    config: ModelConfig,
    spec: HardwareSpec,
    framework: FrameworkProfile,
    plan: ParallelismPlan,
    tokens: int,
    precision: Precision | str = Precision.FP16,
    xp=FLOATS,
) -> CommCosts:
    """Communication time of one forward pass over ``tokens`` new tokens.

    TP: two all-reduces per layer (after attention and after FFN) of the
    activation tensor.  PP: one activation handoff per stage boundary.
    EP: two all-to-alls per MoE layer (scatter tokens to experts, gather
    results), inflated by the load-imbalance factor.

    llama.cpp's ``LAYER_SPLIT`` style has no TP all-reduces — only the
    serial stage handoffs — which is also why it barely scales (Fig. 13).
    ``xp`` (:mod:`repro.core.xp`) lets ``tokens`` be an array.
    """
    if xp.any(tokens < 1):
        raise ValueError(f"tokens must be >= 1, got {tokens}")
    spec_bytes = precision_spec(precision).bytes_per_element
    act_bytes = tokens * config.hidden_size * spec_bytes
    link = spec.interconnect
    factor = framework.comm_overhead_factor

    tp_time = 0.0
    if plan.tp > 1 and framework.multi_gpu_style is MultiGpuStyle.TENSOR_PARALLEL:
        per_layer = 2.0 * allreduce_time(link, act_bytes, plan.tp, xp)
        tp_time = per_layer * config.num_layers * factor

    pp_time = 0.0
    stage_count = plan.pp
    if framework.multi_gpu_style is MultiGpuStyle.LAYER_SPLIT:
        # llama.cpp splits layers across all devices regardless of the
        # requested plan shape.
        stage_count = plan.num_devices
    if stage_count > 1:
        pp_time = (stage_count - 1) * p2p_time(link, act_bytes, xp) * factor

    ep_time = 0.0
    if plan.ep > 1 and config.is_moe:
        # Tokens (and their expert assignments) shuffle twice per MoE layer.
        ep_time = (
            2.0
            * all_to_all_time(link, act_bytes, plan.ep, xp)
            * config.num_layers
            * _EP_IMBALANCE
            * factor
        )

    return CommCosts(tp_allreduce_s=tp_time, pp_p2p_s=pp_time, ep_all_to_all_s=ep_time)


def pipeline_factor(
    plan: ParallelismPlan,
    batch_size: int,
    microbatch_limit: int | None = None,
    xp=FLOATS,
) -> float:
    """Pipeline-bubble inflation on per-step time.

    A PP deployment splits the batch into ``m`` microbatches; one step over
    the whole batch costs ``(m + pp - 1) / m`` stage-times relative to the
    perfectly parallel aggregate-resource execution (which is what the
    roofline legs compute, with all ``tp*pp`` devices contributing).

    ``microbatch_limit`` caps ``m``: decode steps offer tiny GEMMs and
    serving engines split them into at most ~2 microbatches before the
    per-microbatch weight re-streaming erases the benefit; prefill chunks
    pipeline much deeper.  With ``pp=1`` this is 1.0.  With ``pp=4,
    batch=1`` it is 4.0: stages run strictly serially, so the four
    devices' bandwidth is not actually aggregated — matching the paper's
    TP-beats-PP finding (Fig. 5).  ``xp`` (:mod:`repro.core.xp`) lets
    ``batch_size`` be an array.
    """
    if xp.any(batch_size < 1):
        raise ValueError(f"batch_size must be >= 1, got {batch_size}")
    if microbatch_limit is not None and microbatch_limit < 1:
        raise ValueError(f"microbatch_limit must be >= 1, got {microbatch_limit}")
    if plan.pp == 1:
        return 1.0
    microbatches = xp.minimum(batch_size, plan.pp)
    if microbatch_limit is not None:
        microbatches = xp.minimum(microbatches, microbatch_limit)
    return (microbatches + plan.pp - 1) / microbatches
