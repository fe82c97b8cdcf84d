"""How much of one deployment fits in device memory: the capacity model.

Several of the paper's headline results come from this one question:
LLaMA-3-70B scales 39x with batch on H100 but only 3x on A100 (a 140 GB
fp16 model leaves almost no KV room in 4x40 GB), llama.cpp's 70B is
excluded on A100 (Fig. 32) and Gaudi2 runs out of memory at batch 32/64.

:class:`Capacity` is that accounting, written once per
:class:`~repro.perf.phases.Deployment` and cached on it
(:attr:`Deployment.capacity`).  The closed-form estimator, the sweep
grid, the engine's memory manager and replica warm-up all read it::

    resident   = (params * weight_bytes_per_param) * memory_overhead_factor
    kv_budget  = max(0, usable - resident)
    per_token  = kv_bytes_per_token * (1 + workspace_overhead_factor)
    per_seq    = (allocated_tokens * kv_bytes_per_token) * (1 + workspace)
    C_max      = kv_budget // per_seq
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.hardware.memory import MemoryModel
from repro.models.kvcache import kv_bytes_per_token

if TYPE_CHECKING:
    from repro.perf.phases import Deployment

__all__ = ["Capacity"]


class Capacity:
    """Capacity accounting for one deployment.

    ``memory`` is the deployment's one :class:`MemoryModel` (the step
    model streams through its tiers).  Resident weights count every
    weight (MoE keeps all experts resident), inflated by the framework's
    buffer overhead.  The platform's workspace factor models per-sequence
    scratch (attention workspaces, static-shape padding) and inflates
    every KV byte.
    """

    def __init__(self, dep: Deployment) -> None:
        self.memory = MemoryModel(dep.hardware, dep.num_devices)
        self.usable_bytes = self.memory.usable_bytes
        self.weight_bytes = (
            dep.model.total_params * dep.quant.weight_bytes_per_param()
        ) * dep.framework.memory_overhead_factor
        self.weights_fit = self.weight_bytes <= self.usable_bytes
        self.kv_budget_bytes = max(0.0, self.usable_bytes - self.weight_bytes)
        self._kv_spec = dep.kv_spec
        self._kv_bytes = kv_bytes_per_token(dep.model, dep.kv_spec.precision)
        self._workspace = 1.0 + dep.hardware.workspace_overhead_factor
        #: KV bytes one resident token costs, workspace included.
        self.kv_bytes_per_token = self._kv_bytes * self._workspace
        #: The engine's KV pool size in tokens.
        self.kv_budget_tokens = int(self.kv_budget_bytes // self.kv_bytes_per_token)

    def kv_bytes_per_sequence(self, final_ctx: int) -> float:
        """KV + workspace bytes reserved for one sequence at full length.

        Paged allocators reserve whole blocks up to the final context;
        contiguous allocators (llama.cpp, Gaudi2 ports, SambaFlow) reserve
        the full context up front.
        """
        allocated = self._kv_spec.allocated_tokens(final_ctx, final_ctx)
        return allocated * self._kv_bytes * self._workspace

    def max_concurrency(self, final_ctx: int) -> int:
        """How many sequences of ``final_ctx`` tokens can be resident at
        once: the effective batch a continuous-batching scheduler runs."""
        return int(self.kv_budget_bytes // self.kv_bytes_per_sequence(final_ctx))
