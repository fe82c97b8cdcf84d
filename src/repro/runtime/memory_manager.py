"""Device-memory bookkeeping for the serving runtime.

Translates a :class:`~repro.perf.phases.Deployment` into a KV allocator of
the right flavour and size: usable device-group memory, minus resident
weights, divided by per-token KV bytes (inflated by the platform's
workspace factor).  Raises :class:`OutOfMemoryError` when even the weights
do not fit — e.g. a 70B fp16 model on the 4x40 GB A100 node (Fig. 32).
"""

from __future__ import annotations

from repro.models.kvcache import kv_bytes_per_token
from repro.obs.tracer import EventTracer
from repro.perf.phases import Deployment
from repro.runtime.paged_kv import (
    ContiguousKVAllocator,
    KVAllocator,
    PagedKVAllocator,
)

__all__ = ["OutOfMemoryError", "MemoryManager"]


class OutOfMemoryError(RuntimeError):
    """A deployment or admission cannot fit in device memory."""


class MemoryManager:
    """Capacity accounting plus allocator construction for one deployment."""

    def __init__(
        self, deployment: Deployment, tracer: EventTracer | None = None
    ) -> None:
        self.deployment = deployment
        self.tracer = tracer
        self._mem = deployment.memory_model()
        self.weight_bytes = (
            deployment.model.total_params
            * deployment.quant.weight_bytes_per_param()
            * deployment.framework.memory_overhead_factor
        )
        if self.weight_bytes > self._mem.usable_bytes:
            raise OutOfMemoryError(
                f"{deployment.model.name} weights "
                f"({self.weight_bytes / 1024**3:.1f} GiB) exceed "
                f"{deployment.hardware.name} x{deployment.num_devices} usable "
                f"memory ({self._mem.usable_bytes / 1024**3:.1f} GiB)"
            )

    @property
    def kv_bytes_per_token(self) -> float:
        """Effective per-token KV cost including workspace overhead."""
        raw = kv_bytes_per_token(self.deployment.model, self.deployment.kv_spec.precision)
        return raw * (1.0 + self.deployment.hardware.workspace_overhead_factor)

    @property
    def kv_budget_bytes(self) -> float:
        return max(0.0, self._mem.usable_bytes - self.weight_bytes)

    @property
    def kv_budget_tokens(self) -> int:
        return int(self.kv_budget_bytes // self.kv_bytes_per_token)

    def build_allocator(self) -> KVAllocator:
        """Allocator of the deployment's flavour, sized to the KV budget."""
        budget_tokens = self.kv_budget_tokens
        if budget_tokens < 1:
            raise OutOfMemoryError(
                f"no KV budget left on {self.deployment.hardware.name} after "
                f"{self.weight_bytes / 1024**3:.1f} GiB of weights"
            )
        kv_spec = self.deployment.kv_spec
        if self.tracer is not None:
            self.tracer.instant(
                "kv_alloc",
                "kv_budget",
                ts_s=0.0,
                budget_tokens=budget_tokens,
                weight_gib=round(self.weight_bytes / 1024**3, 3),
                paged=int(kv_spec.paged),
            )
        if kv_spec.paged:
            total_blocks = budget_tokens // kv_spec.block_size
            if total_blocks < 1:
                raise OutOfMemoryError("KV budget smaller than one block")
            return PagedKVAllocator(total_blocks, kv_spec.block_size, tracer=self.tracer)
        return ContiguousKVAllocator(budget_tokens, tracer=self.tracer)
