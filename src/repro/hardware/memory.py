"""Device memory-system model, including the SN40L's three-tier hierarchy.

Two jobs:

1. **Capacity accounting** (`MemoryModel.fits`, `max_concurrent_sequences`):
   does a deployment's weights + KV + workspace fit, and how many sequences
   can be resident at once?  This single mechanism produces several of the
   paper's headline results — LLaMA-3-70B scales 39x with batch on H100 but
   only 3x on A100 (a 140 GB fp16 model leaves almost no KV room in
   4x40 GB), llama.cpp 70B excluded on A100 (Fig. 32), Gaudi2's OOM at
   batch 32/64.

2. **Tiered streaming bandwidth** (`effective_stream_bandwidth`): on the
   SN40L the first 520 MiB of a working set streams from SRAM at tens of
   TB/s and spill beyond HBM capacity runs at DDR speed.  The blended
   bandwidth is the harmonic composition of the portions served per tier.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.xp import FLOATS
from repro.hardware.spec import HardwareSpec, MemoryTierSpec

__all__ = ["MemoryFootprint", "MemoryModel"]


@dataclass(frozen=True)
class MemoryFootprint:
    """Bytes a deployment pins on the accelerator group."""

    weight_bytes: float
    kv_bytes: float
    workspace_bytes: float

    def __post_init__(self) -> None:
        for name in ("weight_bytes", "kv_bytes", "workspace_bytes"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be >= 0")

    @property
    def total_bytes(self) -> float:
        return self.weight_bytes + self.kv_bytes + self.workspace_bytes


class MemoryModel:
    """Capacity and bandwidth queries for a (hardware, device-count) group."""

    def __init__(self, spec: HardwareSpec, num_devices: int) -> None:
        if not 1 <= num_devices <= spec.devices_per_node:
            raise ValueError(
                f"{spec.name}: requested {num_devices} devices, node has "
                f"{spec.devices_per_node}"
            )
        self.spec = spec
        self.num_devices = num_devices
        # (capacity or None for the DDR spill, bandwidth) per tier,
        # fastest first: the walk of effective_stream_bandwidth.
        self._walk = tuple(
            (tier.capacity_bytes if tier.name in ("sram", "hbm") else None,
             tier.bandwidth_bytes_s)
            for tier in self._tiers()
        )

    # ------------------------------------------------------------------
    # Capacity
    # ------------------------------------------------------------------

    @property
    def usable_bytes(self) -> float:
        """HBM bytes available for weights + KV + workspace.

        A DDR spill tier (GH200's Grace memory, SN40L's DDR) extends
        *capacity* — at reduced bandwidth, which
        :meth:`effective_stream_bandwidth` accounts for separately.
        """
        hbm = self.spec.usable_memory_bytes(self.num_devices)
        if self.spec.ddr_tier is not None:
            hbm += self.spec.ddr_tier.capacity_bytes * self.spec.memory_utilization
        return hbm

    @property
    def hbm_bytes(self) -> float:
        return self.spec.usable_memory_bytes(self.num_devices)

    def fits(self, footprint: MemoryFootprint) -> bool:
        return footprint.total_bytes <= self.usable_bytes

    def kv_budget_bytes(self, weight_bytes: float, workspace_bytes: float) -> float:
        """Bytes left for KV cache after weights and workspace."""
        return max(0.0, self.usable_bytes - weight_bytes - workspace_bytes)

    def max_concurrent_sequences(
        self,
        weight_bytes: float,
        kv_bytes_per_sequence: float,
        workspace_bytes_per_sequence: float = 0.0,
    ) -> int:
        """How many sequences can hold KV residence simultaneously.

        This bounds the *effective* batch a continuous-batching scheduler
        can run; a nominal batch of 64 on a memory-starved deployment
        executes as waves of this size (Section V-1's H100-vs-A100 70B
        scaling contrast).
        """
        if kv_bytes_per_sequence <= 0:
            raise ValueError("kv_bytes_per_sequence must be positive")
        budget = self.kv_budget_bytes(weight_bytes, 0.0)
        per_seq = kv_bytes_per_sequence + workspace_bytes_per_sequence
        return int(budget // per_seq)

    # ------------------------------------------------------------------
    # Bandwidth
    # ------------------------------------------------------------------

    def _tiers(self) -> list[MemoryTierSpec]:
        """Fastest-first tier list for one device."""
        tiers: list[MemoryTierSpec] = []
        if self.spec.sram_tier is not None:
            tiers.append(self.spec.sram_tier)
        tiers.append(
            MemoryTierSpec(
                "hbm",
                self.spec.memory_per_device_bytes,
                self.spec.effective_bandwidth_bytes_s,
            )
        )
        if self.spec.ddr_tier is not None:
            tiers.append(self.spec.ddr_tier)
        return tiers

    def effective_stream_bandwidth(
        self, working_set_bytes: float, xp=FLOATS
    ) -> float:
        """Aggregate bandwidth streaming a working set once per step.

        The working set is split across the group's devices; per device,
        the first ``sram.capacity`` bytes stream from SRAM, the next
        ``hbm.capacity`` from HBM, the rest from DDR.  The blended rate is
        ``total / sum(portion_i / bw_i)`` (harmonic), times the device
        count.  Oversized working sets degrade smoothly to DDR speed —
        this produces the SN40L's length-dependent behaviour (Fig. 18/19).
        ``xp`` (:mod:`repro.core.xp`) lets the working set be an array.
        """
        if xp.any(working_set_bytes <= 0):
            raise ValueError("working_set_bytes must be positive")
        per_device = working_set_bytes / self.num_devices
        remaining = per_device
        time = 0.0
        for capacity, bandwidth in self._walk:
            portion = remaining if capacity is None else xp.minimum(remaining, capacity)
            time = time + portion / bandwidth
            remaining = remaining - portion
        # No DDR tier: the last tier absorbs the remainder at its rate
        # (a zero remainder adds exactly 0.0).
        time = time + remaining / self._walk[-1][1]
        return per_device / time * self.num_devices
