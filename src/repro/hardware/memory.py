"""Device memory-system model, including the SN40L's three-tier hierarchy.

Two jobs:

1. **Usable capacity** (`MemoryModel.usable_bytes`): the device group's
   HBM, plus any DDR spill tier, at the platform's memory utilization.
   The per-deployment capacity model,
   :class:`~repro.perf.capacity.Capacity`, subtracts resident weights and
   divides the rest among KV tokens and sequences.

2. **Tiered streaming bandwidth** (`effective_stream_bandwidth`): on the
   SN40L the first 520 MiB of a working set streams from SRAM at tens of
   TB/s and spill beyond HBM capacity runs at DDR speed.  The blended
   bandwidth is the harmonic composition of the portions served per tier.
"""

from __future__ import annotations

from repro.core.xp import FLOATS
from repro.hardware.spec import HardwareSpec, MemoryTierSpec

__all__ = ["MemoryModel"]


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
