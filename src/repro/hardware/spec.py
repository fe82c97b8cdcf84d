"""Hardware accelerator specification (the paper's Table II schema).

A :class:`HardwareSpec` combines the *public datasheet numbers* (peak
FLOPs, memory capacity/bandwidth, interconnect) with a small set of
*behavioural parameters* that encode each platform's documented execution
character — e.g. the MI250's early batch saturation (Section VI-2), the
SN40L's three-tier memory and per-call pipeline setup cost (Section VI-3),
and Gaudi2's overlapped MME/TPC execution (Section VI-4).  The behavioural
parameters are the simulator's only free calibration knobs and are set once
in :mod:`repro.hardware.zoo`.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

from repro.core.precision import Precision, precision_spec

__all__ = ["Vendor", "InterconnectSpec", "MemoryTierSpec", "HardwareSpec"]

GB = 1024.0**3
TB = 1024.0**4

# Default amortized fleet cost, USD per device-kW-hour, used when a spec
# carries no explicit ``cost_per_hour``.  Covers energy + amortized capex +
# hosting at a flat rate proportional to board TDP — a deliberately crude
# fallback so cost-per-token objectives stay computable for ad-hoc specs;
# every entry in :mod:`repro.hardware.zoo` sets an explicit market rate.
DEFAULT_USD_PER_KW_HOUR = 3.0


class Vendor(str, enum.Enum):
    NVIDIA = "nvidia"
    AMD = "amd"
    INTEL_HABANA = "intel-habana"
    SAMBANOVA = "sambanova"

    def __str__(self) -> str:  # pragma: no cover - trivial
        return self.value


@dataclass(frozen=True)
class InterconnectSpec:
    """Inter-device fabric within a node (NVLink, Infinity Fabric, ...)."""

    name: str
    bandwidth_gb_s: float  # per-direction aggregate bandwidth per device
    latency_us: float  # per-hop latency

    def __post_init__(self) -> None:
        if self.bandwidth_gb_s <= 0:
            raise ValueError("interconnect bandwidth must be positive")
        if self.latency_us < 0:
            raise ValueError("interconnect latency must be >= 0")

    @property
    def bandwidth_bytes_s(self) -> float:
        return self.bandwidth_gb_s * 1e9

    @property
    def latency_s(self) -> float:
        return self.latency_us * 1e-6


@dataclass(frozen=True)
class MemoryTierSpec:
    """One tier of a device's memory hierarchy.

    GPUs have a single HBM tier; the SN40L has three (SRAM / HBM / DDR,
    Section VI-3 and Appendix B-6).  ``capacity_bytes`` of the *first* tier
    bounds what executes at full ``bandwidth_bytes_s``; working sets
    spilling to later tiers run at those tiers' bandwidth.
    """

    name: str
    capacity_bytes: float
    bandwidth_bytes_s: float

    def __post_init__(self) -> None:
        if self.capacity_bytes <= 0:
            raise ValueError(f"tier {self.name}: capacity must be positive")
        if self.bandwidth_bytes_s <= 0:
            raise ValueError(f"tier {self.name}: bandwidth must be positive")


@dataclass(frozen=True)
class HardwareSpec:
    """One accelerator platform, as deployed in the paper's testbed."""

    name: str
    vendor: Vendor
    devices_per_node: int
    memory_per_device_bytes: float
    memory_bandwidth_bytes_s: float  # first (fastest bulk) tier
    peak_fp16_tflops: float  # dense tensor-core rate per device
    supported_precisions: frozenset[Precision]
    interconnect: InterconnectSpec
    tdp_w: float
    idle_power_w: float

    # ---- behavioural parameters (calibration knobs) ----
    # Peak fraction of tensor throughput achievable by a perfectly tuned
    # kernel at saturation ("model FLOPs utilization" ceiling).
    mfu_ceiling: float = 0.60
    # Fraction of datasheet HBM bandwidth achievable by streaming kernels.
    bandwidth_efficiency: float = 0.80
    # Batch size at which the compute-efficiency curve reaches half of its
    # ceiling (small batches underutilize tensor cores).
    mfu_half_batch: float = 4.0
    # Per-transformer-layer fixed overhead (kernel launches, sync), seconds.
    layer_overhead_s: float = 4.0e-6
    # Per-forward-pass fixed overhead (scheduler iteration, host work).
    step_overhead_s: float = 30.0e-6
    # Batch beyond which contention degrades efficiency (MI250's page-fault
    # behaviour); None disables.
    saturation_batch: int | None = None
    # Fractional efficiency loss per sequence beyond saturation_batch.
    saturation_slope: float = 0.0
    # Per-request pipeline/compile setup charged at prefill (SN40L TTFT).
    request_setup_s: float = 0.0
    # Additional memory tiers beyond HBM (SN40L: SRAM before, DDR after).
    sram_tier: MemoryTierSpec | None = None
    ddr_tier: MemoryTierSpec | None = None
    # Fraction of device memory usable for weights+KV (frameworks reserve
    # workspace; vLLM defaults to 0.9).
    memory_utilization: float = 0.90
    # Activation/workspace overhead per sequence-token of context, as a
    # multiplier on KV bytes (Gaudi2's larger static workspaces).
    workspace_overhead_factor: float = 0.05

    # ---- fleet economics (optimizer metadata) ----
    # Amortized per-device cost in USD/hour (on-demand cloud rate or
    # amortized capex + power + hosting).  ``None`` falls back to the
    # documented TDP-proportional default (``DEFAULT_USD_PER_KW_HOUR``);
    # registry entries set explicit rates, validated at registration.
    cost_per_hour: float | None = None

    extra: dict = field(default_factory=dict, compare=False)

    def __post_init__(self) -> None:
        if self.devices_per_node < 1:
            raise ValueError("devices_per_node must be >= 1")
        if self.memory_per_device_bytes <= 0:
            raise ValueError("device memory must be positive")
        if self.memory_bandwidth_bytes_s <= 0:
            raise ValueError("memory bandwidth must be positive")
        if self.peak_fp16_tflops <= 0:
            raise ValueError("peak FLOPs must be positive")
        if not 0 < self.mfu_ceiling <= 1:
            raise ValueError("mfu_ceiling must be in (0, 1]")
        if not 0 < self.bandwidth_efficiency <= 1:
            raise ValueError("bandwidth_efficiency must be in (0, 1]")
        if not 0 < self.memory_utilization <= 1:
            raise ValueError("memory_utilization must be in (0, 1]")
        if self.idle_power_w < 0 or self.tdp_w <= self.idle_power_w:
            raise ValueError("need 0 <= idle power < TDP")
        if self.cost_per_hour is not None and not self.cost_per_hour > 0:
            raise ValueError(
                f"{self.name}: cost_per_hour must be positive, "
                f"got {self.cost_per_hour}"
            )
        if Precision.FP16 not in self.supported_precisions and (
            Precision.BF16 not in self.supported_precisions
        ):
            raise ValueError(f"{self.name}: must support a 16-bit format")

    # ------------------------------------------------------------------

    def supports(self, precision: Precision | str) -> bool:
        if isinstance(precision, str):
            precision = Precision(precision.lower())
        if precision in self.supported_precisions:
            return True
        # FP16/BF16 are interchangeable 16-bit tensor formats (SN40L and
        # Gaudi2 quote BF16; Nvidia/AMD quote both at the same rate).
        sixteen = {Precision.FP16, Precision.BF16}
        return precision in sixteen and bool(sixteen & self.supported_precisions)

    def peak_flops(self, precision: Precision | str = Precision.FP16) -> float:
        """Peak dense matmul FLOP/s per device at a precision.

        Natively supported sub-16-bit formats run at their accelerated
        rate; unsupported ones fall back to the FP16 rate (weights are
        dequantized on the fly — the A100-INT8-via-FP16 path of Fig. 3).
        """
        spec = precision_spec(precision)
        base = self.peak_fp16_tflops * 1e12
        if self.supports(spec.precision):
            return base * spec.matmul_speedup
        return base

    def usable_memory_bytes(self, num_devices: int) -> float:
        """Memory available for weights + KV across a TP/PP group."""
        if not 1 <= num_devices <= self.devices_per_node:
            raise ValueError(
                f"{self.name}: {num_devices} devices requested, node has "
                f"{self.devices_per_node}"
            )
        return num_devices * self.memory_per_device_bytes * self.memory_utilization

    @property
    def hourly_cost(self) -> float:
        """Per-device USD/hour: explicit rate or the TDP-derived default.

        The fallback prices a device at ``DEFAULT_USD_PER_KW_HOUR`` per
        kilowatt of board TDP, so cost-per-token objectives are always
        computable; boards with an explicit ``cost_per_hour`` (every zoo
        entry) use the market rate instead.
        """
        if self.cost_per_hour is not None:
            return self.cost_per_hour
        return self.tdp_w / 1000.0 * DEFAULT_USD_PER_KW_HOUR

    @property
    def effective_bandwidth_bytes_s(self) -> float:
        return self.memory_bandwidth_bytes_s * self.bandwidth_efficiency
