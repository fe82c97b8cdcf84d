"""Hardware platforms: Table II registry, roofline, memory, power models."""

from repro.hardware.energy import EnergyReport, energy_report
from repro.hardware.interconnect import (
    all_to_all_time,
    allgather_time,
    allreduce_time,
    p2p_time,
    reduce_scatter_time,
)
from repro.hardware.memory import MemoryModel
from repro.hardware.power import PowerModel, PowerSample, PynvmlLikeMonitor
from repro.hardware.roofline import (
    compute_time,
    memory_time,
    mfu_at_batch,
    roofline_time,
    saturation_penalty,
)
from repro.hardware.spec import (
    GB,
    TB,
    HardwareSpec,
    InterconnectSpec,
    MemoryTierSpec,
    Vendor,
)
from repro.hardware.zoo import (
    HARDWARE_ZOO,
    get_hardware,
    list_hardware,
    register_hardware,
)

__all__ = [
    "EnergyReport",
    "energy_report",
    "all_to_all_time",
    "allgather_time",
    "allreduce_time",
    "p2p_time",
    "reduce_scatter_time",
    "MemoryModel",
    "PowerModel",
    "PowerSample",
    "PynvmlLikeMonitor",
    "compute_time",
    "memory_time",
    "mfu_at_batch",
    "roofline_time",
    "saturation_penalty",
    "GB",
    "TB",
    "HardwareSpec",
    "InterconnectSpec",
    "MemoryTierSpec",
    "Vendor",
    "HARDWARE_ZOO",
    "get_hardware",
    "list_hardware",
    "register_hardware",
]
