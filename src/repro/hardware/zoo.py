"""Accelerator registry reproducing the paper's Table II.

Datasheet numbers (memory, bandwidth, peak FLOPs, interconnect, TDP) come
from the vendor whitepapers the paper cites.  Behavioural parameters encode
the paper's qualitative findings per platform:

* **A100 / H100 / GH200** — well-tuned software stacks, high efficiency;
  H100/GH200 add native FP8; GH200 adds HBM3 bandwidth and more memory.
* **MI250 / MI300X** — "out-of-the-box without special optimization flags"
  (paper footnote 1), hence lower efficiency ceilings; MI250 additionally
  saturates early and *declines* past batch 32 (Fig. 17/35) due to the NUMA
  balancing / page-fault behaviour described in Section VI-2.
* **Gaudi2** — strong matmul efficiency from overlapped MME+TPC execution
  (beats A100, Section VI-4) but larger static workspaces and contiguous KV
  allocation, hitting OOM at batch 32/64 in several scenarios.
* **SN40L** — dataflow execution with aggressive kernel fusion (negligible
  per-layer overhead), a three-tier memory system, and a per-request
  pipeline-setup cost that yields the paper's high-TTFT / low-ITL signature
  (Figs. 21/22).
"""

from __future__ import annotations

import math

from repro.core import UnknownNameError
from repro.core.precision import Precision
from repro.hardware.spec import (
    GB,
    HardwareSpec,
    InterconnectSpec,
    MemoryTierSpec,
    Vendor,
)

__all__ = ["HARDWARE_ZOO", "get_hardware", "list_hardware", "register_hardware"]


def _precisions(*names: str) -> frozenset[Precision]:
    return frozenset(Precision(n) for n in names)


HARDWARE_ZOO: dict[str, HardwareSpec] = {}


def register_hardware(spec: HardwareSpec) -> HardwareSpec:
    """Add a platform to the registry, validating optimizer metadata.

    Cost-per-token and energy-per-token objectives
    (:mod:`repro.analysis.optimize`) must be computable for *every*
    registered platform, so registration rejects specs whose economic
    metadata is unusable: the hourly cost (explicit or TDP-derived) and
    board TDP must be positive finite numbers.  ``HardwareSpec`` already
    validates TDP > idle; this gate catches inf/NaN smuggled through
    floats.
    """
    key = spec.name.lower()
    if key in HARDWARE_ZOO:
        raise ValueError(f"hardware {spec.name!r} already registered")
    for label, value in (("hourly_cost", spec.hourly_cost), ("tdp_w", spec.tdp_w)):
        if not (math.isfinite(value) and value > 0):
            raise ValueError(
                f"{spec.name}: {label} must be positive and finite "
                f"(got {value}); cost/energy objectives need it"
            )
    HARDWARE_ZOO[key] = spec
    return spec


A100 = register_hardware(
    HardwareSpec(
        name="A100",
        vendor=Vendor.NVIDIA,
        devices_per_node=4,
        memory_per_device_bytes=40 * GB,
        memory_bandwidth_bytes_s=1.555e12,
        peak_fp16_tflops=312.0,
        supported_precisions=_precisions(
            "fp32", "tf32", "fp16", "bf16", "int8", "int4"
        ),
        interconnect=InterconnectSpec("NVLink3", 600.0, 2.0),
        tdp_w=400.0,
        idle_power_w=60.0,
        cost_per_hour=1.80,  # USD/device-h: Azure/Lambda A100-40GB on-demand band
        mfu_ceiling=0.55,
        bandwidth_efficiency=0.80,
        mfu_half_batch=4.0,
        layer_overhead_s=4.0e-6,
        step_overhead_s=40.0e-6,
    )
)

H100 = register_hardware(
    HardwareSpec(
        name="H100",
        vendor=Vendor.NVIDIA,
        devices_per_node=4,
        memory_per_device_bytes=80 * GB,
        memory_bandwidth_bytes_s=3.35e12,
        peak_fp16_tflops=989.0,
        supported_precisions=_precisions(
            "fp32", "tf32", "fp16", "bf16", "fp8", "int8", "int4"
        ),
        interconnect=InterconnectSpec("NVLink4", 900.0, 1.8),
        tdp_w=700.0,
        idle_power_w=80.0,
        cost_per_hour=3.90,  # USD/device-h: typical H100-80GB on-demand rate
        mfu_ceiling=0.60,
        bandwidth_efficiency=0.82,
        mfu_half_batch=6.0,
        layer_overhead_s=3.0e-6,
        step_overhead_s=35.0e-6,
    )
)

GH200 = register_hardware(
    HardwareSpec(
        name="GH200",
        vendor=Vendor.NVIDIA,
        devices_per_node=1,
        memory_per_device_bytes=96 * GB,
        memory_bandwidth_bytes_s=4.02e12,
        peak_fp16_tflops=989.0,
        supported_precisions=_precisions(
            "fp32", "tf32", "fp16", "bf16", "fp8", "int8", "int4"
        ),
        interconnect=InterconnectSpec("NVLink-C2C", 900.0, 1.5),
        tdp_w=900.0,
        idle_power_w=100.0,
        cost_per_hour=4.80,  # USD/device-h: GH200 96GB superchip hourly (Lambda band)
        mfu_ceiling=0.62,
        bandwidth_efficiency=0.84,
        mfu_half_batch=6.0,
        layer_overhead_s=3.0e-6,
        step_overhead_s=30.0e-6,
        # Grace CPU LPDDR5X accessible over NVLink-C2C: spill tier that lets
        # GH200 keep scaling batch where H100 would OOM ("3.5x more memory",
        # Section V-2).
        ddr_tier=MemoryTierSpec("lpddr5x", 480 * GB, 500e9),
    )
)

MI250 = register_hardware(
    HardwareSpec(
        name="MI250",
        vendor=Vendor.AMD,
        devices_per_node=4,
        memory_per_device_bytes=128 * GB,
        memory_bandwidth_bytes_s=3.2e12,
        peak_fp16_tflops=362.0,
        supported_precisions=_precisions("fp32", "fp16", "bf16", "int8"),
        interconnect=InterconnectSpec("InfinityFabric2", 350.0, 3.0),
        tdp_w=560.0,
        idle_power_w=90.0,
        cost_per_hour=1.90,  # USD/device-h: MI250 OAM hourly (Azure ND-series band)
        mfu_ceiling=0.42,
        bandwidth_efficiency=0.60,
        mfu_half_batch=5.0,
        layer_overhead_s=6.0e-6,
        step_overhead_s=60.0e-6,
        saturation_batch=32,
        saturation_slope=0.018,
    )
)

MI300X = register_hardware(
    HardwareSpec(
        name="MI300X",
        vendor=Vendor.AMD,
        devices_per_node=8,
        memory_per_device_bytes=192 * GB,
        memory_bandwidth_bytes_s=5.3e12,
        peak_fp16_tflops=1307.0,
        supported_precisions=_precisions("fp32", "fp16", "bf16", "fp8", "int8"),
        interconnect=InterconnectSpec("InfinityFabric3", 448.0, 2.5),
        tdp_w=750.0,
        idle_power_w=110.0,
        cost_per_hour=3.00,  # USD/device-h: MI300X on-demand band
        mfu_ceiling=0.48,
        bandwidth_efficiency=0.65,
        mfu_half_batch=6.0,
        layer_overhead_s=5.0e-6,
        step_overhead_s=50.0e-6,
        saturation_batch=48,
        saturation_slope=0.008,
    )
)

GAUDI2 = register_hardware(
    HardwareSpec(
        name="Gaudi2",
        vendor=Vendor.INTEL_HABANA,
        devices_per_node=8,
        memory_per_device_bytes=96 * GB,
        memory_bandwidth_bytes_s=2.46e12,
        peak_fp16_tflops=432.0,
        supported_precisions=_precisions("fp32", "fp16", "bf16", "fp8"),
        interconnect=InterconnectSpec("RoCEv2", 300.0, 5.0),
        tdp_w=600.0,
        idle_power_w=100.0,
        cost_per_hour=1.60,  # USD/device-h: AWS DL1-style per-device rate
        # Overlapped MME/TPC execution and many small matrix engines give
        # Gaudi2 a high achievable efficiency (beats A100, Section VI-4)...
        mfu_ceiling=0.66,
        bandwidth_efficiency=0.72,
        mfu_half_batch=4.0,
        layer_overhead_s=5.0e-6,
        step_overhead_s=60.0e-6,
        # ...but large static workspaces and contiguous max-length KV
        # reservations exhaust memory quickly (OOM at bs 32/64, footnote 1).
        memory_utilization=0.80,
        workspace_overhead_factor=0.35,
    )
)

SN40L = register_hardware(
    HardwareSpec(
        name="SN40L",
        vendor=Vendor.SAMBANOVA,
        devices_per_node=8,
        memory_per_device_bytes=64 * GB,
        memory_bandwidth_bytes_s=2.0e12,
        peak_fp16_tflops=638.0,
        supported_precisions=_precisions("fp32", "bf16", "int8"),
        interconnect=InterconnectSpec("Inter-RDU", 240.0, 4.0),
        tdp_w=700.0,
        idle_power_w=120.0,
        cost_per_hour=4.50,  # USD/device-h: SambaNova cloud estimate (no public rate)
        mfu_ceiling=0.58,
        bandwidth_efficiency=0.90,
        mfu_half_batch=3.0,
        # Dataflow fusion: whole layer groups execute as one fused pipeline,
        # so per-layer overhead nearly vanishes and decode is fast (low ITL,
        # Fig. 22)...
        layer_overhead_s=0.5e-6,
        step_overhead_s=15.0e-6,
        # ...but each request pays a pipeline setup/compile-dispatch cost,
        # the paper's high-TTFT signature (Fig. 21).
        request_setup_s=0.12,
        # Three-tier memory (Appendix B-6): 520 MiB on-chip SRAM at hundreds
        # of TB/s, HBM, and DDR spill capacity.
        sram_tier=MemoryTierSpec("sram", 520 * 1024**2, 25e12),
        ddr_tier=MemoryTierSpec("ddr", 1536 * GB, 200e9),
    )
)


def get_hardware(name: str) -> HardwareSpec:
    """Case-insensitive registry lookup with a helpful error."""
    key = name.lower()
    if key not in HARDWARE_ZOO:
        known = ", ".join(sorted(HARDWARE_ZOO))
        raise UnknownNameError(f"unknown hardware {name!r}; known platforms: {known}")
    return HARDWARE_ZOO[key]


def list_hardware() -> list[str]:
    return [spec.name for spec in HARDWARE_ZOO.values()]
