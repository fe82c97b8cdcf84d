"""Tests for HardwareSpec validation and derived queries."""

import pytest

from repro.core.precision import Precision
from repro.hardware.spec import (
    GB,
    HardwareSpec,
    InterconnectSpec,
    MemoryTierSpec,
    Vendor,
)


def _spec(**overrides) -> HardwareSpec:
    params = dict(
        name="test-hw",
        vendor=Vendor.NVIDIA,
        devices_per_node=4,
        memory_per_device_bytes=40 * GB,
        memory_bandwidth_bytes_s=1.5e12,
        peak_fp16_tflops=300.0,
        supported_precisions=frozenset({Precision.FP16, Precision.INT8}),
        interconnect=InterconnectSpec("test-link", 600.0, 2.0),
        tdp_w=400.0,
        idle_power_w=60.0,
    )
    params.update(overrides)
    return HardwareSpec(**params)


class TestValidation:
    def test_valid_spec_builds(self):
        assert _spec().name == "test-hw"

    def test_rejects_zero_devices(self):
        with pytest.raises(ValueError, match="devices_per_node"):
            _spec(devices_per_node=0)

    def test_rejects_idle_above_tdp(self):
        with pytest.raises(ValueError, match="idle power"):
            _spec(idle_power_w=500.0)

    def test_requires_16_bit_support(self):
        with pytest.raises(ValueError, match="16-bit"):
            _spec(supported_precisions=frozenset({Precision.FP32}))

    def test_bf16_only_satisfies_16_bit(self):
        spec = _spec(supported_precisions=frozenset({Precision.BF16}))
        assert spec.supports(Precision.FP16)  # interchangeable 16-bit

    def test_rejects_bad_mfu(self):
        with pytest.raises(ValueError, match="mfu_ceiling"):
            _spec(mfu_ceiling=1.5)

    def test_rejects_bad_bandwidth_efficiency(self):
        with pytest.raises(ValueError, match="bandwidth_efficiency"):
            _spec(bandwidth_efficiency=0.0)


class TestPeakFlops:
    def test_native_int8_doubles(self):
        spec = _spec()
        assert spec.peak_flops(Precision.INT8) == pytest.approx(
            2 * spec.peak_flops(Precision.FP16)
        )

    def test_unsupported_fp8_falls_back_to_fp16_rate(self):
        spec = _spec()  # no FP8
        assert spec.peak_flops(Precision.FP8) == spec.peak_flops(Precision.FP16)

    def test_fp32_runs_at_half_rate(self):
        spec = _spec(
            supported_precisions=frozenset({Precision.FP16, Precision.FP32})
        )
        assert spec.peak_flops(Precision.FP32) == pytest.approx(
            0.5 * spec.peak_flops(Precision.FP16)
        )

    def test_string_lookup(self):
        assert _spec().supports("fp16")
        assert not _spec().supports("fp8")


class TestMemoryQueries:
    def test_usable_memory_scales_with_devices(self):
        spec = _spec(memory_utilization=0.9)
        assert spec.usable_memory_bytes(2) == pytest.approx(2 * 40 * GB * 0.9)

    def test_usable_memory_rejects_oversubscription(self):
        with pytest.raises(ValueError, match="devices"):
            _spec().usable_memory_bytes(8)

    def test_effective_bandwidth(self):
        spec = _spec(bandwidth_efficiency=0.8)
        assert spec.effective_bandwidth_bytes_s == pytest.approx(1.2e12)


class TestInterconnectSpec:
    def test_unit_conversions(self):
        link = InterconnectSpec("x", 600.0, 2.0)
        assert link.bandwidth_bytes_s == 600e9
        assert link.latency_s == pytest.approx(2e-6)

    def test_rejects_zero_bandwidth(self):
        with pytest.raises(ValueError):
            InterconnectSpec("x", 0.0, 1.0)


class TestMemoryTierSpec:
    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            MemoryTierSpec("t", 0, 1.0)
        with pytest.raises(ValueError):
            MemoryTierSpec("t", 1.0, 0)
