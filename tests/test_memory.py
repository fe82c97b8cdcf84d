"""Tests for the memory-system model (usable capacity + tiered bandwidth)
and the per-deployment capacity model built on it."""

from dataclasses import replace

import pytest

from repro.frameworks.base import get_framework
from repro.hardware.memory import MemoryModel
from repro.hardware.spec import GB
from repro.hardware.zoo import get_hardware
from repro.models.kvcache import kv_bytes_per_token
from repro.models.zoo import get_model
from repro.perf.parallelism import ParallelismPlan
from repro.perf.phases import Deployment


def _dep(model="LLaMA-2-7B", hw="A100", fw="vLLM", tp=1) -> Deployment:
    return Deployment(
        get_model(model), get_hardware(hw), get_framework(fw), ParallelismPlan(tp=tp)
    )


class TestCapacity:
    def test_usable_scales_with_devices(self, a100):
        one = MemoryModel(a100, 1).usable_bytes
        four = MemoryModel(a100, 4).usable_bytes
        assert four == pytest.approx(4 * one)

    def test_rejects_too_many_devices(self, a100):
        with pytest.raises(ValueError, match="devices"):
            MemoryModel(a100, 5)

    def test_fits(self):
        assert _dep().capacity.weights_fit
        assert not _dep(model="LLaMA-2-70B").capacity.weights_fit

    def test_kv_budget_never_negative(self):
        capacity = _dep(model="LLaMA-2-70B").capacity
        assert capacity.kv_budget_bytes == 0.0
        assert capacity.kv_budget_tokens == 0
        assert capacity.max_concurrency(1024) == 0

    def test_max_concurrent_sequences(self):
        dep = _dep()
        capacity = dep.capacity
        weights = dep.model.total_params * 2.0 * dep.framework.memory_overhead_factor
        assert capacity.weight_bytes == weights
        budget = capacity.usable_bytes - weights
        assert capacity.kv_budget_bytes == budget
        # Paged: 1000 tokens reserve 63 blocks of 16.
        per_seq = 1008 * kv_bytes_per_token(dep.model) * 1.05
        assert capacity.kv_bytes_per_sequence(1000) == per_seq
        assert capacity.max_concurrency(1000) == int(budget // per_seq)

    def test_max_concurrent_includes_workspace(self):
        dep = _dep(hw="H100")
        bare = replace(
            dep, hardware=replace(dep.hardware, workspace_overhead_factor=0.0)
        )
        with_ws, without = dep.capacity, bare.capacity
        factor = 1.0 + dep.hardware.workspace_overhead_factor
        assert with_ws.kv_bytes_per_token == without.kv_bytes_per_token * factor
        assert with_ws.kv_bytes_per_sequence(4096) == pytest.approx(
            without.kv_bytes_per_sequence(4096) * factor
        )
        assert with_ws.max_concurrency(4096) < without.max_concurrency(4096)

    def test_gh200_capacity_includes_grace(self):
        spec = get_hardware("GH200")
        gh200 = MemoryModel(spec, 1)
        # Usable capacity well beyond the 96 GB HBM: Grace LPDDR5X counts.
        assert gh200.usable_bytes > 200 * GB
        assert spec.usable_memory_bytes(1) < 100 * GB


class TestTieredBandwidth:
    def test_flat_gpu_bandwidth_is_constant(self, a100):
        mem = MemoryModel(a100, 1)
        small = mem.effective_stream_bandwidth(1 * GB)
        large = mem.effective_stream_bandwidth(30 * GB)
        assert small == pytest.approx(large)
        assert small == pytest.approx(a100.effective_bandwidth_bytes_s)

    def test_bandwidth_aggregates_over_devices(self, a100):
        one = MemoryModel(a100, 1).effective_stream_bandwidth(8 * GB)
        four = MemoryModel(a100, 4).effective_stream_bandwidth(8 * GB)
        assert four == pytest.approx(4 * one)

    def test_sn40l_small_working_set_hits_sram(self):
        sn40l = MemoryModel(get_hardware("SN40L"), 8)
        spec = get_hardware("SN40L")
        tiny = sn40l.effective_stream_bandwidth(8 * 100 * 1024**2)  # < SRAM
        assert tiny > 5 * spec.effective_bandwidth_bytes_s * 8

    def test_sn40l_bandwidth_decreases_with_working_set(self):
        sn40l = MemoryModel(get_hardware("SN40L"), 8)
        sizes = [1 * GB, 16 * GB, 256 * GB, 1024 * GB]
        bws = [sn40l.effective_stream_bandwidth(s) for s in sizes]
        assert bws == sorted(bws, reverse=True)

    def test_gh200_spill_degrades_to_lpddr(self):
        gh200 = MemoryModel(get_hardware("GH200"), 1)
        in_hbm = gh200.effective_stream_bandwidth(50 * GB)
        spilled = gh200.effective_stream_bandwidth(400 * GB)
        assert spilled < in_hbm
        # Deep spill approaches the LPDDR5X rate from above.
        assert spilled > 500e9

    def test_rejects_zero_working_set(self, a100):
        with pytest.raises(ValueError):
            MemoryModel(a100, 1).effective_stream_bandwidth(0.0)
