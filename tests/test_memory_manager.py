"""Tests for the runtime memory manager."""

import pytest

from repro.frameworks.base import get_framework
from repro.hardware.zoo import get_hardware
from repro.models.zoo import get_model
from repro.perf.parallelism import ParallelismPlan
from repro.perf.phases import Deployment
from repro.runtime.memory_manager import MemoryManager, OutOfMemoryError
from repro.runtime.paged_kv import ContiguousKVAllocator, PagedKVAllocator


def _dep(model="LLaMA-3-8B", hw="A100", fw="vLLM", **kwargs):
    return Deployment(get_model(model), get_hardware(hw), get_framework(fw), **kwargs)


class TestWeightFit:
    def test_7b_fits_on_one_a100(self):
        manager = MemoryManager(_dep())
        assert manager.capacity.kv_budget_bytes > 0

    def test_70b_rejected_on_one_a100(self):
        with pytest.raises(OutOfMemoryError, match="exceed"):
            MemoryManager(_dep(model="LLaMA-2-70B"))

    def test_70b_fits_on_4xh100(self):
        manager = MemoryManager(
            _dep(model="LLaMA-2-70B", hw="H100", plan=ParallelismPlan(tp=4))
        )
        assert manager.capacity.kv_budget_tokens > 10000

    def test_llamacpp_70b_rejected_on_a100_node(self):
        """Fig. 32: llama.cpp's buffers push 70B past the 4x40 GB node."""
        with pytest.raises(OutOfMemoryError):
            MemoryManager(
                _dep(model="LLaMA-2-70B", fw="llama.cpp", plan=ParallelismPlan(tp=4))
            )

    def test_vllm_70b_squeezes_into_a100_node(self):
        """...while vLLM fits with a sliver of KV budget (Figs. 7/9)."""
        manager = MemoryManager(
            _dep(model="LLaMA-2-70B", fw="vLLM", plan=ParallelismPlan(tp=4))
        )
        assert 0 < manager.capacity.kv_budget_tokens < 100000


class TestAllocatorConstruction:
    def test_paged_framework_gets_paged_allocator(self):
        allocator = MemoryManager(_dep(fw="vLLM")).build_allocator()
        assert isinstance(allocator, PagedKVAllocator)
        assert allocator.block_size == 16

    def test_contiguous_framework_gets_contiguous(self):
        allocator = MemoryManager(_dep(fw="llama.cpp")).build_allocator()
        assert isinstance(allocator, ContiguousKVAllocator)

    def test_gaudi2_gets_contiguous_despite_vllm(self):
        dep = _dep(hw="Gaudi2", fw="vLLM")
        allocator = MemoryManager(dep).build_allocator()
        assert isinstance(allocator, ContiguousKVAllocator)

    def test_workspace_inflates_per_token_cost(self):
        a100 = MemoryManager(_dep()).capacity.kv_bytes_per_token
        gaudi = MemoryManager(_dep(hw="Gaudi2")).capacity.kv_bytes_per_token
        assert gaudi > a100

    def test_budget_tokens_consistent_with_bytes(self):
        manager = MemoryManager(_dep())
        assert manager.capacity.kv_budget_tokens == int(
            manager.capacity.kv_budget_bytes // manager.capacity.kv_bytes_per_token
        )
