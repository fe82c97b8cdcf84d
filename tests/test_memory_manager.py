"""Device-memory checks of the serving engine: the weights must fit, and
each run's KV pool is sized by the deployment's capacity model."""

import pytest

from repro.frameworks.base import get_framework
from repro.hardware.zoo import get_hardware
from repro.models.zoo import get_model
from repro.perf.parallelism import ParallelismPlan
from repro.perf.phases import Deployment
from repro.runtime.engine import ServingEngine
from repro.runtime.paged_kv import OutOfMemoryError


def _pool(dep):
    return ServingEngine(dep).start().scheduler.allocator


def _dep(model="LLaMA-3-8B", hw="A100", fw="vLLM", **kwargs):
    return Deployment(get_model(model), get_hardware(hw), get_framework(fw), **kwargs)


class TestWeightFit:
    def test_7b_fits_on_one_a100(self):
        engine = ServingEngine(_dep())
        assert engine.deployment.capacity.kv_budget_bytes > 0

    def test_70b_rejected_on_one_a100(self):
        with pytest.raises(OutOfMemoryError, match="exceed"):
            ServingEngine(_dep(model="LLaMA-2-70B"))

    def test_70b_fits_on_4xh100(self):
        pool = _pool(_dep(model="LLaMA-2-70B", hw="H100", plan=ParallelismPlan(tp=4)))
        assert pool.capacity_tokens > 10000

    def test_llamacpp_70b_rejected_on_a100_node(self):
        """Fig. 32: llama.cpp's buffers push 70B past the 4x40 GB node."""
        with pytest.raises(OutOfMemoryError):
            ServingEngine(
                _dep(model="LLaMA-2-70B", fw="llama.cpp", plan=ParallelismPlan(tp=4))
            )

    def test_vllm_70b_squeezes_into_a100_node(self):
        """...while vLLM fits with a sliver of KV budget (Figs. 7/9)."""
        pool = _pool(_dep(model="LLaMA-2-70B", fw="vLLM", plan=ParallelismPlan(tp=4)))
        assert 0 < pool.capacity_tokens < 100000


class TestAllocatorConstruction:
    """A paged deployment's pool has the framework's block size; a
    contiguous one's has 1-token blocks, so conservative admission
    reserves exactly the final context."""

    def test_paged_framework_gets_paged_allocator(self):
        pool = _pool(_dep(fw="vLLM"))
        assert pool.block_size == 16

    def test_contiguous_framework_gets_contiguous(self):
        dep = _dep(fw="llama.cpp")
        pool = _pool(dep)
        assert pool.block_size == 1
        assert pool.capacity_tokens == dep.capacity.kv_budget_tokens

    def test_gaudi2_gets_contiguous_despite_vllm(self):
        dep = _dep(hw="Gaudi2", fw="vLLM")
        assert not dep.kv_spec.paged
        assert _pool(dep).block_size == 1

    def test_workspace_inflates_per_token_cost(self):
        a100 = _dep().capacity.kv_bytes_per_token
        gaudi = _dep(hw="Gaudi2").capacity.kv_bytes_per_token
        assert gaudi > a100

    def test_budget_tokens_consistent_with_bytes(self):
        capacity = _dep().capacity
        assert capacity.kv_budget_tokens == int(
            capacity.kv_budget_bytes // capacity.kv_bytes_per_token
        )
