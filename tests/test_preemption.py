"""Tests for optimistic admission and recompute preemption (vLLM policy)."""

import pytest

from repro.core.request import GenerationRequest, RequestState
from repro.frameworks.base import get_framework
from repro.hardware.zoo import get_hardware
from repro.models.kvcache import KVCacheSpec
from repro.models.zoo import get_model
from repro.perf.phases import Deployment
from repro.runtime.engine import ServingEngine
from repro.runtime.paged_kv import AllocationError, PagedKVAllocator
from repro.runtime.scheduler import ContinuousBatchingScheduler
from repro.runtime.workload import fixed_batch_trace


def _dep():
    return Deployment(
        get_model("LLaMA-2-7B"), get_hardware("A100"), get_framework("vLLM")
    )


class TestOptimisticAllocator:
    def test_optimistic_reserves_only_prompt(self):
        alloc = PagedKVAllocator(10, 16)
        alloc.admit(1, prompt_tokens=16, final_context_tokens=160, optimistic=True)
        assert alloc.free_blocks == 9  # one block, not ten

    def test_optimistic_grows_on_demand(self):
        alloc = PagedKVAllocator(10, 16)
        alloc.admit(1, 16, 160, optimistic=True)
        for _ in range(16):
            alloc.append_token(1)
        assert alloc.free_blocks == 8
        assert alloc.context_tokens(1) == 32

    def test_growth_failure_raises_preemption_signal(self):
        alloc = PagedKVAllocator(2, 16)
        alloc.admit(1, 16, 64, optimistic=True)
        alloc.admit(2, 16, 64, optimistic=True)
        with pytest.raises(AllocationError, match="preemption"):
            alloc.append_token(1)

    def test_optimistic_packs_more_than_conservative(self):
        conservative = PagedKVAllocator(10, 16)
        optimistic = PagedKVAllocator(10, 16)
        admitted_c = admitted_o = 0
        for seq in range(10):
            if conservative.can_admit(80):
                conservative.admit(seq, 16, 80)
                admitted_c += 1
            if optimistic.can_admit(16):
                optimistic.admit(seq, 16, 80, optimistic=True)
                admitted_o += 1
        assert admitted_o > admitted_c


class TestRequestPreemption:
    def test_mark_preempted_records_context(self):
        req = GenerationRequest(100, 10)
        req.state = RequestState.DECODING
        req.generated_tokens = 4
        req.mark_preempted()
        assert req.state == RequestState.QUEUED
        assert req.restart_context == 104
        assert req.preemptions == 1
        assert req.prefill_tokens_needed == 104

    def test_cannot_preempt_queued(self):
        req = GenerationRequest(100, 10)
        with pytest.raises(RuntimeError, match="cannot preempt"):
            req.mark_preempted()


class TestSchedulerPreemption:
    def test_preempt_requeues_at_front(self):
        sched = ContinuousBatchingScheduler(
            PagedKVAllocator(100, 16), 8, optimistic=True
        )
        a = GenerationRequest(16, 8)
        b = GenerationRequest(16, 8)
        waiting = GenerationRequest(16, 8)
        for r in (a, b, waiting):
            sched.submit(r)
        sched.admit(0.0)
        # waiting stayed queued (concurrency is fine, but pretend); preempt b.
        if b in sched.running:
            sched.preempt(b)
            assert sched.waiting[0] is b
            assert sched.stats.preemptions == 1

    def test_preempt_rejects_non_running(self):
        sched = ContinuousBatchingScheduler(
            PagedKVAllocator(100, 16), 8, optimistic=True
        )
        req = GenerationRequest(16, 8)
        with pytest.raises(ValueError, match="not running"):
            sched.preempt(req)


class TestEnginePreemption:
    def test_overpacked_run_preempts_and_completes(self):
        engine = ServingEngine(_dep(), max_concurrency=24, optimistic=True)
        result = engine.run(fixed_batch_trace(24, 1800, 2200))
        assert all(r.is_finished for r in result.requests)
        assert result.scheduler_stats.preemptions > 0
        # Every request still produced exactly its output budget.
        for r in result.requests:
            assert r.generated_tokens == r.output_tokens

    def test_no_preemption_when_pool_is_roomy(self):
        engine = ServingEngine(_dep(), max_concurrency=4, optimistic=True)
        result = engine.run(fixed_batch_trace(4, 128, 128))
        assert result.scheduler_stats.preemptions == 0

    def test_optimistic_matches_conservative_when_roomy(self):
        a = ServingEngine(_dep(), max_concurrency=4, optimistic=True).run(
            fixed_batch_trace(4, 256, 256)
        )
        b = ServingEngine(_dep(), max_concurrency=4, optimistic=False).run(
            fixed_batch_trace(4, 256, 256)
        )
        assert a.total_time_s == pytest.approx(b.total_time_s, rel=1e-6)

    def test_optimistic_requires_paged_deployment(self):
        dep = _dep().with_kv_spec(KVCacheSpec(paged=False))
        with pytest.raises(ValueError, match="paged"):
            ServingEngine(dep, optimistic=True)

    def test_preempted_requests_report_counts(self):
        engine = ServingEngine(_dep(), max_concurrency=24, optimistic=True)
        result = engine.run(fixed_batch_trace(24, 1800, 2200))
        preempted = [r for r in result.requests if r.preemptions > 0]
        assert preempted
        assert sum(r.preemptions for r in result.requests) == (
            result.scheduler_stats.preemptions
        )
