"""Property-based tests (hypothesis) on core invariants."""

import math

import pytest

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.metrics import inter_token_latency, throughput_tokens_per_s
from repro.core.request import GenerationConfig
from repro.evaluation.tokenizer import ByteBPETokenizer
from repro.frameworks.base import get_framework
from repro.hardware.zoo import get_hardware
from repro.models.kvcache import KVCacheSpec
from repro.models.zoo import get_model
from repro.perf.attention import paged_block_multiplier
from repro.perf.estimator import InferenceEstimator
from repro.perf.parallelism import ParallelismPlan, pipeline_factor
from repro.perf.phases import Deployment, decode_step_cost
from repro.perf.speculative import expected_tokens_per_iteration
from repro.runtime.paged_kv import PagedKVAllocator

_DEP = Deployment(
    get_model("LLaMA-3-8B"), get_hardware("A100"), get_framework("vLLM")
)
_EST = InferenceEstimator(_DEP)


class TestMetricProperties:
    @given(
        ttft=st.floats(0.001, 10.0),
        decode=st.floats(0.001, 100.0),
        batch=st.integers(1, 256),
        out=st.integers(2, 4096),
    )
    def test_itl_positive_and_scales(self, ttft, decode, batch, out):
        itl = inter_token_latency(ttft + decode, ttft, batch, out)
        assert itl > 0
        # Floating-point: (ttft + decode) - ttft loses a few ulps.
        assert itl == pytest.approx(decode / (batch * (out - 1)), rel=1e-6)

    @given(
        batch=st.integers(1, 256),
        inp=st.integers(0, 8192),
        out=st.integers(0, 8192),
        latency=st.floats(1e-3, 1e4),
    )
    def test_throughput_finite_nonnegative(self, batch, inp, out, latency):
        tput = throughput_tokens_per_s(batch, inp, out, latency)
        assert tput >= 0
        assert math.isfinite(tput)


class TestAllocatorProperties:
    @given(
        data=st.data(),
        total_blocks=st.integers(4, 64),
        block_size=st.integers(1, 64),
    )
    @settings(max_examples=50, deadline=None)
    def test_block_accounting_never_negative(self, data, total_blocks, block_size):
        """Random admit/append/free sequences keep the pool consistent."""
        alloc = PagedKVAllocator(total_blocks, block_size)
        live: dict[int, int] = {}  # seq_id -> remaining growth
        next_id = 0
        for _ in range(data.draw(st.integers(1, 30))):
            action = data.draw(st.sampled_from(["admit", "append", "free"]))
            if action == "admit":
                prompt = data.draw(st.integers(1, 40))
                growth = data.draw(st.integers(0, 20))
                if alloc.can_admit(prompt + growth):
                    alloc.admit(next_id, prompt, prompt + growth)
                    live[next_id] = growth
                    next_id += 1
            elif action == "append" and live:
                seq = data.draw(st.sampled_from(sorted(live)))
                if live[seq] > 0:
                    alloc.append_token(seq)
                    live[seq] -= 1
            elif action == "free" and live:
                seq = data.draw(st.sampled_from(sorted(live)))
                alloc.free(seq)
                del live[seq]
            assert 0 <= alloc.free_blocks <= total_blocks
            assert alloc.used_tokens <= alloc.capacity_tokens
            assert alloc.internal_fragmentation_tokens >= 0
        for seq in list(live):
            alloc.free(seq)
        assert alloc.free_blocks == total_blocks


class TestPerfModelProperties:
    @given(batch=st.integers(1, 64), ctx=st.integers(1, 4096))
    @settings(max_examples=40, deadline=None)
    def test_decode_step_finite_positive(self, batch, ctx):
        bd = decode_step_cost(_DEP, batch, ctx).breakdown
        assert math.isfinite(bd.total_s)
        assert bd.total_s > 0

    @given(ctx=st.integers(1, 4000), delta=st.integers(1, 1000))
    @settings(max_examples=40, deadline=None)
    def test_decode_step_monotone_in_context(self, ctx, delta):
        assert (
            decode_step_cost(_DEP, 8, ctx + delta).breakdown.total_s
            >= decode_step_cost(_DEP, 8, ctx).breakdown.total_s
        )

    @given(batch=st.integers(1, 64), length=st.integers(16, 2048))
    @settings(max_examples=25, deadline=None)
    def test_estimator_invariants(self, batch, length):
        m = _EST.estimate(GenerationConfig(length, length, batch))
        if m.oom:
            return
        assert m.end_to_end_latency_s >= m.ttft_s > 0
        assert m.throughput_tokens_per_s > 0
        spec = _DEP.hardware
        assert spec.idle_power_w <= m.average_power_w <= spec.tdp_w

    @given(block=st.integers(1, 256))
    def test_paged_penalty_at_least_one(self, block):
        assert paged_block_multiplier(KVCacheSpec(block_size=block)) >= 1.0

    @given(pp=st.integers(1, 8), batch=st.integers(1, 128))
    def test_pipeline_factor_bounds(self, pp, batch):
        factor = pipeline_factor(ParallelismPlan(pp=pp), batch)
        assert 1.0 <= factor <= pp

    @given(a=st.floats(0.0, 0.999), gamma=st.integers(1, 16))
    def test_expected_tokens_bounds(self, a, gamma):
        expected = expected_tokens_per_iteration(a, gamma)
        assert 1.0 <= expected <= gamma + 1


class TestTokenizerProperties:
    @given(
        words=st.lists(
            st.text(
                alphabet=st.characters(min_codepoint=97, max_codepoint=122),
                min_size=1,
                max_size=8,
            ),
            min_size=1,
            max_size=20,
        )
    )
    @settings(max_examples=30, deadline=None)
    def test_roundtrip_any_ascii_words(self, words):
        corpus = " ".join(["hello world this is training text"] * 5)
        tok = ByteBPETokenizer(vocab_size=300).train(corpus)
        text = " ".join(words)
        assert tok.decode(tok.encode(text)) == text


class TestEngineProperties:
    @given(
        batch=st.integers(1, 8),
        input_tokens=st.integers(8, 256),
        output_tokens=st.integers(1, 64),
        concurrency=st.integers(1, 8),
    )
    @settings(max_examples=20, deadline=None)
    def test_engine_conservation_laws(
        self, batch, input_tokens, output_tokens, concurrency
    ):
        """Random fixed-batch workloads: every request finishes with
        exactly its token budget, timestamps are ordered, and the
        allocator pool drains back to empty."""
        from repro.runtime.engine import ServingEngine
        from repro.runtime.workload import fixed_batch_trace

        engine = ServingEngine(_DEP, max_concurrency=concurrency)
        result = engine.run(fixed_batch_trace(batch, input_tokens, output_tokens))
        for request in result.requests:
            assert request.is_finished
            assert request.generated_tokens == request.output_tokens
            assert request.first_token_time is not None
            assert request.finish_time >= request.first_token_time
        assert result.total_time_s > 0
        assert result.scheduler_stats.finished == batch

    @given(
        batch=st.integers(2, 10),
        concurrency=st.integers(1, 4),
    )
    @settings(max_examples=15, deadline=None)
    def test_optimistic_engine_conserves_tokens(self, batch, concurrency):
        from repro.runtime.engine import ServingEngine
        from repro.runtime.workload import fixed_batch_trace

        engine = ServingEngine(_DEP, max_concurrency=concurrency, optimistic=True)
        result = engine.run(fixed_batch_trace(batch, 64, 48))
        assert all(r.generated_tokens == 48 for r in result.requests)
