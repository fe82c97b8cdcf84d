"""Microbenchmarks of the simulator's own substrates.

These are *performance* benches of the reproduction code itself (allocator
throughput, engine iteration rate, tokenizer training, n-gram scoring),
complementing the per-figure reproductions: they keep the simulator fast
enough that full-suite reproduction stays interactive.
"""

from __future__ import annotations

from repro.core.request import GenerationConfig
from repro.evaluation.datasets import unified_corpus
from repro.evaluation.perplexity import NGramLanguageModel
from repro.evaluation.tokenizer import ByteBPETokenizer
from repro.frameworks.base import get_framework
from repro.hardware.zoo import get_hardware
from repro.models.zoo import get_model
from repro.perf.estimator import InferenceEstimator
from repro.perf.phases import Deployment, decode_step_cost
from repro.runtime.engine import ServingEngine
from repro.runtime.paged_kv import PagedKVAllocator
from repro.runtime.workload import fixed_batch_trace


def _dep() -> Deployment:
    return Deployment(
        get_model("LLaMA-3-8B"), get_hardware("A100"), get_framework("vLLM")
    )


def test_bench_decode_step_model(benchmark):
    dep = _dep()
    result = benchmark(decode_step_cost, dep, 32, 2048)
    assert result.breakdown.total_s > 0


def test_bench_estimator_point(benchmark):
    est = InferenceEstimator(_dep())
    config = GenerationConfig(1024, 1024, 32)
    metrics = benchmark(est.estimate, config)
    assert metrics.throughput_tokens_per_s > 0


def test_bench_engine_coalesced_run(benchmark):
    dep = _dep()

    def run():
        engine = ServingEngine(dep, max_concurrency=16)
        return engine.run(fixed_batch_trace(16, 512, 512))

    result = benchmark(run)
    assert result.total_time_s > 0


def test_bench_engine_stepwise_run(benchmark):
    dep = _dep()

    def run():
        engine = ServingEngine(dep, max_concurrency=8, coalesce=False)
        return engine.run(fixed_batch_trace(8, 128, 128))

    result = benchmark(run)
    assert result.decode_steps == 127


def test_bench_paged_allocator_churn(benchmark):
    def churn():
        alloc = PagedKVAllocator(total_blocks=4096, block_size=16)
        for wave in range(4):
            for seq in range(128):
                alloc.admit(wave * 128 + seq, 64, 128)
            for seq in range(128):
                for _ in range(64):
                    alloc.append_token(wave * 128 + seq)
            for seq in range(128):
                alloc.free(wave * 128 + seq)
        return alloc.free_blocks

    free = benchmark(churn)
    assert free == 4096


def test_bench_tokenizer_training(benchmark):
    corpus = unified_corpus(num_documents=3, words_per_document=120, seed=1)
    tok = benchmark(lambda: ByteBPETokenizer(vocab_size=320).train(corpus))
    assert tok.actual_vocab_size > 256


def test_bench_ngram_scoring(benchmark):
    corpus = unified_corpus(num_documents=3, words_per_document=120, seed=2)
    tok = ByteBPETokenizer(vocab_size=300).train(corpus)
    tokens = tok.encode(corpus)
    model = NGramLanguageModel(order=3, vocab_size=tok.actual_vocab_size)
    model.fit(tokens[: len(tokens) // 2])
    held = tokens[len(tokens) // 2 :][:2000]
    ppl = benchmark(model.perplexity, held)
    assert ppl > 1.0
