"""Tests for bottleneck attribution and peak-batch search."""

import pytest

from repro.analysis import (
    Bottleneck,
    PhaseAttribution,
    analyze,
    find_peak_batch,
    throughput_curve,
)
from repro.core.metrics import LatencyBreakdown
from repro.core.request import GenerationConfig
from repro.frameworks.base import get_framework
from repro.hardware.zoo import get_hardware
from repro.models.zoo import get_model
from repro.perf.parallelism import ParallelismPlan
from repro.perf.phases import Deployment, decode_step_cost


def _dep(model="LLaMA-3-8B", hw="A100", fw="vLLM", **kwargs) -> Deployment:
    return Deployment(get_model(model), get_hardware(hw), get_framework(fw), **kwargs)


class TestPhaseAttribution:
    def test_shares_from_breakdown(self):
        bd = LatencyBreakdown(
            compute_s=1.0, weight_memory_s=2.0, kv_memory_s=1.0,
            overhead_s=0.5, total_s=4.0,
        )
        attribution = PhaseAttribution.from_breakdown("decode", bd)
        assert attribution.compute == pytest.approx(0.25)
        assert attribution.weight_bandwidth == pytest.approx(0.5)
        assert attribution.dominant is Bottleneck.WEIGHT_BANDWIDTH

    def test_rejects_empty_breakdown(self):
        with pytest.raises(ValueError, match="empty"):
            PhaseAttribution.from_breakdown("prefill", LatencyBreakdown())


class TestAnalyze:
    def test_prefill_is_compute_bound(self):
        report = analyze(_dep(), GenerationConfig(2048, 256, 16))
        assert report.prefill.dominant is Bottleneck.COMPUTE

    def test_decode_is_memory_bound(self):
        report = analyze(_dep(), GenerationConfig(128, 1024, 1))
        assert report.decode_is_memory_bound
        assert report.decode.dominant in (
            Bottleneck.WEIGHT_BANDWIDTH, Bottleneck.KV_BANDWIDTH,
        )

    def test_mhsa_long_context_shifts_to_kv(self):
        """At batch 64 / long context the MHSA KV stream dominates even
        the weight stream — the paper's KV-cache-pressure story."""
        report = analyze(_dep("LLaMA-2-7B"), GenerationConfig(2048, 1024, 48))
        assert report.decode.kv_bandwidth > report.decode.weight_bandwidth

    def test_decode_share_reflects_blend(self):
        gen_heavy = analyze(_dep(), GenerationConfig(128, 1024, 8))
        sum_heavy = analyze(_dep(), GenerationConfig(2048, 128, 8))
        assert gen_heavy.decode_share_of_e2e > sum_heavy.decode_share_of_e2e

    def test_operational_intensity_grows_with_batch(self):
        small = analyze(_dep(), GenerationConfig(512, 512, 1))
        large = analyze(_dep(), GenerationConfig(512, 512, 32))
        assert large.operational_intensity_decode > (
            small.operational_intensity_decode
        )

    def test_operational_intensity_reads_the_step_model(self):
        """The decode intensity is the step model's traffic at the
        effective batch and mean decode context."""
        config = GenerationConfig(512, 256, 8)
        report = analyze(_dep(fw="llama.cpp"), config)
        step = decode_step_cost(_dep(fw="llama.cpp"), 8, 512 + 128)
        assert report.operational_intensity_decode == step.flops / step.bytes_moved
        assert report.operational_intensity_decode == pytest.approx(6.54, abs=0.01)

    def test_render_mentions_bottleneck(self):
        report = analyze(_dep(), GenerationConfig(512, 512, 8))
        text = report.render()
        assert "bottleneck" in text
        assert "prefill" in text and "decode" in text

    def test_rejects_single_token_output(self):
        with pytest.raises(ValueError, match="single output token"):
            analyze(_dep(), GenerationConfig(512, 1, 1))

    def test_rejects_oom(self):
        with pytest.raises(ValueError, match="memory"):
            analyze(_dep("LLaMA-2-70B"), GenerationConfig(512, 512, 1))


class TestThroughputCurve:
    def test_curve_covers_requested_batches(self):
        curve = throughput_curve(_dep(), 512, 512, batch_sizes=(1, 8, 32))
        assert set(curve) == {1, 8, 32}
        assert all(v > 0 for v in curve.values())

    def test_monotone_until_saturation_on_a100(self):
        curve = throughput_curve(_dep(), 512, 512, batch_sizes=(1, 4, 16))
        assert curve[1] < curve[4] < curve[16]


class TestFindPeakBatch:
    def test_mi250_peak_at_knee(self):
        """Footnote 1: AMD declines beyond a batch size — the knee is 32."""
        result = find_peak_batch(_dep(hw="MI250"), 1024, 1024, max_batch=256)
        assert result.batch_size == 32

    def test_nvidia_peak_beyond_64(self):
        """Footnote 1: Nvidia 'can handle batch sizes beyond 32 and 64'."""
        result = find_peak_batch(_dep(hw="H100"), 1024, 1024, max_batch=512)
        assert result.batch_size > 64

    def test_peak_is_best_probe(self):
        result = find_peak_batch(_dep(), 512, 512, max_batch=256)
        curve = throughput_curve(_dep(), 512, 512, batch_sizes=result.evaluated)
        assert result.throughput_tokens_per_s == pytest.approx(
            max(curve.values())
        )

    def test_bounded_probe_count(self):
        result = find_peak_batch(_dep(), 512, 512, max_batch=1024)
        assert len(result.evaluated) < 30

    def test_rejects_bad_max_batch(self):
        with pytest.raises(ValueError):
            find_peak_batch(_dep(), 512, 512, max_batch=0)
