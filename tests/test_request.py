"""Tests for generation configs and request lifecycle."""

import pytest

from repro.core.request import (
    GenerationConfig,
    GenerationRequest,
    RequestState,
    mean_itl_s,
)


class TestGenerationConfig:
    def test_total_tokens(self):
        config = GenerationConfig(100, 50, 4)
        assert config.total_tokens_per_sequence == 150
        assert config.total_tokens == 600

    def test_paper_sweep_constants(self):
        assert GenerationConfig.PAPER_LENGTHS == (128, 256, 512, 1024, 2048)
        assert GenerationConfig.PAPER_BATCH_SIZES == (1, 16, 32, 64)

    @pytest.mark.parametrize("field", ["input_tokens", "output_tokens", "batch_size"])
    def test_rejects_nonpositive(self, field):
        kwargs = {"input_tokens": 1, "output_tokens": 1, "batch_size": 1}
        kwargs[field] = 0
        with pytest.raises(ValueError, match=field):
            GenerationConfig(**kwargs)


class TestGenerationRequest:
    def test_identity_is_the_object(self):
        a = GenerationRequest(10, 10)
        b = GenerationRequest(10, 10)
        assert a != b
        assert len({a, b}) == 2

    def test_unlabeled_outside_a_run(self):
        assert GenerationRequest(10, 10).request_id is None

    def test_context_grows_with_tokens(self):
        req = GenerationRequest(10, 3)
        assert req.context_length == 10
        req.record_token(1.0)
        assert req.context_length == 11

    def test_first_token_sets_ttft(self):
        req = GenerationRequest(10, 2, arrival_time=0.5)
        req.record_token(1.5)
        assert req.ttft_s == pytest.approx(1.0)
        assert req.state == RequestState.DECODING

    def test_finishing_sets_latency(self):
        req = GenerationRequest(10, 2, arrival_time=0.0)
        req.record_token(1.0)
        req.record_token(2.0)
        assert req.is_finished
        assert req.end_to_end_latency_s == pytest.approx(2.0)

    def test_single_token_finishes_at_first(self):
        req = GenerationRequest(10, 1)
        req.record_token(0.7)
        assert req.is_finished
        assert req.ttft_s == req.end_to_end_latency_s == pytest.approx(0.7)

    def test_overgenerating_raises(self):
        req = GenerationRequest(10, 1)
        req.record_token(1.0)
        with pytest.raises(RuntimeError, match="already generated"):
            req.record_token(2.0)

    def test_ttft_before_first_token_raises(self):
        req = GenerationRequest(10, 1)
        with pytest.raises(RuntimeError, match="not produced"):
            _ = req.ttft_s

    def test_latency_before_finish_raises(self):
        req = GenerationRequest(10, 2)
        req.record_token(1.0)
        with pytest.raises(RuntimeError, match="not finished"):
            _ = req.end_to_end_latency_s

    def test_rejects_negative_arrival(self):
        with pytest.raises(ValueError, match="arrival_time"):
            GenerationRequest(10, 10, arrival_time=-1.0)


def _finished(output_tokens: int, first: float, last: float) -> GenerationRequest:
    req = GenerationRequest(10, output_tokens, arrival_time=0.5)
    req.record_token(first)
    for _ in range(output_tokens - 1):
        req.record_token(last)
    return req


class TestLatencyMetrics:
    def test_ntpot_charges_queueing_to_every_token(self):
        assert _finished(4, 1.5, 2.5).ntpot_s == 2.0 / 4

    def test_mean_itl_pools_decode_intervals(self):
        requests = [
            _finished(3, 1.0, 2.0),  # 2 intervals over 1.0 s
            _finished(5, 1.0, 4.0),  # 4 intervals over 3.0 s
            _finished(1, 1.0, 1.0),  # no interval
            GenerationRequest(10, 4),  # never started
        ]
        assert mean_itl_s(requests) == (1.0 + 3.0) / 6

    def test_mean_itl_without_intervals_is_zero(self):
        assert mean_itl_s([_finished(1, 1.0, 1.0), GenerationRequest(10, 4)]) == 0.0
