"""Tests for per-request timelines (repro.obs.timeline)."""

import math

import pytest

from repro.core.request import GenerationRequest
from repro.obs.timeline import RequestTimeline, build_timelines, timeline_table
from repro.obs.tracer import EventTracer
from repro.runtime.engine import ServingEngine
from repro.runtime.workload import fixed_batch_trace, poisson_trace


class TestInvariants:
    def test_monotone_milestones_accepted(self):
        timeline = RequestTimeline(
            request_id=1, input_tokens=10, output_tokens=5,
            arrival_s=0.0, admit_s=0.5, first_token_s=1.0, finish_s=2.0,
        )
        assert timeline.queue_wait_s == 0.5
        assert timeline.ttft_s == 1.0
        assert timeline.prefill_s == 0.5
        assert timeline.decode_s == 1.0
        assert timeline.mean_decode_gap_s == pytest.approx(0.25)
        assert timeline.e2e_s == 2.0
        assert timeline.completed

    def test_first_token_before_admit_rejected(self):
        with pytest.raises(ValueError, match="precedes"):
            RequestTimeline(
                request_id=1, input_tokens=10, output_tokens=5,
                arrival_s=0.0, admit_s=1.0, first_token_s=0.5, finish_s=2.0,
            )

    def test_admit_before_arrival_rejected(self):
        with pytest.raises(ValueError, match="precedes"):
            RequestTimeline(
                request_id=1, input_tokens=10, output_tokens=5,
                arrival_s=1.0, admit_s=0.5, first_token_s=None, finish_s=None,
            )

    def test_missing_milestones_are_nan(self):
        timeline = RequestTimeline(
            request_id=1, input_tokens=10, output_tokens=5,
            arrival_s=0.0, admit_s=None, first_token_s=None, finish_s=None,
        )
        assert math.isnan(timeline.queue_wait_s)
        assert math.isnan(timeline.ttft_s)
        assert not timeline.completed

    def test_single_token_request_has_zero_gap(self):
        timeline = RequestTimeline(
            request_id=1, input_tokens=10, output_tokens=1,
            arrival_s=0.0, admit_s=0.0, first_token_s=1.0, finish_s=1.0,
        )
        assert timeline.mean_decode_gap_s == 0.0


class TestEngineTimelines:
    def _run(self, deployment, trace):
        engine = ServingEngine(
            deployment, max_concurrency=8, tracer=EventTracer()
        )
        return engine.run(trace)

    def test_fixed_batch_invariants(self, basic_deployment):
        result = self._run(basic_deployment, fixed_batch_trace(4, 128, 32))
        timelines = result.timelines()
        assert len(timelines) == 4
        for t in timelines:
            assert t.arrival_s <= t.admit_s <= t.first_token_s <= t.finish_s
            assert t.completed

    def test_poisson_arrivals_queue_waits_are_nonnegative(self, basic_deployment):
        trace = poisson_trace(12, rate_per_s=8.0, input_tokens=256,
                              output_tokens=64, seed=3)
        result = self._run(basic_deployment, trace)
        for t in result.timelines():
            assert t.queue_wait_s >= 0.0
            assert t.arrival_s <= t.admit_s <= t.first_token_s <= t.finish_s

    def test_timelines_available_without_tracer(self, basic_deployment):
        engine = ServingEngine(basic_deployment, max_concurrency=4)
        result = engine.run(fixed_batch_trace(2, 64, 16))
        timelines = result.timelines()
        assert all(t.completed for t in timelines)
        assert all(t.admit_s is not None for t in timelines)

    def test_arrival_order(self, basic_deployment):
        trace = poisson_trace(8, rate_per_s=2.0, input_tokens=64,
                              output_tokens=16, seed=1)
        result = self._run(basic_deployment, trace)
        arrivals = [t.arrival_s for t in result.timelines()]
        assert arrivals == sorted(arrivals)


class TestTimelineTable:
    def test_renders_and_limits(self):
        requests = [GenerationRequest(16, 4, arrival_time=float(i)) for i in range(3)]
        for i, r in enumerate(requests):
            r.admit_time = r.arrival_time
            r.first_token_time = r.arrival_time + 0.1 * (i + 1)
            r.finish_time = r.first_token_time + 0.5
            r.generated_tokens = r.output_tokens
        text = timeline_table(build_timelines(requests), limit=2)
        assert len(text.splitlines()) == 3  # header + 2 rows
        assert "ttft" in text
        # Requests that never entered a run have no label.
        assert all(row.split()[0] == "-" for row in text.splitlines()[1:])

    def test_empty(self):
        assert "no requests" in timeline_table([])
