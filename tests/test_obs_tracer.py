"""Tests for the event tracer (repro.obs.tracer)."""

import pytest

import repro.obs
from repro.frameworks.base import get_framework
from repro.hardware.zoo import get_hardware
from repro.models.zoo import get_model
from repro.obs import tracer as tracer_module
from repro.obs.tracer import CATEGORIES, EventTracer, TraceEvent
from repro.perf.phases import Deployment
from repro.runtime.engine import ServingEngine
from repro.runtime.paged_kv import PagedKVAllocator
from repro.runtime.workload import fixed_batch_trace


def _untraced_run(optimistic: bool = False):
    """A default (untraced) engine run that admits, decodes and, when
    ``optimistic``, preempts."""
    dep = Deployment(
        get_model("LLaMA-2-7B"), get_hardware("A100"), get_framework("vLLM")
    )
    engine = ServingEngine(dep, max_concurrency=24, optimistic=optimistic)
    run = engine.start()
    for request in fixed_batch_trace(24, 1800, 2200):
        run.submit(request)
    while run.has_work:
        run.step()
    return engine, run, run.result()


class TestNullTracer:
    """An absent tracer is ``None``: there is no no-op tracer object."""

    def test_disabled(self):
        engine, run, _ = _untraced_run()
        scheduler = run.scheduler
        assert engine.tracer is None and run.tracer is None
        assert scheduler.tracer is None and scheduler.allocator.tracer is None
        for module in (repro, repro.obs, tracer_module):
            assert not hasattr(module, "NULL_TRACER")
            assert not hasattr(module, "Tracer")

    def test_methods_are_noops(self):
        # Every emitter (admit, prefill, decode span, preempt, KV pool)
        # runs without a tracer; nothing is recorded anywhere.
        _, _, result = _untraced_run(optimistic=True)
        assert result.scheduler_stats.preemptions > 0
        assert result.metrics is None

    def test_no_event_storage(self):
        # Pools built outside an engine default to no tracer too.
        assert PagedKVAllocator(1, 1).tracer is None

    def test_shared_instance_is_stateless(self):
        # No tracer object is shared between engines, so back-to-back
        # untraced runs are bit-identical.
        first, second = _untraced_run()[2], _untraced_run()[2]
        assert first.total_time_s == second.total_time_s
        assert [r.finish_time for r in first.requests] == [
            r.finish_time for r in second.requests
        ]


class TestEventTracer:
    def test_records_instants_at_clock(self):
        tracer = EventTracer()
        tracer.advance(1.5)
        tracer.instant("admit", "admit", request_id=7)
        (event,) = tracer.events
        assert event.ts_s == 1.5
        assert event.category == "admit"
        assert event.phase == "i"
        assert event.args["request_id"] == 7

    def test_explicit_timestamp_overrides_clock(self):
        tracer = EventTracer()
        tracer.advance(2.0)
        tracer.instant("admit", "admit", ts_s=0.25)
        assert tracer.events[0].ts_s == 0.25

    def test_clock_is_monotonic(self):
        tracer = EventTracer()
        tracer.advance(3.0)
        tracer.advance(3.0)  # equal is fine
        with pytest.raises(ValueError, match="backwards"):
            tracer.advance(2.9)

    def test_complete_rejects_negative_duration(self):
        tracer = EventTracer()
        with pytest.raises(ValueError, match="duration"):
            tracer.complete("prefill", "prefill", 0.0, -1.0)

    def test_event_order_follows_emission_with_monotonic_clock(self):
        tracer = EventTracer()
        for i in range(10):
            tracer.advance(float(i))
            tracer.instant("engine", f"tick{i}")
        stamps = [e.ts_s for e in tracer.events]
        assert stamps == sorted(stamps)

    def test_counter_event_phase(self):
        tracer = EventTracer()
        tracer.counter("kv_alloc", "kv_pool", used_tokens=10, capacity_tokens=100)
        assert tracer.events[0].phase == "C"
        assert tracer.events[0].args == {"used_tokens": 10, "capacity_tokens": 100}

    def test_events_in_filters_by_category(self):
        tracer = EventTracer()
        tracer.instant("admit", "a")
        tracer.instant("preempt", "b")
        tracer.instant("admit", "c")
        assert [e.name for e in tracer.events_in("admit")] == ["a", "c"]

    def test_clear_resets_clock_and_events(self):
        tracer = EventTracer()
        tracer.advance(9.0)
        tracer.instant("engine", "x")
        tracer.clear()
        assert tracer.events == []
        tracer.advance(0.5)  # would raise if the clock had not reset

    def test_span_end(self):
        event = TraceEvent("decode", "decode_span", "X", 1.0, 2.5)
        assert event.end_s() == 3.5

    def test_known_categories_include_issue_set(self):
        for category in ("admit", "prefill", "decode_span", "preempt",
                         "kv_alloc", "power_sample"):
            assert category in CATEGORIES
