"""Request labels come from the run that executes the requests.

A request's identity is the object itself; ``request_id`` is only a label.
``ServingEngine.run`` and ``ClusterSimulator.run`` label their trace by
list position, and the proxies a cluster builds (unified-mode retries,
disaggregated prefill proxies, KV-handoff attach proxies) take the next
labels from ``len(trace)`` on.  So any output that carries labels is a
function of the run's inputs, not of what the process built before it.
"""

from __future__ import annotations

from repro.cluster import ClusterSimulator, DisaggregationSpec
from repro.control import ControlPlane, FaultEvent, FaultSchedule, RetryPolicy
from repro.frameworks.base import get_framework
from repro.hardware.zoo import get_hardware
from repro.models.zoo import get_model
from repro.obs.tracer import EventTracer
from repro.perf.phases import Deployment
from repro.runtime.engine import ServingEngine
from repro.runtime.workload import open_loop_trace
from tests.goldens import DATA_DIR, _chaos_faults, _cli, _CLUSTER


def _dep() -> Deployment:
    return Deployment(
        get_model("LLaMA-3-8B"), get_hardware("A100"), get_framework("vLLM")
    )


def _proxy_labels(result, trace) -> list[int]:
    """Sorted labels of every request a replica ran that is not in ``trace``."""
    originals = set(trace)
    return sorted(
        r.request_id
        for replica in result.replicas
        for r in replica.result.requests
        if r not in originals
    )


class TestEngineLabels:
    def test_trace_labeled_by_list_position(self):
        trace = open_loop_trace(12, 6.0, 256, 32, seed=4)[::-1]  # not arrival order
        tracer = EventTracer()
        ServingEngine(_dep(), max_concurrency=4, tracer=tracer).run(trace)
        assert [r.request_id for r in trace] == list(range(12))
        admitted = {e.args["request_id"] for e in tracer.events if e.name == "admit"}
        assert admitted == set(range(12))

    def test_labels_do_not_depend_on_earlier_requests(self):
        def labels():
            tracer = EventTracer()
            trace = open_loop_trace(8, 6.0, 256, 32, seed=4)
            ServingEngine(_dep(), tracer=tracer).run(trace)
            return [e.args for e in tracer.events if "request_id" in e.args]

        first = labels()
        open_loop_trace(1000, 8.0, 512, 128, seed=0)  # unrelated requests
        assert labels() == first


class TestClusterLabels:
    def test_trace_labeled_and_no_proxies(self):
        trace = open_loop_trace(24, 8.0, 256, 64, seed=3)
        result = ClusterSimulator(_dep(), 2).run(trace)
        assert [r.request_id for r in trace] == list(range(24))
        assert _proxy_labels(result, trace) == []

    def test_retry_proxies_follow_the_trace(self):
        trace = open_loop_trace(32, 8.0, 256, 64, seed=3)
        control = ControlPlane(
            faults=FaultSchedule((FaultEvent("crash", at_s=2.0, replica="replica1"),)),
            retry=RetryPolicy(max_retries=3),
        )
        result = ClusterSimulator(_dep(), 2, control=control).run(trace)
        assert result.retries > 0
        assert [r.request_id for r in trace] == list(range(32))
        proxies = _proxy_labels(result, trace)
        assert proxies == list(range(32, 32 + len(proxies)))
        assert proxies

    def test_disaggregated_proxies_follow_the_trace(self):
        trace = open_loop_trace(16, 5.0, 512, 64, seed=19)
        result = ClusterSimulator(
            _dep(), 2, disaggregation=DisaggregationSpec(num_prefill_replicas=1)
        ).run(trace)
        assert [r.request_id for r in trace] == list(range(16))
        # One prefill proxy per request, one attach proxy per handoff.
        proxies = _proxy_labels(result, trace)
        assert result.handoffs > 0
        assert proxies == list(range(16, 16 + 16 + result.handoffs))


def test_chaos_trace_after_unrelated_requests():
    """The CI chaos ``cluster`` command writes the committed trace bytes
    even when the process built other requests first."""
    open_loop_trace(1000, 8.0, 512, 128, seed=0)
    written = _cli(
        [*_CLUSTER, "--autoscale", "queue-depth", "--autoscale-max", "4"],
        "--trace-output",
        faults=_chaos_faults(1),
    )["--trace-output"]
    assert written == (DATA_DIR / "observers/chaos-trace.json").read_text(
        encoding="utf-8"
    )
