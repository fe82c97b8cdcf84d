"""Tests for the multi-replica cluster simulator (repro.cluster)."""

import math

import pytest

from repro.cluster import (
    ClusterCapacityPlanner,
    ClusterSimulator,
    DisaggregationSpec,
    get_router,
    kv_transfer_time,
    list_routers,
)
from repro.cluster.router import (
    LeastOutstandingTokensRouter,
    PowerOfTwoChoicesRouter,
    PrefixAffinityRouter,
    RoundRobinRouter,
)
from repro.core.request import GenerationRequest
from repro.frameworks.base import get_framework
from repro.hardware.zoo import get_hardware
from repro.models.zoo import get_model
from repro.perf.multinode import replicas_for_rate
from repro.perf.phases import Deployment
from repro.runtime.engine import ServingEngine
from repro.runtime.loadgen import find_max_sustainable_rate
from repro.runtime.workload import (
    fixed_batch_trace,
    open_loop_trace,
    poisson_trace,
    shared_prefix_trace,
)


def _dep(fw="vLLM") -> Deployment:
    return Deployment(
        get_model("Mistral-7B"), get_hardware("A100"), get_framework(fw)
    )


class _FakeReplica:
    def __init__(self, index, outstanding, capacity_weight=1.0):
        self.index = index
        self.outstanding_tokens = outstanding
        self.capacity_weight = capacity_weight


class TestRouters:
    def test_registry_lists_all_policies(self):
        assert list_routers() == sorted(
            [
                "round-robin",
                "least-outstanding",
                "power-of-two",
                "prefix-affinity",
                "session-affinity",
            ]
        )

    def test_get_router_unknown_name(self):
        with pytest.raises(KeyError, match="power-of-two"):
            get_router("nope")

    def test_round_robin_cycles(self):
        replicas = [_FakeReplica(i, 0) for i in range(3)]
        router = RoundRobinRouter()
        req = GenerationRequest(8, 8)
        picks = [router.route(req, replicas, 0.0).index for _ in range(6)]
        assert picks == [0, 1, 2, 0, 1, 2]

    def test_least_outstanding_picks_minimum(self):
        replicas = [_FakeReplica(0, 50), _FakeReplica(1, 10), _FakeReplica(2, 90)]
        chosen = LeastOutstandingTokensRouter().route(
            GenerationRequest(8, 8), replicas, 0.0
        )
        assert chosen.index == 1

    def test_least_outstanding_tie_breaks_by_index(self):
        replicas = [_FakeReplica(1, 10), _FakeReplica(0, 10)]
        chosen = LeastOutstandingTokensRouter().route(
            GenerationRequest(8, 8), replicas, 0.0
        )
        assert chosen.index == 0

    def test_power_of_two_deterministic_per_seed(self):
        replicas = [_FakeReplica(i, i * 10) for i in range(6)]
        req = GenerationRequest(8, 8)
        a = [
            PowerOfTwoChoicesRouter(seed=3).route(req, replicas, 0.0).index
            for _ in range(1)
        ]
        b = [
            PowerOfTwoChoicesRouter(seed=3).route(req, replicas, 0.0).index
            for _ in range(1)
        ]
        assert a == b

    def test_power_of_two_single_replica(self):
        replicas = [_FakeReplica(0, 5)]
        chosen = PowerOfTwoChoicesRouter().route(
            GenerationRequest(8, 8), replicas, 0.0
        )
        assert chosen.index == 0

    def test_prefix_affinity_pins_home(self):
        replicas = [_FakeReplica(0, 0), _FakeReplica(1, 0)]
        router = PrefixAffinityRouter()
        first = GenerationRequest(64, 8, prefix_id=7, prefix_tokens=32)
        home = router.route(first, replicas, 0.0)
        # Load the other replica down; repeats still go home.
        other = replicas[1 - home.index]
        other.outstanding_tokens = 0
        home.outstanding_tokens = 10_000
        repeat = GenerationRequest(64, 8, prefix_id=7, prefix_tokens=32)
        assert router.route(repeat, replicas, 1.0) is home

    def test_prefix_affinity_falls_back_without_prefix(self):
        replicas = [_FakeReplica(0, 50), _FakeReplica(1, 1)]
        chosen = PrefixAffinityRouter().route(
            GenerationRequest(8, 8), replicas, 0.0
        )
        assert chosen.index == 1

    def test_route_requires_replicas(self):
        with pytest.raises(ValueError, match="no replicas"):
            RoundRobinRouter().route(GenerationRequest(8, 8), [], 0.0)


class TestSingleReplicaEquivalence:
    """A 1-replica cluster reproduces ServingEngine.run bit-identically."""

    def _assert_equivalent(self, make_trace, router_name):
        dep = _dep()
        single = ServingEngine(dep, max_concurrency=32).run(make_trace())
        cluster = ClusterSimulator(
            dep, 1, router=get_router(router_name), max_concurrency=32
        ).run(make_trace())
        replica = cluster.replicas[0].result
        assert cluster.makespan_s == single.total_time_s
        assert replica.iterations == single.iterations
        assert replica.decode_steps == single.decode_steps
        assert replica.average_power_w == single.average_power_w
        key = lambda r: (r.arrival_time, r.request_id)  # noqa: E731
        for a, b in zip(
            sorted(single.requests, key=key), sorted(cluster.requests, key=key)
        ):
            assert a.first_token_time == b.first_token_time
            assert a.finish_time == b.finish_time
            assert a.admit_time == b.admit_time

    @pytest.mark.parametrize("router_name", list_routers())
    def test_poisson_workload(self, router_name):
        self._assert_equivalent(
            lambda: open_loop_trace(40, 4.0, 256, 128, seed=7), router_name
        )

    def test_fixed_shape_workload(self):
        self._assert_equivalent(
            lambda: fixed_batch_trace(16, 256, 128), "round-robin"
        )


class TestClusterSimulator:
    def test_validates_replica_count(self):
        with pytest.raises(ValueError, match="num_replicas"):
            ClusterSimulator(_dep(), 0)

    @pytest.mark.parametrize("value", [0, -3])
    def test_validates_max_concurrency(self, value):
        with pytest.raises(ValueError, match="max_concurrency"):
            ClusterSimulator(_dep(), 2, max_concurrency=value)

    def test_empty_trace_raises(self):
        with pytest.raises(ValueError, match="empty"):
            ClusterSimulator(_dep(), 2).run([])

    def test_all_requests_finish_across_replicas(self):
        trace = open_loop_trace(48, 10.0, 256, 128, seed=3)
        result = ClusterSimulator(_dep(), 4).run(trace)
        assert all(r.finish_time is not None for r in trace)
        assert sum(rep.requests_served for rep in result.replicas) == 48
        assert result.makespan_s == max(
            rep.result.total_time_s for rep in result.replicas
        )

    def test_fleet_gauges_and_counters(self):
        trace = open_loop_trace(24, 8.0, 256, 64, seed=1)
        result = ClusterSimulator(_dep(), 2).run(trace)
        for name in ("replica0", "replica1"):
            for gauge in ("queue_depth", "outstanding_tokens", "kv_occupancy"):
                assert f"{name}.{gauge}" in result.metrics.gauges
        assert result.metrics.counters["routed"] == 24
        assert result.metrics.histograms["ttft_s"].count == 24

    def test_traced_run_collects_per_replica_events(self):
        trace = open_loop_trace(12, 8.0, 128, 32, seed=2)
        result = ClusterSimulator(_dep(), 2, traced=True).run(trace)
        assert set(result.replica_events) == {"replica0", "replica1"}
        assert all(events for events in result.replica_events.values())

    def test_load_report_cluster_scope(self):
        trace = open_loop_trace(32, 8.0, 256, 128, seed=0)
        result = ClusterSimulator(_dep(), 2).run(trace)
        report = result.load_report(8.0)
        assert report.completed_requests == 32
        assert report.goodput_rps > 0
        assert report.average_power_w > 0

    def test_render_mentions_each_replica(self):
        trace = open_loop_trace(16, 8.0, 128, 64, seed=0)
        result = ClusterSimulator(_dep(), 3).run(trace)
        text = result.render()
        for name in ("replica0", "replica1", "replica2"):
            assert name in text


class TestSaturatedFleet:
    """Routing when every replica is saturated: queue, don't crash."""

    def _burst(self, n=48):
        # Everything lands at t=0 against a tiny admission limit, so all
        # replicas are saturated from the first routing decision on.
        return fixed_batch_trace(n, 512, 128)

    def _run(self):
        return ClusterSimulator(_dep(), 2, max_concurrency=2).run(
            self._burst()
        )

    def test_burst_queues_and_drains_completely(self):
        trace = self._burst()
        result = ClusterSimulator(_dep(), 2, max_concurrency=2).run(trace)
        assert all(r.state == "finished" for r in trace)
        assert sum(rep.requests_served for rep in result.replicas) == len(
            trace
        )
        # The backlog really queued: peak waiting depth well above the
        # admission limit on at least one replica.
        peaks = [
            result.metrics.gauges[f"{name}.queue_depth"].maximum
            for name in ("replica0", "replica1")
        ]
        assert max(peaks) > 2

    def test_saturated_routing_is_deterministic(self):
        assert self._run().to_json_dict() == self._run().to_json_dict()

    def test_admissions_interleave_with_drain(self):
        # Later arrivals must not starve: admit times spread out over the
        # run instead of clustering at t=0.
        trace = self._burst()
        result = ClusterSimulator(_dep(), 2, max_concurrency=2).run(trace)
        admits = sorted(r.admit_time for r in trace)
        assert admits[0] == 0.0
        assert admits[-1] > result.makespan_s * 0.5


def _heavy_every_8th(num, rate, seed):
    """Poisson arrivals; every 8th request is a long prompt + long output.

    Round-robin's index cycle resonates with the period (8 = 2 x 4
    replicas), piling every heavy request onto one replica — the
    structural failure mode load-aware routing avoids.
    """
    arrivals = poisson_trace(num, rate, 1, 1, seed=seed)
    trace = []
    for i, a in enumerate(arrivals):
        if i % 8 == 0:
            trace.append(GenerationRequest(3072, 768, arrival_time=a.arrival_time))
        else:
            trace.append(GenerationRequest(512, 128, arrival_time=a.arrival_time))
    return trace


class TestRoutingGoodput:
    """The paper-level claims: load-aware routing beats round-robin."""

    def test_load_aware_beats_round_robin_at_80pct_saturation(self):
        dep = _dep()
        saturation, _ = find_max_sustainable_rate(
            dep,
            num_requests=48,
            max_concurrency=16,
            mean_input_tokens=832,  # the heavy-mix means
            mean_output_tokens=208,
        )
        rate = 0.8 * saturation * 4
        goodput = {}
        for name in ("round-robin", "least-outstanding", "power-of-two"):
            trace = _heavy_every_8th(160, rate, seed=0)
            result = ClusterSimulator(
                dep, 4, router=get_router(name), max_concurrency=16
            ).run(trace)
            goodput[name] = result.load_report(rate).goodput_rps
        assert goodput["least-outstanding"] > goodput["round-robin"]
        assert goodput["power-of-two"] > goodput["round-robin"]

    def test_prefix_affinity_wins_shared_prefix_workload(self):
        dep = _dep()
        goodput = {}
        hits = {}
        for name in list_routers():
            trace = shared_prefix_trace(
                96, 14.0, num_prefixes=8, prefix_tokens=1536,
                unique_tokens=128, output_tokens=128, seed=0,
            )
            result = ClusterSimulator(
                dep, 4, router=get_router(name), max_concurrency=16
            ).run(trace)
            goodput[name] = result.load_report(14.0).goodput_rps
            hits[name] = result.prefix_hits
        # session-affinity pins by prefix when requests carry no session,
        # so it matches prefix-affinity here; both beat the prefix-blind
        # policies.
        affinity = ("prefix-affinity", "session-affinity")
        others = [v for k, v in goodput.items() if k not in affinity]
        assert goodput["prefix-affinity"] > max(others)
        assert hits["prefix-affinity"] > max(
            v for k, v in hits.items() if k not in affinity
        )
        assert hits["session-affinity"] == hits["prefix-affinity"]


class TestDisaggregation:
    def test_spec_validation(self):
        with pytest.raises(ValueError, match="num_prefill_replicas"):
            DisaggregationSpec(num_prefill_replicas=0)

    def test_kv_transfer_time_scales_with_context(self):
        dep = _dep()
        spec = DisaggregationSpec(num_prefill_replicas=1)
        short = kv_transfer_time(dep, 128, spec.interconnect)
        long = kv_transfer_time(dep, 4096, spec.interconnect)
        assert 0 < short < long
        with pytest.raises(ValueError, match="context_tokens"):
            kv_transfer_time(dep, 0, spec.interconnect)

    def test_disaggregated_run_completes_and_counts_handoffs(self):
        dep = _dep()
        trace = open_loop_trace(32, 6.0, 256, 128, seed=9)
        result = ClusterSimulator(
            dep, 2,
            disaggregation=DisaggregationSpec(num_prefill_replicas=2),
        ).run(trace)
        assert all(r.finish_time is not None for r in trace)
        assert all(r.generated_tokens == r.output_tokens for r in trace)
        # Every multi-token request hands off exactly once.
        expected = sum(1 for r in trace if r.output_tokens > 1)
        assert result.handoffs == expected
        assert result.transfer_s_total > 0
        roles = {rep.role for rep in result.replicas}
        assert roles == {"prefill", "decode"}

    def test_handoff_delays_completion_vs_unified(self):
        """Disaggregation pays transfer + attach: TTFT-equal requests
        finish no earlier than the same fleet without the handoff."""
        dep = _dep()
        trace_a = [GenerationRequest(512, 64, arrival_time=0.0)]
        unified = ClusterSimulator(dep, 1).run(trace_a)
        trace_b = [GenerationRequest(512, 64, arrival_time=0.0)]
        disagg = ClusterSimulator(
            dep, 1, disaggregation=DisaggregationSpec(num_prefill_replicas=1)
        ).run(trace_b)
        assert trace_b[0].finish_time > trace_a[0].finish_time


class TestCapacityPlanner:
    def test_agrees_with_closed_form_on_uniform_workload(self):
        dep = _dep()
        planner = ClusterCapacityPlanner(
            dep,
            trace_factory=lambda n, rate, seed: poisson_trace(
                n, rate, 512, 128, seed=seed
            ),
            num_requests=40,
            max_concurrency=8,
        )
        single = planner.single_replica_rate(max_rate_rps=32.0)
        assert single > 0
        target = 2.5 * single
        plan = planner.plan(target, max_replicas=8)
        assert plan.feasible
        assert abs(plan.num_replicas - replicas_for_rate(target, single)) <= 1
        assert plan.analytic_replicas == replicas_for_rate(target, single)

    def test_infeasible_target_reports_cap(self):
        dep = _dep()
        planner = ClusterCapacityPlanner(
            dep,
            trace_factory=lambda n, rate, seed: poisson_trace(
                n, rate, 512, 128, seed=seed
            ),
            num_requests=24,
            max_concurrency=8,
        )
        plan = planner.plan(1000.0, max_replicas=2)
        assert not plan.feasible
        assert plan.num_replicas == 2

    def test_validates_inputs(self):
        planner = ClusterCapacityPlanner(_dep())
        with pytest.raises(ValueError, match="target_rate_rps"):
            planner.plan(0.0)
        with pytest.raises(ValueError, match="attainment_target"):
            ClusterCapacityPlanner(_dep(), attainment_target=0.0)


class TestReplicasForRate:
    def test_ceiling_ratio(self):
        assert replicas_for_rate(10.0, 4.0) == 3
        assert replicas_for_rate(8.0, 4.0) == 2
        assert replicas_for_rate(0.5, 4.0) == 1

    def test_exact_multiple_does_not_round_up(self):
        assert replicas_for_rate(3 * 2.7, 2.7) == 3

    def test_validation(self):
        with pytest.raises(ValueError):
            replicas_for_rate(0.0, 1.0)
        with pytest.raises(ValueError):
            replicas_for_rate(1.0, 0.0)


class TestClusterObsExport:
    def test_multi_track_chrome_trace(self):
        from repro.obs.export import to_chrome_trace_multi

        trace = open_loop_trace(8, 8.0, 128, 32, seed=4)
        result = ClusterSimulator(_dep(), 2, traced=True).run(trace)
        payload = to_chrome_trace_multi(
            result.replica_events, metadata={"replicas": 2}
        )
        pids = {r["pid"] for r in payload["traceEvents"]}
        assert pids == {1, 2}
        names = [
            r["args"]["name"]
            for r in payload["traceEvents"]
            if r["name"] == "process_name"
        ]
        assert names == ["replica0", "replica1"]
        assert payload["otherData"] == {"replicas": 2}


class TestClusterDashboard:
    def test_cluster_section_html(self):
        from repro.dashboard import cluster_section_html

        trace = open_loop_trace(16, 8.0, 128, 64, seed=0)
        result = ClusterSimulator(_dep(), 2).run(trace)
        fragment = cluster_section_html(result)
        assert "replica0" in fragment
        assert "Cluster metrics" in fragment
        assert "utilization" in fragment


class TestClusterCLI:
    def test_cluster_subcommand(self, capsys, tmp_path):
        from repro.cli import main

        out_path = tmp_path / "fleet.json"
        code = main([
            "cluster",
            "--model", "Mistral-7B",
            "--hardware", "A100",
            "--framework", "vLLM",
            "--replicas", "2",
            "--rate", "8",
            "--num-requests", "16",
            "--seed", "3",
            "--trace-output", str(out_path),
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "replica0" in out
        assert "goodput" in out
        assert out_path.exists()

    def test_cluster_plan_subcommand(self, capsys):
        from repro.cli import main

        code = main([
            "cluster",
            "--model", "Mistral-7B",
            "--hardware", "A100",
            "--framework", "vLLM",
            "--plan-target", "4",
            "--max-replicas", "4",
            "--num-requests", "16",
        ])
        assert code == 0
        assert "replicas" in capsys.readouterr().out

    def test_cluster_chaos_flags_golden(self, capsys, tmp_path):
        """--faults/--autoscale/--seed produce byte-identical result JSON
        across repeat invocations (the CI chaos job diffs exactly this)."""
        import json

        from repro.cli import main
        from repro.control import FaultEvent, FaultSchedule

        spec = tmp_path / "faults.json"
        schedule = FaultSchedule((
            FaultEvent("crash", at_s=2.0, replica="replica1"),
            FaultEvent("slowdown", at_s=1.0, replica="replica0",
                       duration_s=2.0, factor=2.0),
        ))
        spec.write_text(json.dumps(schedule.to_json_dict()))

        payloads = []
        for tag in ("a", "b"):
            out_path = tmp_path / f"result-{tag}.json"
            code = main([
                "cluster",
                "--model", "Mistral-7B",
                "--hardware", "A100",
                "--framework", "vLLM",
                "--replicas", "2",
                "--rate", "6",
                "--num-requests", "24",
                "--seed", "5",
                "--faults", str(spec),
                "--autoscale", "queue-depth",
                "--autoscale-max", "4",
                "--max-concurrency", "4",
                "--result-output", str(out_path),
            ])
            assert code == 0
            payloads.append(out_path.read_bytes())
        assert payloads[0] == payloads[1]
        result = json.loads(payloads[0])
        assert [f["kind"] for f in result["faults"]] == [
            "slowdown", "crash"
        ]
        assert result["retries"] > 0
        out = capsys.readouterr().out
        assert "faults" in out

    def test_trace_seed_flag_changes_arrivals(self, capsys, tmp_path):
        from repro.cli import main

        outputs = []
        for seed in ("0", "1"):
            path = tmp_path / f"t{seed}.json"
            code = main([
                "trace",
                "--model", "Mistral-7B",
                "--hardware", "A100",
                "--framework", "vLLM",
                "--rate", "4",
                "--num-requests", "8",
                "--input-tokens", "128",
                "--output-tokens", "32",
                "--seed", seed,
                "--output", str(path),
            ])
            assert code == 0
            outputs.append(capsys.readouterr().out)
        assert outputs[0] != outputs[1]  # different arrival draws


class TestEngineRunStepper:
    def test_step_on_drained_run_raises(self):
        run = ServingEngine(_dep()).start()
        with pytest.raises(RuntimeError, match="drained"):
            run.step()

    def test_horizon_must_be_ahead(self):
        run = ServingEngine(_dep()).start()
        run.submit(GenerationRequest(64, 8, arrival_time=0.0))
        with pytest.raises(ValueError, match="horizon"):
            run.step(horizon=0.0)

    def test_horizon_caps_idle_jump(self):
        run = ServingEngine(_dep()).start()
        run.submit(GenerationRequest(64, 8, arrival_time=5.0))
        run.step(horizon=2.0)
        assert run.now == 2.0  # idled to the horizon, not the arrival

    def test_pressure_disables_coalescing(self):
        dep = _dep()
        trace = fixed_batch_trace(4, 128, 64)
        free = ServingEngine(dep).start()
        for r in trace:
            free.submit(r)
        while free.has_work:
            free.step()
        held = ServingEngine(dep).start(pressure=lambda: True)
        for r in fixed_batch_trace(4, 128, 64):
            held.submit(r)
        while held.has_work:
            held.step()
        assert held.iterations > free.iterations  # spans broken into steps
        assert held.now == pytest.approx(free.now)  # same physics


class TestLoadgenHardening:
    def test_summarize_requests_all_incomplete(self):
        from repro.runtime.loadgen import summarize_requests

        requests = [GenerationRequest(64, 8) for _ in range(4)]
        report = summarize_requests(requests, 0.0, 2.0)
        assert math.isnan(report.ttft_p50_s)
        assert math.isnan(report.ttft_p99_s)
        assert report.completed_requests == 0
        assert report.slo_attainment == 0.0
        assert report.goodput_rps == 0.0
        assert report.throughput_tokens_per_s == 0.0
        report.render()  # NaN-safe rendering

    def test_summarize_requests_empty_raises(self):
        from repro.runtime.loadgen import summarize_requests

        with pytest.raises(ValueError, match="empty"):
            summarize_requests([], 1.0, 1.0)


class TestWorkloadGenerators:
    def test_open_loop_trace_deterministic(self):
        a = open_loop_trace(16, 4.0, 256, 128, seed=5)
        b = open_loop_trace(16, 4.0, 256, 128, seed=5)
        assert [r.arrival_time for r in a] == [r.arrival_time for r in b]
        assert [r.input_tokens for r in a] == [r.input_tokens for r in b]
        assert a[0].arrival_time == 0.0

    def test_shared_prefix_trace_fields(self):
        trace = shared_prefix_trace(
            24, 4.0, num_prefixes=3, prefix_tokens=256,
            unique_tokens=64, output_tokens=32, seed=0,
        )
        assert all(r.input_tokens == 320 for r in trace)
        assert all(r.prefix_tokens == 256 for r in trace)
        assert {r.prefix_id for r in trace} <= {0, 1, 2}
        assert len({r.prefix_id for r in trace}) > 1

    def test_shared_prefix_trace_validation(self):
        with pytest.raises(ValueError, match="num_prefixes"):
            shared_prefix_trace(4, 1.0, 0, 64, 64, 8)

    def test_cached_prefix_shrinks_prefill(self):
        req = GenerationRequest(
            320, 8, prefix_id=0, prefix_tokens=256, cached_prefix_tokens=256
        )
        assert req.prefill_tokens_needed == 64
        fresh = GenerationRequest(320, 8, prefix_id=0, prefix_tokens=256)
        assert fresh.prefill_tokens_needed == 320

    def test_cached_prefix_validation(self):
        with pytest.raises(ValueError, match="prefix_tokens"):
            GenerationRequest(64, 8, prefix_tokens=128)
        with pytest.raises(ValueError, match="cached_prefix_tokens"):
            GenerationRequest(64, 8, prefix_tokens=32, cached_prefix_tokens=64)
