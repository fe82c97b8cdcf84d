"""Tests for the production scenario library (:mod:`repro.scenarios`)."""

from __future__ import annotations

import copy
import json

import numpy as np
import pytest

from repro.cluster import ClusterSimulator, get_router, list_routers
from repro.control import ControlPlane, FaultEvent, FaultSchedule, QueueDepthAutoscaler
from repro.perf.phases import Deployment
from repro.runtime.loadgen import ServiceLevelObjective, summarize_requests
from repro.scenarios import (
    ARRIVAL_KINDS,
    SCENARIOS,
    BurstArrivals,
    ConstantArrivals,
    DiurnalArrivals,
    FlashCrowdArrivals,
    LognormalLengths,
    MixtureLengths,
    MultiTurnSessions,
    PoissonArrivals,
    Scenario,
    SingleShot,
    TenantSpec,
    arrival_from_json_dict,
    assign_tenants,
    get_scenario,
    length_from_json_dict,
    list_scenarios,
    register_scenario,
    session_from_json_dict,
    sharegpt_chat,
    trace_json_dicts,
)


ALL_ARRIVALS = (
    ConstantArrivals(rate_rps=2.0),
    PoissonArrivals(rate_rps=2.0),
    DiurnalArrivals(trough_rps=1.0, peak_rps=5.0, period_s=60.0),
    BurstArrivals(base_rps=2.0, burst_factor=4.0, period_s=10.0),
    FlashCrowdArrivals(base_rps=1.0, flash_at_s=5.0, flash_factor=6.0),
)

ALL_LENGTHS = (
    LognormalLengths(mean_input_tokens=300.0, mean_output_tokens=150.0),
    MixtureLengths(
        components=(
            LognormalLengths(mean_input_tokens=2000.0, mean_output_tokens=100.0),
            LognormalLengths(mean_input_tokens=200.0, mean_output_tokens=100.0),
        ),
        weights=(0.7, 0.3),
    ),
)


def _dep():
    from repro.frameworks.base import get_framework
    from repro.hardware.zoo import get_hardware
    from repro.models.zoo import get_model

    return Deployment(
        get_model("LLaMA-3-8B"), get_hardware("A100"), get_framework("vLLM")
    )


class TestArrivalProcesses:
    @pytest.mark.parametrize("process", ALL_ARRIVALS, ids=lambda p: p.kind)
    def test_seed_determinism(self, process):
        a = process.times(40, np.random.default_rng(7))
        b = process.times(40, np.random.default_rng(7))
        np.testing.assert_array_equal(a, b)

    @pytest.mark.parametrize("process", ALL_ARRIVALS, ids=lambda p: p.kind)
    def test_sorted_nonnegative(self, process):
        times = process.times(60, np.random.default_rng(3))
        assert len(times) == 60
        assert (times >= 0).all()
        assert (np.diff(times) >= 0).all()

    @pytest.mark.parametrize(
        "process", [p for p in ALL_ARRIVALS if p.kind != "constant"],
        ids=lambda p: p.kind,
    )
    def test_seed_changes_times(self, process):
        a = process.times(40, np.random.default_rng(0))
        b = process.times(40, np.random.default_rng(1))
        assert not np.array_equal(a, b)

    @pytest.mark.parametrize("process", ALL_ARRIVALS, ids=lambda p: p.kind)
    def test_json_round_trip(self, process):
        clone = arrival_from_json_dict(process.to_json_dict())
        assert clone == process

    def test_registry_covers_all_kinds(self):
        assert set(ARRIVAL_KINDS) == {
            "constant", "poisson", "diurnal", "burst", "flash_crowd"
        }
        with pytest.raises(ValueError, match="unknown arrival kind"):
            arrival_from_json_dict({"kind": "nope"})

    def test_flash_crowd_envelope_shape(self):
        proc = FlashCrowdArrivals(
            base_rps=1.0, flash_at_s=10.0, flash_factor=8.0,
            ramp_s=2.0, hold_s=5.0, decay_s=5.0,
        )
        assert proc.rate_at(0.0) == 1.0
        assert proc.rate_at(13.0) == 8.0  # hold window
        assert 1.0 < proc.rate_at(11.0) < 8.0  # mid-ramp
        assert proc.rate_at(30.0) == 1.0  # after decay

    def test_burst_envelope_shape(self):
        proc = BurstArrivals(
            base_rps=2.0, burst_factor=5.0, period_s=10.0, burst_fraction=0.3
        )
        assert proc.rate_at(1.0) == 10.0  # inside burst window
        assert proc.rate_at(5.0) == 2.0
        assert proc.rate_at(11.0) == 10.0  # periodic

    def test_diurnal_trough_and_peak(self):
        proc = DiurnalArrivals(trough_rps=1.0, peak_rps=5.0, period_s=100.0)
        assert proc.rate_at(0.0) == pytest.approx(1.0)
        assert proc.rate_at(50.0) == pytest.approx(5.0)
        assert proc.rate_at(100.0) == pytest.approx(1.0)

    def test_validation(self):
        with pytest.raises(ValueError, match="rate_rps"):
            PoissonArrivals(rate_rps=0.0)
        with pytest.raises(ValueError, match="trough_rps"):
            DiurnalArrivals(trough_rps=3.0, peak_rps=1.0)
        with pytest.raises(ValueError, match="burst_fraction"):
            BurstArrivals(burst_fraction=1.5)
        with pytest.raises(ValueError, match="flash_factor"):
            FlashCrowdArrivals(flash_factor=0.5)
        with pytest.raises(ValueError, match="n >= 1"):
            ConstantArrivals().times(0, np.random.default_rng(0))


class TestLengthModels:
    @pytest.mark.parametrize("model", ALL_LENGTHS, ids=lambda m: m.kind)
    def test_seed_determinism(self, model):
        a_in, a_out = model.sample(50, np.random.default_rng(4))
        b_in, b_out = model.sample(50, np.random.default_rng(4))
        np.testing.assert_array_equal(a_in, b_in)
        np.testing.assert_array_equal(a_out, b_out)

    @pytest.mark.parametrize("model", ALL_LENGTHS, ids=lambda m: m.kind)
    def test_bounds(self, model):
        ins, outs = model.sample(200, np.random.default_rng(1))
        assert (ins >= 8).all() and (outs >= 8).all()
        assert (ins <= 16384).all() and (outs <= 16384).all()

    @pytest.mark.parametrize("model", ALL_LENGTHS, ids=lambda m: m.kind)
    def test_json_round_trip(self, model):
        clone = length_from_json_dict(model.to_json_dict())
        a = clone.sample(20, np.random.default_rng(9))
        b = model.sample(20, np.random.default_rng(9))
        np.testing.assert_array_equal(a[0], b[0])
        np.testing.assert_array_equal(a[1], b[1])

    def test_lognormal_mean_roughly_honored(self):
        model = LognormalLengths(mean_input_tokens=500.0, mean_output_tokens=200.0)
        ins, outs = model.sample(4000, np.random.default_rng(0))
        assert ins.mean() == pytest.approx(500.0, rel=0.15)
        assert outs.mean() == pytest.approx(200.0, rel=0.15)

    def test_mixture_determinism_survives_weight_tweak(self):
        # Same components, different weights: component draws must not shift.
        base = ALL_LENGTHS[1]
        tweaked = MixtureLengths(components=base.components, weights=(0.5, 0.5))
        a = base.sample(100, np.random.default_rng(2))
        b = tweaked.sample(100, np.random.default_rng(2))
        # Both used identical per-component streams; rows picked from the
        # same component in both runs must agree exactly.
        same_rows = a[0] == b[0]
        assert same_rows.any()

    def test_validation(self):
        with pytest.raises(ValueError, match="positive"):
            LognormalLengths(mean_input_tokens=-1.0)
        with pytest.raises(ValueError, match=">= 2 components"):
            MixtureLengths(components=(sharegpt_chat(),), weights=(1.0,))
        with pytest.raises(ValueError, match="weights"):
            MixtureLengths(
                components=(sharegpt_chat(), sharegpt_chat()), weights=(1.0,)
            )


class TestSessionsAndTenants:
    def test_single_shot(self):
        model = SingleShot()
        counts = model.turn_counts(10, np.random.default_rng(0))
        assert (counts == 1).all()
        assert model.think_gap_s(np.random.default_rng(0)) == 0.0

    def test_multi_turn_counts_bounded_and_deterministic(self):
        model = MultiTurnSessions(mean_turns=5.0, max_turns=10)
        a = model.turn_counts(200, np.random.default_rng(5))
        b = model.turn_counts(200, np.random.default_rng(5))
        np.testing.assert_array_equal(a, b)
        assert (a >= 1).all() and (a <= 10).all()
        assert a.mean() > 2.0  # geometric with mean 5, clipped

    def test_session_json_round_trip(self):
        model = MultiTurnSessions(mean_turns=3.0, think_time_mean_s=1.0)
        assert session_from_json_dict(model.to_json_dict()) == model
        assert session_from_json_dict(SingleShot().to_json_dict()) == SingleShot()
        with pytest.raises(ValueError, match="unknown session kind"):
            session_from_json_dict({"kind": "nope"})

    def test_tenant_assignment_weighted(self):
        tenants = (
            TenantSpec(name="big", weight=9.0),
            TenantSpec(name="small", weight=1.0),
        )
        names = assign_tenants(tenants, 500, np.random.default_rng(0))
        big = names.count("big")
        assert big > 350
        assert set(names) == {"big", "small"}
        assert assign_tenants((), 5, np.random.default_rng(0)) == [None] * 5

    def test_tenant_slo(self):
        spec = TenantSpec(name="t", slo_ttft_s=0.5, slo_itl_s=0.05)
        slo = spec.slo()
        assert isinstance(slo, ServiceLevelObjective)
        assert slo.ttft_s == 0.5
        with pytest.raises(ValueError, match="weight"):
            TenantSpec(name="t", weight=0.0)


class TestScenario:
    def test_catalog_has_at_least_six(self):
        assert len(SCENARIOS) >= 6
        assert [s.name for s in list_scenarios()] == sorted(SCENARIOS)

    def test_get_scenario_unknown(self):
        with pytest.raises(KeyError, match="unknown scenario"):
            get_scenario("nope")

    def test_register_rejects_duplicates(self):
        existing = next(iter(SCENARIOS.values()))
        with pytest.raises(ValueError, match="already registered"):
            register_scenario(existing)

    @pytest.mark.parametrize("name", sorted(SCENARIOS))
    def test_build_seed_deterministic(self, name):
        scenario = get_scenario(name)
        assert trace_json_dicts(scenario.build(3)) == trace_json_dicts(
            scenario.build(3)
        )
        assert trace_json_dicts(scenario.build(3)) != trace_json_dicts(
            scenario.build(4)
        )

    @pytest.mark.parametrize("name", sorted(SCENARIOS))
    def test_json_round_trip(self, name):
        scenario = get_scenario(name)
        clone = Scenario.from_json_dict(
            json.loads(json.dumps(scenario.to_json_dict()))
        )
        assert trace_json_dicts(clone.build(0)) == trace_json_dicts(
            scenario.build(0)
        )

    def test_multi_turn_semantics(self):
        scenario = get_scenario("chat-sharegpt")
        trace = scenario.build(seed=0)
        by_session: dict[int, list] = {}
        for r in trace:
            by_session.setdefault(r.session_id, []).append(r)
        assert any(len(turns) > 1 for turns in by_session.values())
        for turns in by_session.values():
            turns.sort(key=lambda r: r.turn_index)
            context = 0
            last_arrival = -1.0
            for j, r in enumerate(turns):
                assert r.turn_index == j
                # Turn j's prompt extends the accumulated conversation.
                assert r.prefix_tokens == context
                assert r.input_tokens > context
                assert r.arrival_time > last_arrival
                if len(turns) > 1:
                    assert r.prefix_id == r.session_id
                context = r.input_tokens + r.output_tokens
                last_arrival = r.arrival_time

    def test_single_turn_sessions_carry_no_prefix(self):
        trace = get_scenario("rag-long-context").build(seed=0)
        assert all(r.prefix_id is None for r in trace)
        assert all(r.turn_index == 0 for r in trace)

    def test_tenant_tagging(self):
        scenario = get_scenario("multi-tenant-prod")
        trace = scenario.build(seed=0)
        assert {r.tenant for r in trace} == {"interactive", "standard", "batch"}
        # All turns of a session share its tenant.
        by_session: dict[int, set] = {}
        for r in trace:
            by_session.setdefault(r.session_id, set()).add(r.tenant)
        assert all(len(tenants) == 1 for tenants in by_session.values())
        slos = scenario.tenant_slos()
        assert slos["interactive"].ttft_s == 0.8

    def test_with_sessions(self):
        scenario = get_scenario("chat-sharegpt").with_sessions(3)
        assert scenario.num_sessions == 3
        assert len({r.session_id for r in scenario.build(0)}) == 3

    def test_validation(self):
        with pytest.raises(ValueError, match="num_sessions"):
            get_scenario("chat-sharegpt").with_sessions(0)
        with pytest.raises(ValueError, match="duplicate tenant"):
            Scenario(
                name="x",
                description="d",
                arrival=ConstantArrivals(),
                lengths=sharegpt_chat(),
                sessions=SingleShot(),
                tenants=(TenantSpec(name="a"), TenantSpec(name="a")),
            )


class TestSessionAffinityCluster:
    def test_session_affinity_beats_round_robin_on_kv_hits(self):
        """ISSUE acceptance: multi-turn chat on a 4-replica cluster hits the
        session KV measurably more under session-affinity than round-robin."""
        dep = _dep()
        trace = get_scenario("chat-sharegpt").build(seed=0)
        hits = {}
        for name in ("round-robin", "session-affinity"):
            sim = ClusterSimulator(
                dep, 4, router=get_router(name),
                max_concurrency=16, prefix_cache_slots=8,
            )
            result = sim.run([copy.deepcopy(r) for r in trace])
            hits[name] = result.prefix_hits
            assert result.failed_requests == 0
        assert hits["session-affinity"] > hits["round-robin"]
        # Session affinity serves every follow-up turn from the home
        # replica's warm KV: hit count equals the follow-up turn count.
        follow_ups = sum(1 for r in trace if r.turn_index > 0)
        assert hits["session-affinity"] == follow_ups

    def test_session_affinity_registered(self):
        assert "session-affinity" in list_routers()
        router = get_router("session-affinity")
        assert router.reassignments == 0

    def test_graceful_reassignment_on_crash(self):
        """A crashed home replica triggers re-pinning, not request loss."""
        dep = _dep()
        trace = get_scenario("agentic-tools").build(seed=2)
        schedule = FaultSchedule((
            FaultEvent("crash", at_s=5.0, replica="replica0"),
            FaultEvent("crash", at_s=8.0, replica="replica2"),
        ))
        results = []
        for _ in range(2):
            router = get_router("session-affinity")
            sim = ClusterSimulator(
                dep, 4, router=router, max_concurrency=16,
                prefix_cache_slots=8,
                control=ControlPlane(faults=schedule),
            )
            result = sim.run([copy.deepcopy(r) for r in trace])
            results.append(result.to_json_dict())
            assert router.reassignments > 0
            crashed = [r for r in result.replicas if r.status == "crashed"]
            assert len(crashed) == 2
            finished = sum(
                1 for r in result.requests if r.finish_time is not None
            )
            assert finished + result.failed_requests == len(trace)
            assert finished > result.failed_requests
        assert results[0] == results[1]  # deterministic under faults

    def test_flash_crowd_triggers_autoscaler(self):
        """The flash-crowd scenario drives queue-depth scale-up during the
        spike (ISSUE satellite: autoscaler reacts to the rate envelope)."""
        dep = _dep()
        scenario = get_scenario("flash-crowd")
        trace = scenario.build(seed=1)
        control = ControlPlane(
            autoscaler=QueueDepthAutoscaler(
                high_watermark=2.0, max_replicas=6, cooldown_s=1.0
            )
        )
        sim = ClusterSimulator(
            dep, 1, router=get_router("least-outstanding"),
            max_concurrency=2, control=control,
        )
        result = sim.run([copy.deepcopy(r) for r in trace])
        ups = [e for e in result.scale_log if e["action"] == "up"]
        assert ups
        flash_at = scenario.arrival.flash_at_s
        assert any(e["ts_s"] >= flash_at for e in ups)


class TestTenantReporting:
    def test_tenant_lanes_in_summary(self):
        trace = get_scenario("multi-tenant-prod").build(seed=0)
        for r in trace:
            r.first_token_time = r.arrival_time + 0.1
            r.finish_time = r.arrival_time + 1.0
            r.generated_tokens = r.output_tokens
        slos = get_scenario("multi-tenant-prod").tenant_slos()
        report = summarize_requests(trace, 60.0, 2.0, tenant_slos=slos)
        assert {t.tenant for t in report.tenants} == {
            "interactive", "standard", "batch"
        }
        for lane in report.tenants:
            assert lane.requests > 0
            assert np.isfinite(lane.ttft_p95_s)
        rendered = report.render()
        assert "tenant interactive" in rendered

    def test_zero_request_tenant_is_nan_safe(self):
        """A tenant named in the SLO map but absent from traffic still gets
        a lane — NaN latencies, not a crash (ISSUE satellite)."""
        trace = get_scenario("chat-sharegpt").with_sessions(2).build(seed=0)
        report = summarize_requests(
            trace, 10.0, 1.0,
            tenant_slos={"ghost": ServiceLevelObjective()},
        )
        lanes = {t.tenant: t for t in report.tenants}
        assert lanes["ghost"].requests == 0
        assert np.isnan(lanes["ghost"].ttft_p95_s)
        assert np.isnan(lanes["ghost"].ntpot_mean_s)
        assert lanes["ghost"].slo_attainment == 0.0
        assert "ghost" in report.render()

    def test_untagged_requests_produce_no_lanes(self):
        trace = get_scenario("rag-long-context").with_sessions(4).build(seed=0)
        report = summarize_requests(trace, 10.0, 1.0)
        assert report.tenants == ()


class TestWorkloadSpecScenario:
    def test_scenario_kind_builds_catalog_trace(self):
        from repro.experiments import WorkloadSpec

        spec = WorkloadSpec(kind="scenario", scenario="chat-sharegpt")
        trace = spec.build(7)
        expected = get_scenario("chat-sharegpt").build(7)
        assert trace_json_dicts(trace) == trace_json_dicts(expected)
        assert spec.tenant_slos() == {}
        tenanted = WorkloadSpec(kind="scenario", scenario="multi-tenant-prod")
        assert set(tenanted.tenant_slos()) == {"interactive", "standard", "batch"}

    def test_scenario_kind_round_trips(self):
        from repro.experiments import WorkloadSpec

        spec = WorkloadSpec(kind="scenario", scenario="agentic-tools")
        clone = WorkloadSpec.from_json_dict(
            json.loads(json.dumps(spec.to_json_dict()))
        )
        assert clone == spec

    def test_scenario_kind_validation(self):
        from repro.experiments import WorkloadSpec

        with pytest.raises(ValueError, match="requires a scenario name"):
            WorkloadSpec(kind="scenario")
        with pytest.raises(KeyError, match="unknown scenario"):
            WorkloadSpec(kind="scenario", scenario="nope")

    def test_legacy_payload_without_scenario_key_loads(self):
        from repro.experiments import WorkloadSpec

        payload = WorkloadSpec(kind="open_loop").to_json_dict()
        del payload["scenario"]
        assert WorkloadSpec.from_json_dict(payload) == WorkloadSpec(
            kind="open_loop"
        )

    def test_experiment_run_yields_tenant_metric_lanes(self):
        from repro.experiments import ExperimentSpec, WorkloadSpec
        from repro.experiments.runner import run_seed

        spec = ExperimentSpec(
            name="scenario-smoke",
            model="LLaMA-3-8B",
            hardware="A100",
            framework="vLLM",
            workload=WorkloadSpec(kind="scenario", scenario="multi-tenant-prod"),
            seeds=(0,),
            mode="cluster",
            num_replicas=2,
            router="session-affinity",
        )
        result = run_seed(spec, 0)
        assert "tenant.interactive.slo_attainment" in result.metrics
        assert "tenant.batch.ntpot_mean_s" in result.metrics
        # Byte-identical replay: the bundle gate relies on this.
        again = run_seed(spec, 0)
        assert json.dumps(result.to_json_dict(), sort_keys=True) == json.dumps(
            again.to_json_dict(), sort_keys=True
        )


class TestScenarioCLI:
    def test_list_shows_catalog(self, capsys):
        from repro.cli import main

        assert main(["scenario", "list"]) == 0
        out = capsys.readouterr().out
        for name in SCENARIOS:
            assert name in out

    def test_describe(self, capsys, tmp_path):
        from repro.cli import main

        trace_path = tmp_path / "trace.json"
        code = main([
            "scenario", "describe", "chat-sharegpt",
            "--seed", "1", "--trace-output", str(trace_path),
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "chat-sharegpt" in out
        payload = json.loads(trace_path.read_text())
        assert payload == trace_json_dicts(get_scenario("chat-sharegpt").build(1))

    def test_unknown_name_fails(self, capsys):
        from repro.cli import main

        assert main(["scenario", "describe", "nope"]) == 2
        assert "unknown scenario" in capsys.readouterr().err

    def test_run_byte_identical(self, capsys, tmp_path):
        """Two identical `scenario run` invocations write byte-identical
        result JSON (the CI scenarios job diffs exactly this)."""
        from repro.cli import main

        payloads = []
        for tag in ("a", "b"):
            out_path = tmp_path / f"run-{tag}.json"
            code = main([
                "scenario", "run", "multi-tenant-prod",
                "--replicas", "2", "--seed", "3",
                "--sessions", "12",
                "--result-output", str(out_path),
            ])
            assert code == 0
            payloads.append(out_path.read_bytes())
        assert payloads[0] == payloads[1]
        out = capsys.readouterr().out
        assert "tenant interactive" in out
        result = json.loads(payloads[0])
        assert {r["tenant"] for r in result["requests"]} <= {
            "interactive", "standard", "batch"
        }


class TestDashboardScenarios:
    def test_scenarios_section(self):
        from repro.dashboard import scenarios_section_html

        html_out = scenarios_section_html(list_scenarios())
        for name in SCENARIOS:
            assert name in html_out

    def test_scenarios_section_with_tenant_lanes(self):
        from repro.dashboard import scenarios_section_html

        trace = get_scenario("multi-tenant-prod").with_sessions(6).build(seed=0)
        report = summarize_requests(
            trace, 30.0, 1.0,
            tenant_slos={
                **get_scenario("multi-tenant-prod").tenant_slos(),
                "ghost": ServiceLevelObjective(),
            },
        )
        html_out = scenarios_section_html(list_scenarios(), load=report)
        assert "ghost" in html_out
        assert "&mdash;" in html_out  # NaN lanes render as dashes
