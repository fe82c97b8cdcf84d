"""Tests for the deployment-space optimizer (repro.analysis.optimize)."""

import json
import math
import random

import pytest

from repro.analysis.optimize import (
    FRONTIER_NAMES,
    OBJECTIVES,
    DeploymentCandidate,
    OptimizationReport,
    ScreenedConfig,
    SearchSpace,
    best_config,
    build_deployment,
    dominates,
    extract_frontiers,
    non_dominated_indices,
    optimize,
    screen,
)
from repro.analysis.optimize import pareto as pareto_module
from repro.cluster.planner import CapacityPlan
from repro.control import autoscaler_from_plan, derive_autoscaler_bounds
from repro.control.autoscale import QueueDepthAutoscaler
from repro.core.request import GenerationConfig
from repro.hardware.spec import DEFAULT_USD_PER_KW_HOUR, HardwareSpec
from repro.hardware.zoo import get_hardware, register_hardware
from repro.perf.estimator import InferenceEstimator
from repro.perf.kernel import DirectStepCost
from repro.perf.planner import PlanScore
from repro.perf.parallelism import ParallelismPlan
from repro.runtime.loadgen import LoadReport, ServiceLevelObjective


def _tiny_space(**overrides) -> SearchSpace:
    kwargs = dict(
        models=("llama-2-7b",),
        hardware=("A100", "H100"),
        frameworks=("vLLM",),
        quant_schemes=("fp16", "fp8"),
        tensor_parallel=(1,),
        batch_sizes=(1, 8, 16),
        max_replicas=32,
    )
    kwargs.update(overrides)
    return SearchSpace(**kwargs)


def _pairwise_frontier(points) -> list[int]:
    """Reference non-dominated set: compare every pair (minimization)."""
    return [
        i
        for i, p in enumerate(points)
        if not any(
            all(a <= b for a, b in zip(q, p)) and any(a < b for a, b in zip(q, p))
            for j, q in enumerate(points)
            if j != i
        )
    ]


_SPECIAL_VALUES = (0.0, -0.0, 1.0, -1.0, 2.5, math.inf, -math.inf)


class TestPareto:
    def test_dominates_minimization(self):
        assert dominates((1.0, 2.0), (2.0, 2.0))
        assert dominates((1.0, 1.0), (2.0, 2.0))
        assert not dominates((1.0, 3.0), (2.0, 2.0))

    def test_identical_points_do_not_dominate(self):
        assert not dominates((1.0, 2.0), (1.0, 2.0))

    def test_arity_mismatch_raises(self):
        with pytest.raises(ValueError, match="arity"):
            dominates((1.0,), (1.0, 2.0))

    def test_nan_rejected(self):
        with pytest.raises(ValueError, match="NaN"):
            non_dominated_indices([(1.0, float("nan"))])

    def test_inf_is_legal(self):
        indices = non_dominated_indices([(1.0, float("inf")), (2.0, 3.0)])
        assert indices == [0, 1]

    def test_matches_brute_force_on_grid(self):
        # 3-D lattice with deliberate duplicates: the extractor must equal
        # the from-scratch pairwise definition on every point.
        points = [
            (float(x), float(y), float((x * 3 + y) % 4))
            for x in range(4)
            for y in range(4)
        ]
        points += points[:5]  # duplicates survive as ties
        assert non_dominated_indices(points) == _pairwise_frontier(points)

    def test_ties_kept(self):
        indices = non_dominated_indices([(1.0, 2.0), (1.0, 2.0), (0.5, 3.0)])
        assert indices == [0, 1, 2]

    def test_mixed_arity_raises(self):
        with pytest.raises(ValueError, match="arity"):
            non_dominated_indices([(1.0, 2.0), (0.5,)])
        with pytest.raises(ValueError, match="arity"):
            non_dominated_indices([(1.0,), (0.5, 3.0), (2.0,)])

    def test_matches_brute_force_on_random_sets(self):
        # Special values make ties, duplicates, signed zeros and infinities
        # common; a shuffled copy must keep exactly the same points.
        rng = random.Random(20240611)
        for case in range(2000):
            arity = rng.randint(1, 4)
            size = rng.randint(0, 40)
            points = [
                tuple(
                    rng.choice(_SPECIAL_VALUES)
                    if rng.random() < 0.5
                    else rng.uniform(-3.0, 3.0)
                    for _ in range(arity)
                )
                for _ in range(size)
            ]
            expected = _pairwise_frontier(points)
            assert non_dominated_indices(points) == expected, case
            order = list(range(size))
            rng.shuffle(order)
            shuffled = [points[i] for i in order]
            mapped = sorted(order[i] for i in non_dominated_indices(shuffled))
            assert mapped == expected, case

    def test_dominance_checks_scale_with_frontier(self, monkeypatch):
        # Deterministic complexity guard: count dominance checks instead of
        # timing.  Input is ordered worst-first, where a pairwise scan
        # needs ~n^2/2 checks before it meets each point's dominators.
        calls = 0
        inner = pareto_module.dominates

        def counting(a, b):
            nonlocal calls
            calls += 1
            return inner(a, b)

        monkeypatch.setattr(pareto_module, "dominates", counting)
        rng = random.Random(7)
        points = sorted(
            ((rng.random(), rng.random()) for _ in range(5000)), reverse=True
        )
        frontier = non_dominated_indices(points)
        assert 1 <= len(frontier) < 50
        assert calls <= len(points) * (len(frontier) + 1)


class TestSearchSpace:
    def test_unknown_model_raises(self):
        with pytest.raises(KeyError):
            _tiny_space(models=("no-such-model",))

    def test_unknown_hardware_raises(self):
        with pytest.raises(KeyError):
            _tiny_space(hardware=("TPU-v9",))

    def test_unknown_framework_raises(self):
        with pytest.raises(KeyError):
            _tiny_space(frameworks=("no-such-framework",))

    def test_unknown_quant_raises(self):
        with pytest.raises(ValueError, match="quant"):
            _tiny_space(quant_schemes=("int3",))

    def test_unknown_router_raises(self):
        with pytest.raises(ValueError, match="router"):
            _tiny_space(routers=("random-walk",))

    def test_empty_axis_raises(self):
        with pytest.raises(ValueError, match="empty"):
            _tiny_space(hardware=())

    def test_duplicate_batches_raise(self):
        with pytest.raises(ValueError, match="unique"):
            _tiny_space(batch_sizes=(8, 8))

    @pytest.mark.parametrize(
        "axis, labels",
        [
            ("models", ("llama-2-7b", "LLaMA-2-7B")),
            ("hardware", ("A100", "a100")),
            ("frameworks", ("vLLM", "vllm")),
            ("quant_schemes", ("fp16", "fp16")),
            ("tensor_parallel", (1, 1)),
            ("routers", ("round-robin", "round-robin")),
        ],
    )
    def test_repeated_axis_labels_raise(self, axis, labels):
        with pytest.raises(ValueError, match=f"{axis}.*unique"):
            _tiny_space(**{axis: labels})

    @pytest.mark.parametrize(
        "overrides",
        [
            {"tensor_parallel": (0,)},
            {"batch_sizes": (0,)},
            {"input_tokens": 0},
            {"output_tokens": 0},
            {"target_rate_rps": 0.0},
            {"max_replicas": 0},
            {"target_rate_rps": math.nan},
        ],
    )
    def test_bad_numerics_raise(self, overrides):
        with pytest.raises(ValueError):
            _tiny_space(**overrides)

    @pytest.mark.parametrize(
        "field", [{"target_rate_rps": None}, {"slo": {"ttft_s": None}}]
    )
    def test_null_numerics_in_a_space_file_raise(self, field):
        # A JSON null in a float field loads as NaN; validation rejects it.
        payload = {
            "models": ["llama-2-7b"], "hardware": ["A100"], "frameworks": ["vLLM"],
            **field,
        }
        with pytest.raises(ValueError, match="positive"):
            SearchSpace.from_json_dict(payload)

    def test_size_is_axis_product(self):
        space = _tiny_space()
        assert space.size == 1 * 2 * 1 * 2 * 1 * 3

    def test_enumeration_order_and_skips(self):
        # SambaFlow never runs on A100 (Table III): the pair is skipped,
        # counted, and the surviving candidates keep declared axis order.
        space = _tiny_space(
            frameworks=("SambaFlow", "vLLM"), quant_schemes=("fp16",)
        )
        candidates, skipped = space.enumerate_deployments()
        assert skipped == 2  # SambaFlow x {A100, H100}
        assert [c.key for c in candidates] == [
            "llama-2-7b/A100/vLLM/fp16/tp1",
            "llama-2-7b/H100/vLLM/fp16/tp1",
        ]
        assert all(isinstance(c, DeploymentCandidate) for c in candidates)

    def test_build_deployment_rejects_invalid_combo(self):
        with pytest.raises(ValueError):
            build_deployment("llama-2-7b", "A100", "SambaFlow", "fp16", 1)

    def test_json_round_trip(self):
        space = _tiny_space(
            routers=("round-robin", "least-outstanding"),
            slo=ServiceLevelObjective(ttft_s=2.0, itl_s=0.1, e2e_s=30.0),
        )
        clone = SearchSpace.from_json_dict(
            json.loads(json.dumps(space.to_json_dict()))
        )
        assert clone == space
        assert clone.slo.e2e_s == 30.0

    def test_json_round_trip_null_e2e(self):
        space = _tiny_space()
        clone = SearchSpace.from_json_dict(space.to_json_dict())
        assert clone.slo.e2e_s is None


class TestScreening:
    def test_screen_counts_and_order(self):
        space = _tiny_space()
        configs, stats = screen(space)
        assert stats.configs_nominal == space.size
        assert stats.configs_screened == len(configs)
        assert stats.configs_screened + stats.skipped_invalid == space.size
        keys = [c.key for c in configs]
        assert keys == sorted(set(keys), key=keys.index)  # unique, stable

    def test_screen_prices_match_closed_form(self):
        space = _tiny_space(quant_schemes=("fp16",), hardware=("A100",))
        configs, _ = screen(space)
        lane = next(c for c in configs if not c.oom)
        hw = get_hardware(lane.hardware)
        capped = min(lane.replicas, space.max_replicas)
        expected_cost = (capped * hw.hourly_cost * lane.num_devices / 3600.0) / (
            space.target_rate_rps * (space.input_tokens + space.output_tokens)
        )
        assert lane.cost_per_token_usd == pytest.approx(expected_cost)
        assert lane.energy_per_token_j == pytest.approx(
            lane.average_power_w / lane.throughput_tokens_per_s
        )

    def test_screen_matches_direct_estimator(self):
        """Every screening lane agrees with the un-memoized estimator."""
        space = SearchSpace(
            models=("llama-2-7b", "llama-3-8b"),
            hardware=("A100", "H100", "MI300X"),
            frameworks=("vLLM", "TRT-LLM"),
            quant_schemes=("fp16", "fp8", "int8"),
            tensor_parallel=(1, 2),
            batch_sizes=(1, 8, 64),
        )
        configs, _ = screen(space)
        lanes = [c for c in configs if not c.oom]
        assert len(lanes) > 100
        for c in lanes:
            dep = build_deployment(c.model, c.hardware, c.framework, c.quant, c.tp)
            metrics = InferenceEstimator(dep, kernel=DirectStepCost(dep)).estimate(
                GenerationConfig(space.input_tokens, space.output_tokens, c.batch_size)
            )
            expected = metrics.end_to_end_latency_s
            assert c.e2e_s == pytest.approx(expected, rel=1e-12), c.key

    def test_oom_lane_sentinels(self):
        # 70B at fp16 on a single 40GB A100 cannot even hold weights.
        space = SearchSpace(
            models=("llama-2-70b",),
            hardware=("A100",),
            frameworks=("vLLM",),
            batch_sizes=(1,),
        )
        configs, stats = screen(space)
        assert len(configs) == 1
        lane = configs[0]
        assert lane.oom and not lane.feasible and not lane.slo_ok
        assert lane.replicas == 0
        assert math.isinf(lane.cost_per_token_usd)
        assert math.isinf(lane.energy_per_token_j)
        assert lane.slo_headroom == float("-inf")
        assert stats.oom_lanes == 1

    def test_best_config_requires_known_objective(self):
        with pytest.raises(KeyError, match="objective"):
            best_config([], "latency")

    def test_best_config_none_when_nothing_eligible(self):
        assert best_config([], "cost_per_token") is None

    def test_best_config_is_min_over_eligible(self):
        space = _tiny_space()
        configs, _ = screen(space)
        best = best_config(configs, "cost_per_token")
        eligible = [c for c in configs if not c.oom and c.feasible and c.slo_ok]
        assert best is not None
        assert best.cost_per_token_usd == min(
            c.cost_per_token_usd for c in eligible
        )

    def test_energy_objective_aliases(self):
        assert OBJECTIVES["energy_per_token"] == OBJECTIVES["joules_per_token"]

    def test_screened_config_json_round_trip(self):
        space = _tiny_space()
        configs, _ = screen(space)
        for lane in configs[:4]:
            clone = ScreenedConfig.from_json_dict(
                json.loads(json.dumps(lane.to_json_dict()))
            )
            assert clone == lane

    def test_screened_config_json_round_trip_oom(self):
        lane = ScreenedConfig(
            model="m",
            hardware="h",
            framework="f",
            quant="fp16",
            tp=1,
            batch_size=1,
            num_devices=1,
            replicas=0,
            feasible=False,
            oom=True,
            slo_ok=False,
            ttft_s=0.0,
            itl_s=float("inf"),
            e2e_s=float("inf"),
            per_replica_rps=0.0,
            throughput_tokens_per_s=0.0,
            average_power_w=float("nan"),
            cost_per_token_usd=float("inf"),
            energy_per_token_j=float("inf"),
            perplexity=5.0,
            slo_headroom=float("-inf"),
        )
        payload = json.loads(json.dumps(lane.to_json_dict()))
        assert payload["itl_s"] is None and payload["average_power_w"] is None
        clone = ScreenedConfig.from_json_dict(payload)
        # Non-finite sentinels collapse to null and load back as NaN; the
        # oom flag carries the verdict losslessly.
        assert math.isnan(clone.itl_s) and math.isnan(clone.average_power_w)
        assert clone.oom and clone.key == lane.key


class TestFrontiers:
    def test_frontier_names_fixed(self):
        assert FRONTIER_NAMES == (
            "cost_vs_slo",
            "energy_vs_latency",
            "throughput_vs_perplexity",
        )

    def test_frontiers_equal_brute_force(self):
        # Independent re-derivation of every frontier from the screened
        # lanes, using only the documented eligibility + objective pairs.
        space = _tiny_space()
        configs, _ = screen(space)
        frontiers = extract_frontiers(configs)
        specs = {
            "cost_vs_slo": (
                lambda c: not c.oom and c.feasible,
                lambda c: (c.cost_per_token_usd, -c.slo_headroom),
            ),
            "energy_vs_latency": (
                lambda c: not c.oom,
                lambda c: (c.energy_per_token_j, c.e2e_s),
            ),
            "throughput_vs_perplexity": (
                lambda c: not c.oom,
                lambda c: (-c.throughput_tokens_per_s, c.perplexity),
            ),
        }
        for name, (eligible_fn, objectives_fn) in specs.items():
            eligible = [c for c in configs if eligible_fn(c)]
            brute = {
                a.key
                for a in eligible
                if not any(
                    dominates(objectives_fn(b), objectives_fn(a))
                    for b in eligible
                    if b is not a
                )
            }
            assert {c.key for c in frontiers[name]} == brute
            assert frontiers[name]  # non-degenerate on this space

    def test_no_frontier_point_dominates_another(self):
        space = _tiny_space(quant_schemes=("fp16", "fp8", "int8"))
        report = optimize(space)
        specs = {
            "cost_vs_slo": lambda c: (c.cost_per_token_usd, -c.slo_headroom),
            "energy_vs_latency": lambda c: (c.energy_per_token_j, c.e2e_s),
            "throughput_vs_perplexity": lambda c: (
                -c.throughput_tokens_per_s,
                c.perplexity,
            ),
        }
        for name, objectives_fn in specs.items():
            members = report.frontiers[name]
            for a in members:
                for b in members:
                    assert not dominates(objectives_fn(a), objectives_fn(b))

    def test_frontier_sorted_along_first_axis(self):
        # Members come back sorted by objective tuple: the leading axis
        # is non-decreasing, so walking a frontier trades it monotonically.
        frontiers = extract_frontiers(screen(_tiny_space())[0])
        energy = [c.energy_per_token_j for c in frontiers["energy_vs_latency"]]
        assert energy == sorted(energy)
        cost = [c.cost_per_token_usd for c in frontiers["cost_vs_slo"]]
        assert cost == sorted(cost)


class TestOptimizeReport:
    def test_double_run_byte_identical(self):
        space = _tiny_space()
        first = optimize(space).to_json()
        second = optimize(space).to_json()
        assert first == second

    def test_double_run_byte_identical_with_refinement(self):
        space = _tiny_space(batch_sizes=(8,), max_replicas=8)
        kwargs = dict(refine_top=1, seed=7, refine_num_requests=12)
        first = optimize(space, **kwargs).to_json()
        second = optimize(space, **kwargs).to_json()
        assert first == second

    def test_json_is_canonical(self, tmp_path):
        report = optimize(_tiny_space())
        text = report.to_json()
        assert text.endswith("\n")
        payload = json.loads(text)
        assert json.dumps(payload, indent=1, sort_keys=True) + "\n" == text
        path = report.save(tmp_path / "report.json")
        assert path.read_text() == text

    def test_unknown_objective_raises(self):
        with pytest.raises(KeyError, match="objective"):
            optimize(_tiny_space(), objective="happiness")

    def test_refine_top_zero_stays_analytic(self):
        report = optimize(_tiny_space())
        assert report.refined == ()

    def test_refinement_populates_plans_and_bounds(self):
        space = _tiny_space(
            batch_sizes=(8,), max_replicas=8, routers=("round-robin",)
        )
        report = optimize(space, refine_top=1, seed=7, refine_num_requests=12)
        assert len(report.refined) == 1  # one deployment x one router
        refined = report.refined[0]
        assert refined.router == "round-robin"
        assert isinstance(refined.capacity_plan, CapacityPlan)
        assert refined.plan_ranking  # device budget always admits tp=1
        if refined.capacity_plan.feasible:
            lo, hi = (
                refined.autoscaler_min_replicas,
                refined.autoscaler_max_replicas,
            )
            assert (lo, hi) == derive_autoscaler_bounds(refined.capacity_plan)
        else:
            assert refined.autoscaler_min_replicas is None

    def test_render_mentions_best_and_frontiers(self):
        report = optimize(_tiny_space())
        text = report.render()
        assert "best cost_per_token" in text
        for name in FRONTIER_NAMES:
            assert f"frontier {name}" in text

    def test_render_infeasible_space(self):
        # A rate no single-node fleet of 1 replica can absorb within SLO.
        space = _tiny_space(
            batch_sizes=(1,),
            target_rate_rps=5000.0,
            max_replicas=1,
        )
        report = optimize(space)
        assert report.best is None
        assert "no configuration meets the SLO" in report.render()

    def test_report_round_trips_through_json(self):
        report = optimize(_tiny_space())
        payload = json.loads(report.to_json())
        space = SearchSpace.from_json_dict(payload["space"])
        assert space == report.space
        for name in FRONTIER_NAMES:
            members = [
                ScreenedConfig.from_json_dict(entry)
                for entry in payload["frontiers"][name]
            ]
            assert tuple(members) == report.frontiers[name]
        assert isinstance(report, OptimizationReport)


class TestAutoscalerBounds:
    def _plan(self, replicas=3, feasible=True) -> CapacityPlan:
        report = LoadReport(
            offered_rate_rps=4.0,
            completed_requests=10,
            makespan_s=5.0,
            throughput_tokens_per_s=100.0,
            ttft_p50_s=0.5,
            ttft_p95_s=0.9,
            ttft_p99_s=1.0,
            itl_mean_s=0.05,
            slo_attainment=0.97,
            goodput_rps=3.9,
            average_power_w=400.0,
            ntpot_mean_s=0.06,
        )
        return CapacityPlan(
            target_rate_rps=4.0,
            num_replicas=replicas,
            analytic_replicas=replicas,
            feasible=feasible,
            report=report,
            probes=((replicas, 0.97),),
        )

    def test_bounds_from_feasible_plan(self):
        assert derive_autoscaler_bounds(self._plan(replicas=4)) == (4, 6)

    def test_ceiling_never_equals_floor(self):
        assert derive_autoscaler_bounds(
            self._plan(replicas=1), surge_factor=1.0
        ) == (1, 2)

    def test_infeasible_plan_raises(self):
        with pytest.raises(ValueError, match="infeasible"):
            derive_autoscaler_bounds(self._plan(feasible=False))

    def test_bad_surge_factor_raises(self):
        with pytest.raises(ValueError, match="surge_factor"):
            derive_autoscaler_bounds(self._plan(), surge_factor=0.5)

    def test_autoscaler_from_plan_builds_policy(self):
        policy = autoscaler_from_plan("queue-depth", self._plan(replicas=2))
        assert isinstance(policy, QueueDepthAutoscaler)
        assert policy.min_replicas == 2
        assert policy.max_replicas == 3

    def test_autoscaler_from_plan_rejects_explicit_bounds(self):
        with pytest.raises(ValueError, match="min_replicas"):
            autoscaler_from_plan("queue-depth", self._plan(), min_replicas=1)

    def test_plan_json_round_trip(self):
        plan = self._plan(replicas=5)
        clone = CapacityPlan.from_json_dict(
            json.loads(json.dumps(plan.to_json_dict()))
        )
        assert clone == plan

    def test_plan_json_round_trip_nan_probe(self):
        plan = self._plan()
        plan = CapacityPlan(
            target_rate_rps=plan.target_rate_rps,
            num_replicas=plan.num_replicas,
            analytic_replicas=plan.analytic_replicas,
            feasible=plan.feasible,
            report=plan.report,
            probes=((1, float("nan")),),
        )
        payload = json.loads(json.dumps(plan.to_json_dict()))
        assert payload["probes"] == [[1, None]]
        clone = CapacityPlan.from_json_dict(payload)
        assert math.isnan(clone.probes[0][1])

    def test_plan_score_json_round_trip(self):
        score = PlanScore(
            plan=ParallelismPlan(tp=2, pp=2, ep=1),
            throughput_tokens_per_s=1234.5,
            ttft_s=float("inf"),
            oom=True,
        )
        payload = json.loads(json.dumps(score.to_json_dict()))
        assert payload["ttft_s"] is None
        clone = PlanScore.from_json_dict(payload)
        assert clone.plan == score.plan
        assert math.isnan(clone.ttft_s)  # inf -> null -> NaN; oom flag rules
        assert clone.oom


class TestHardwareEconomics:
    def test_zoo_entries_have_explicit_costs(self):
        for name in ("A100", "H100", "GH200", "MI250", "MI300X", "Gaudi2", "SN40L"):
            spec = get_hardware(name)
            assert spec.cost_per_hour is not None
            assert math.isfinite(spec.hourly_cost) and spec.hourly_cost > 0
            assert math.isfinite(spec.tdp_w) and spec.tdp_w > 0

    def test_hourly_cost_fallback_is_tdp_proportional(self):
        spec = get_hardware("A100")
        bare = HardwareSpec(
            **{
                **{
                    f.name: getattr(spec, f.name)
                    for f in spec.__dataclass_fields__.values()
                },
                "name": "bare-board",
                "cost_per_hour": None,
            }
        )
        assert bare.hourly_cost == pytest.approx(
            bare.tdp_w / 1000.0 * DEFAULT_USD_PER_KW_HOUR
        )

    def test_negative_cost_rejected_at_construction(self):
        spec = get_hardware("H100")
        with pytest.raises(ValueError, match="cost_per_hour"):
            HardwareSpec(
                **{
                    **{
                        f.name: getattr(spec, f.name)
                        for f in spec.__dataclass_fields__.values()
                    },
                    "name": "cheap-board",
                    "cost_per_hour": -1.0,
                }
            )

    def test_registration_rejects_nonfinite_cost(self):
        spec = get_hardware("H100")
        bad = HardwareSpec(
            **{
                **{
                    f.name: getattr(spec, f.name)
                    for f in spec.__dataclass_fields__.values()
                },
                "name": "inf-board",
                "cost_per_hour": float("inf"),
            }
        )
        with pytest.raises(ValueError, match="hourly_cost"):
            register_hardware(bad)
        from repro.hardware.zoo import HARDWARE_ZOO

        assert "inf-board" not in HARDWARE_ZOO


class TestLoadReportRoundTrip:
    def test_round_trip_with_nan_fields(self):
        report = LoadReport(
            offered_rate_rps=4.0,
            completed_requests=0,
            makespan_s=1.0,
            throughput_tokens_per_s=0.0,
            ttft_p50_s=float("nan"),
            ttft_p95_s=float("nan"),
            ttft_p99_s=float("nan"),
            itl_mean_s=float("nan"),
            slo_attainment=0.0,
            goodput_rps=0.0,
            average_power_w=0.0,
            failure_rate=1.0,
        )
        payload = json.loads(json.dumps(report.to_json_dict()))
        assert payload["ttft_p50_s"] is None
        clone = LoadReport.from_json_dict(payload)
        assert math.isnan(clone.ttft_p50_s)
        assert math.isnan(clone.ntpot_mean_s)
        assert clone.failure_rate == 1.0
        assert clone.tenants == ()
