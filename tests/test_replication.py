"""Tests for repro.experiments: stats, replication, comparison, bundles."""

import dataclasses
import json
import math

import pytest

from repro.experiments import (
    ExperimentBundle,
    ExperimentSpec,
    WorkloadSpec,
    bootstrap_interval,
    bundle_replication,
    compare_replications,
    mann_whitney_u_test,
    paired_t_test,
    replay,
    run_replication,
    run_seed,
    summarize_samples,
    t_interval,
    verify_replay,
    welch_t_test,
)
from repro.experiments.diff import json_differences, ulp_distance

#: Fixed seed set goldened by the A/A-vs-A/B acceptance tests.
SEEDS = (0, 1, 2, 3)


def small_spec(**overrides) -> ExperimentSpec:
    base = dict(
        name="base",
        model="llama-2-7b",
        hardware="h100",
        framework="vllm",
        workload=WorkloadSpec(
            kind="open_loop",
            num_requests=10,
            input_tokens=128,
            output_tokens=64,
            rate_rps=4.0,
        ),
        seeds=SEEDS,
    )
    base.update(overrides)
    return ExperimentSpec(**base)


# ----------------------------------------------------------------------
# Stats layer
# ----------------------------------------------------------------------


class TestIntervals:
    def test_t_interval_brackets_mean(self):
        lo, hi = t_interval([1.0, 2.0, 3.0, 4.0, 5.0])
        assert lo < 3.0 < hi

    def test_single_sample_has_no_interval(self):
        lo, hi = t_interval([1.0])
        assert math.isnan(lo) and math.isnan(hi)

    def test_constant_samples_zero_width(self):
        lo, hi = t_interval([2.0, 2.0, 2.0])
        assert lo == hi == 2.0

    def test_bootstrap_is_deterministic(self):
        samples = [1.0, 2.5, 3.0, 4.5, 5.0]
        assert bootstrap_interval(samples) == bootstrap_interval(samples)

    def test_bootstrap_brackets_mean(self):
        lo, hi = bootstrap_interval([1.0, 2.0, 3.0, 4.0, 5.0])
        assert lo < 3.0 < hi

    def test_nan_samples_dropped(self):
        summary = summarize_samples("m", [1.0, float("nan"), 3.0])
        assert summary.n == 2
        assert summary.mean == pytest.approx(2.0)

    def test_no_finite_samples(self):
        summary = summarize_samples("m", [float("nan")])
        assert summary.n == 0
        assert math.isnan(summary.mean)

    def test_one_seed_no_ci(self):
        summary = summarize_samples("m", [5.0])
        assert summary.n == 1
        assert summary.mean == 5.0
        assert math.isnan(summary.ci_lo) and math.isnan(summary.ci_hi)
        assert summary.method == "none"

    def test_bad_confidence_rejected(self):
        with pytest.raises(ValueError):
            t_interval([1.0, 2.0], confidence=1.5)

    def test_unknown_method_rejected(self):
        with pytest.raises(ValueError):
            summarize_samples("m", [1.0, 2.0], method="jackknife")


class TestSignificanceTests:
    def test_welch_identical_constants_not_significant(self):
        result = welch_t_test([1.0, 1.0, 1.0], [1.0, 1.0, 1.0])
        assert result.p_value == 1.0
        assert not result.significant()

    def test_welch_distinct_constants_significant(self):
        result = welch_t_test([1.0, 1.0, 1.0], [2.0, 2.0, 2.0])
        assert result.p_value == 0.0
        assert result.significant()

    def test_welch_clear_separation(self):
        a = [1.0, 1.1, 0.9, 1.05]
        b = [2.0, 2.1, 1.9, 2.05]
        assert welch_t_test(a, b).significant()

    def test_welch_small_samples_no_verdict(self):
        result = welch_t_test([1.0], [2.0])
        assert math.isnan(result.p_value)
        assert not result.significant()  # NaN never flags

    def test_mann_whitney_separation(self):
        a = [1.0, 1.1, 0.9, 1.05, 1.02]
        b = [2.0, 2.1, 1.9, 2.05, 2.02]
        assert mann_whitney_u_test(a, b).significant()

    def test_paired_zero_differences_not_significant(self):
        result = paired_t_test([1.0, 2.0, 3.0], [1.0, 2.0, 3.0])
        assert result.p_value == 1.0
        assert not result.significant()

    def test_paired_constant_offset_significant(self):
        result = paired_t_test([1.0, 2.0, 3.0], [1.5, 2.5, 3.5])
        assert result.p_value == 0.0
        assert result.significant()

    def test_paired_rejects_length_mismatch(self):
        with pytest.raises(ValueError):
            paired_t_test([1.0, 2.0], [1.0])

    def test_paired_drops_nan_pairs_together(self):
        result = paired_t_test(
            [1.0, float("nan"), 3.0, 4.1], [1.2, 2.0, 3.3, 4.0]
        )
        assert result.n_a == 3


# ----------------------------------------------------------------------
# Spec
# ----------------------------------------------------------------------


class TestSpec:
    def test_json_round_trip(self):
        spec = small_spec(quant="fp8", mode="cluster", num_replicas=3)
        rebuilt = ExperimentSpec.from_json_dict(spec.to_json_dict())
        assert rebuilt == spec

    def test_workload_build_is_seed_deterministic(self):
        wl = small_spec().workload
        a = wl.build(7)
        b = wl.build(7)
        assert [(r.input_tokens, r.arrival_time) for r in a] == [
            (r.input_tokens, r.arrival_time) for r in b
        ]

    def test_different_seeds_differ(self):
        wl = small_spec().workload
        assert [r.arrival_time for r in wl.build(0)] != [
            r.arrival_time for r in wl.build(1)
        ]

    def test_fixed_workload_ignores_seed(self):
        wl = WorkloadSpec(kind="fixed", num_requests=4, input_tokens=64,
                          output_tokens=16)
        assert [r.input_tokens for r in wl.build(0)] == [
            r.input_tokens for r in wl.build(99)
        ]

    def test_paired_with(self):
        a = small_spec()
        b = small_spec(name="other", quant="fp8")
        assert a.paired_with(b)
        c = small_spec(name="c", seeds=(7, 8, 9, 10))
        assert not a.paired_with(c)

    def test_rejects_unknown_quant(self):
        with pytest.raises(ValueError):
            small_spec(quant="fp4")

    def test_rejects_duplicate_seeds(self):
        with pytest.raises(ValueError):
            small_spec(seeds=(0, 0, 1))

    def test_rejects_empty_seeds(self):
        with pytest.raises(ValueError):
            small_spec(seeds=())

    def test_rejects_unknown_workload_kind(self):
        with pytest.raises(ValueError):
            WorkloadSpec(kind="burst")


# ----------------------------------------------------------------------
# Replication runner
# ----------------------------------------------------------------------


@pytest.fixture(scope="module")
def base_replication():
    return run_replication(small_spec())


@pytest.fixture(scope="module")
def fp8_replication():
    return run_replication(small_spec(name="fp8", quant="fp8"))


class TestReplication:
    def test_one_result_per_seed(self, base_replication):
        assert base_replication.num_seeds == len(SEEDS)
        assert tuple(sr.seed for sr in base_replication.seed_results) == SEEDS

    def test_core_metrics_summarized(self, base_replication):
        for metric in (
            "ttft_p50_s", "itl_mean_s", "ntpot_mean_s", "e2e_p50_s",
            "throughput_tokens_per_s", "slo_attainment", "failure_rate",
            "goodput_rps", "makespan_s",
        ):
            summary = base_replication.summaries[metric]
            assert summary.n == len(SEEDS)

    def test_intervals_bracket_means(self, base_replication):
        ttft = base_replication.summaries["ttft_p50_s"]
        assert ttft.ci_lo <= ttft.mean <= ttft.ci_hi

    def test_snapshot_attached_per_seed(self, base_replication):
        for sr in base_replication.seed_results:
            assert sr.snapshot is not None
            assert "ttft_s" in sr.snapshot.histograms

    def test_profiled_spec_adds_utilization_metrics(self):
        report = run_replication(
            small_spec(name="profiled", seeds=(0, 1), profiled=True)
        )
        assert "mfu" in report.summaries
        assert "joules_per_token" in report.summaries
        assert all(sr.profile is not None for sr in report.seed_results)

    def test_runs_are_deterministic(self, base_replication):
        again = run_seed(small_spec(), SEEDS[0])
        assert again.metrics == base_replication.seed_results[0].metrics

    def test_cluster_mode(self):
        report = run_replication(
            small_spec(name="fleet", mode="cluster", num_replicas=2,
                       seeds=(0, 1))
        )
        assert report.summaries["ttft_p50_s"].n == 2
        for sr in report.seed_results:
            assert sr.snapshot is not None
            assert sr.snapshot.counters["routed"] == 10

    def test_to_table(self, base_replication):
        table = base_replication.to_table()
        assert len(table) == len(base_replication.summaries)
        assert table.single("n", metric="ttft_p50_s") == float(len(SEEDS))

    def test_render_mentions_ci(self, base_replication):
        assert "95% CI" in base_replication.render()

    def test_one_seed_replication_has_no_ci(self):
        report = run_replication(small_spec(name="solo", seeds=(0,)))
        summary = report.summaries["ttft_p50_s"]
        assert summary.n == 1
        assert math.isnan(summary.ci_lo)

    def test_zero_completion_seed_reports_failure(self):
        # An impossible request (KV for 10M tokens) OOMs at admission;
        # the seed must come back as a failure-rate-1 result, not a crash.
        spec = small_spec(
            name="oom",
            seeds=(0,),
            workload=WorkloadSpec(
                kind="fixed", num_requests=2,
                input_tokens=10_000_000, output_tokens=8,
            ),
        )
        result = run_seed(spec, 0)
        assert result.metrics["failure_rate"] == 1.0
        assert result.metrics["completed_requests"] == 0.0
        assert math.isnan(result.metrics["ttft_p50_s"])
        report = run_replication(spec)
        assert report.summaries["failure_rate"].mean == 1.0
        assert report.summaries["ttft_p50_s"].n == 0


# ----------------------------------------------------------------------
# A/A and A/B comparisons (acceptance criteria)
# ----------------------------------------------------------------------


class TestComparisons:
    def test_aa_identical_configs_not_significant(self, base_replication):
        rerun = run_replication(small_spec())
        comparison = compare_replications(base_replication, rerun)
        assert comparison.paired  # same workload + seeds => paired by seed
        assert comparison.significant_metrics() == []
        for comp in comparison.comparisons:
            assert comp.test.p_value == 1.0 or math.isnan(comp.test.p_value)

    def test_ab_quantization_difference_significant(
        self, base_replication, fp8_replication
    ):
        comparison = compare_replications(base_replication, fp8_replication)
        assert comparison.paired
        significant = comparison.significant_metrics()
        # FP8 halves weight traffic: per-token latencies and energy move
        # far beyond seed noise under the goldened seed set.
        assert "itl_mean_s" in significant
        assert "ntpot_mean_s" in significant
        itl = comparison.comparison("itl_mean_s")
        assert itl.mean_b < itl.mean_a

    def test_welch_forced(self, base_replication, fp8_replication):
        comparison = compare_replications(
            base_replication, fp8_replication, test="welch"
        )
        assert not comparison.paired
        assert "itl_mean_s" in comparison.significant_metrics()

    def test_mann_whitney_option(self, base_replication, fp8_replication):
        comparison = compare_replications(
            base_replication, fp8_replication, test="mann-whitney"
        )
        assert comparison.comparison("itl_mean_s").test.test == "mann-whitney-u"

    def test_paired_requires_shared_workload(self, base_replication):
        other = run_replication(small_spec(name="o", seeds=(7, 8)))
        with pytest.raises(ValueError):
            compare_replications(base_replication, other, test="paired")

    def test_table_carries_significance_marker(
        self, base_replication, fp8_replication
    ):
        table = compare_replications(base_replication, fp8_replication).to_table()
        assert table.single("significant", metric="itl_mean_s") == 1.0
        assert table.single("significant", metric="failure_rate") == 0.0

    def test_unknown_test_rejected(self, base_replication):
        with pytest.raises(ValueError):
            compare_replications(base_replication, base_replication, test="z")

    def test_json_dict_is_serializable(self, base_replication, fp8_replication):
        payload = compare_replications(
            base_replication, fp8_replication
        ).to_json_dict()
        assert json.loads(json.dumps(payload)) == payload


# ----------------------------------------------------------------------
# Bundles
# ----------------------------------------------------------------------


class TestBundles:
    def test_replay_is_byte_identical(self, base_replication):
        bundle = bundle_replication(base_replication)
        ok, mismatches = verify_replay(bundle)
        assert ok, mismatches

    def test_save_load_round_trip(self, tmp_path, base_replication):
        bundle = bundle_replication(base_replication)
        path = tmp_path / "bundle.json"
        bundle.save(str(path))
        loaded = ExperimentBundle.load(str(path))
        path2 = tmp_path / "bundle2.json"
        loaded.save(str(path2))
        assert path.read_text() == path2.read_text()

    def test_loaded_bundle_replays(self, tmp_path, base_replication):
        bundle = bundle_replication(base_replication)
        path = tmp_path / "bundle.json"
        bundle.save(str(path))
        loaded = ExperimentBundle.load(str(path))
        ok, mismatches = verify_replay(loaded)
        assert ok, mismatches

    def test_report_rebuilds_summaries(self, base_replication):
        bundle = bundle_replication(base_replication)
        rebuilt = bundle.report()
        assert rebuilt.summaries.keys() == base_replication.summaries.keys()
        for name, summary in base_replication.summaries.items():
            assert rebuilt.summaries[name] == summary

    def test_detects_behavior_change(self, base_replication):
        bundle = bundle_replication(base_replication)
        doctored = dataclasses.replace(
            bundle,
            seed_results=tuple(
                dataclasses.replace(
                    sr, metrics={**sr.metrics, "makespan_s": 1e9}
                )
                for sr in bundle.seed_results
            ),
        )
        ok, mismatches = verify_replay(doctored, replay(doctored))
        assert not ok
        assert len(mismatches) == len(SEEDS)

    def test_mismatch_names_field_and_ulps(self, base_replication):
        bundle = bundle_replication(base_replication)
        payload = bundle.to_json_dict()
        histogram = payload["seed_results"][1]["snapshot"]["histograms"]["ttft_s"]
        histogram["p99"] = math.nextafter(histogram["p99"], math.inf)
        doctored = ExperimentBundle.from_json_dict(payload)
        ok, mismatches = verify_replay(doctored, bundle)
        assert not ok
        assert len(mismatches) == 1
        assert mismatches[0].startswith(
            "seed 1: replayed result differs at "
            "$.snapshot.histograms.ttft_s.p99: "
        )
        assert mismatches[0].endswith("(1 ulp)")

    def test_mismatch_counts_unshown_fields(self, base_replication):
        bundle = bundle_replication(base_replication)
        payload = bundle.to_json_dict()
        metrics = payload["seed_results"][0]["metrics"]
        for name in sorted(metrics)[:5]:
            metrics[name] = -1.5
        doctored = ExperimentBundle.from_json_dict(payload)
        ok, mismatches = verify_replay(doctored, bundle)
        assert not ok
        assert mismatches[0].count(": -1.5 -> ") == 3
        assert mismatches[0].endswith("; and 2 more")

    def test_json_differences_walk(self):
        two_ulp = math.nextafter(math.nextafter(0.1, 1.0), 1.0)
        a = {"h": {"p": [1.0, 2, {"q": 0.1}]}, "gone": {"k": 1}, "z": 0.0}
        b = {"h": {"p": [1.0, 2.0, {"q": two_ulp}, 5]}, "new": 3, "z": -0.0}
        assert [str(d) for d in json_differences(a, b)] == [
            "$.gone: {1 keys} -> (absent)",
            "$.h.p: length 3 -> 4",
            "$.h.p[1]: 2 -> 2.0",
            f"$.h.p[2].q: 0.1 -> {two_ulp!r} (2 ulp)",
            "$.new: (absent) -> 3",
            "$.z: 0.0 -> -0.0 (0 ulp)",
        ]
        assert ulp_distance(-5e-324, 5e-324) == 2

    def test_seed_mismatch_rejected(self, base_replication):
        bundle = bundle_replication(base_replication)
        with pytest.raises(ValueError):
            dataclasses.replace(bundle, seed_results=bundle.seed_results[:-1])

    def test_unknown_version_rejected(self, tmp_path, base_replication):
        bundle = bundle_replication(base_replication)
        payload = bundle.to_json_dict()
        payload["bundle_version"] = 99
        with pytest.raises(ValueError):
            ExperimentBundle.from_json_dict(payload)
