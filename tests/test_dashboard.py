"""Tests for the HTML dashboard generator."""

import functools
import json
import re
from pathlib import Path

import pytest

from repro.bench import BenchmarkRunner
from repro.bench.report import run_all
from repro.dashboard import dashboard_html, write_dashboard


@pytest.fixture(scope="module")
def results():
    return list(_results())


class TestDashboardHtml:
    def test_is_self_contained_html(self, results):
        page = dashboard_html(results)
        assert page.startswith("<!DOCTYPE html>")
        assert "<script src=" not in page  # no external resources
        assert "http://" not in page and "https://" not in page

    def test_embeds_experiment_data(self, results):
        page = dashboard_html(results)
        assert "tab1" in page
        assert "fig17" in page
        assert "MI250" in page

    def test_embedded_json_parses(self, results):
        page = dashboard_html(results)
        match = re.search(r"const DATA = (\{.*?\});\n", page, re.DOTALL)
        assert match, "DATA blob not found"
        data = json.loads(match.group(1))
        assert set(data) == {"tab1", "fig17"}
        assert data["fig17"]["records"]

    def test_claims_carried_with_paper_values(self, results):
        page = dashboard_html(results)
        match = re.search(r"const DATA = (\{.*?\});\n", page, re.DOTALL)
        data = json.loads(match.group(1))
        claims = data["fig17"]["claims"]
        assert any(c["paper"] is not None for c in claims)

    def test_rejects_empty(self):
        with pytest.raises(ValueError, match="no results"):
            dashboard_html([])


class TestWriteDashboard:
    def test_writes_file(self, results, tmp_path):
        path = write_dashboard(results, tmp_path / "dash.html")
        assert path.exists()
        assert path.read_text(encoding="utf-8").startswith("<!DOCTYPE html>")


class TestProfileSection:
    @pytest.fixture()
    def profile(self):
        return _profile()

    def test_profile_section_renders(self, profile):
        from repro.dashboard import profile_section_html

        fragment = profile_section_html(profile)
        assert "Cost attribution profile" in fragment
        assert "MFU" in fragment and "MBU" in fragment
        assert "prefill" in fragment and "decode" in fragment
        assert "Most expensive requests" in fragment
        assert "class='bar'" in fragment

    def test_dashboard_embeds_profile(self, results, profile, tmp_path):
        path = write_dashboard(
            results, tmp_path / "dash.html", profile=profile
        )
        text = path.read_text(encoding="utf-8")
        assert "Cost attribution profile" in text

    def test_empty_profile_section_is_safe(self):
        from repro.dashboard import profile_section_html
        from repro.frameworks.base import get_framework
        from repro.hardware.zoo import get_hardware
        from repro.models.zoo import get_model
        from repro.obs import StepProfiler
        from repro.perf.phases import Deployment

        dep = Deployment(
            get_model("LLaMA-3-8B"), get_hardware("A100"),
            get_framework("vLLM"),
        )
        fragment = profile_section_html(StepProfiler(dep).report(0.0, []))
        assert "Cost attribution profile" in fragment
        assert "nan" not in fragment.replace("dominant", "")


class TestExperimentSections:
    @pytest.fixture(scope="class")
    def replications(self):
        return _replications()

    def test_replication_section_renders(self, replications):
        from repro.dashboard import replication_section_html

        report, _ = replications
        fragment = replication_section_html(report)
        assert "ttft_p50_s" in fragment
        assert "dash-a" in fragment

    def test_comparison_section_renders(self, replications):
        from repro.dashboard import comparison_section_html

        _, comparison = replications
        fragment = comparison_section_html(comparison)
        assert "ttft_p50_s" in fragment
        assert "dash-a" in fragment and "dash-b" in fragment

    def test_dashboard_embeds_sections(self, results, replications, tmp_path):
        report, comparison = replications
        path = write_dashboard(
            results, tmp_path / "dash.html",
            replication=report, comparison=comparison,
        )
        text = path.read_text(encoding="utf-8")
        assert "ttft_p50_s" in text
        assert "dash-a" in text


def _tiny_deployment():
    from repro.frameworks.base import get_framework
    from repro.hardware.zoo import get_hardware
    from repro.models.zoo import get_model
    from repro.perf.phases import Deployment

    return Deployment(
        get_model("LLaMA-3-8B"), get_hardware("A100"), get_framework("vLLM")
    )


def _empty_metrics():
    from repro.obs.metrics import MetricsSnapshot

    return MetricsSnapshot()


def _tiny_cluster():
    from repro.cluster.simulator import ClusterSimulator
    from repro.runtime.workload import fixed_batch_trace

    sim = ClusterSimulator(_tiny_deployment(), 1, max_concurrency=2)
    return sim.run(fixed_batch_trace(1, 32, 8))


def _empty_profile():
    from repro.obs import StepProfiler

    return StepProfiler(_tiny_deployment()).report(0.0, [])


def _nan_replication():
    from repro.experiments import ExperimentSpec, WorkloadSpec
    from repro.experiments.runner import SeedResult, reduce_seed_results

    spec = ExperimentSpec(
        name="degenerate", model="LLaMA-3-8B", hardware="A100",
        framework="vLLM", workload=WorkloadSpec(num_requests=1), seeds=(0,),
    )
    seed_results = (
        SeedResult(seed=0, metrics={"ttft_p50_s": float("nan")}),
    )
    return reduce_seed_results(spec, seed_results)


def _single_seed_comparison():
    from repro.experiments import (
        ExperimentSpec,
        WorkloadSpec,
        compare_replications,
        run_replication,
    )

    spec = ExperimentSpec(
        name="deg-a", model="LLaMA-3-8B", hardware="A100", framework="vLLM",
        workload=WorkloadSpec(
            kind="open_loop", num_requests=2, input_tokens=32,
            output_tokens=8, rate_rps=4.0,
        ),
        seeds=(0,),
    )
    a = run_replication(spec)
    b = run_replication(spec.with_name("deg-b"))
    return compare_replications(a, b)  # one seed: every p-value is NaN


def _empty_telemetry():
    from repro.obs.telemetry import TelemetryHub

    return TelemetryHub().snapshot()  # no samples, no completions, no alerts


def _empty_optimization():
    from repro.analysis.optimize.evaluate import ScreeningStats
    from repro.analysis.optimize.report import (
        FRONTIER_NAMES,
        OptimizationReport,
    )
    from repro.analysis.optimize.space import SearchSpace

    return OptimizationReport(
        space=SearchSpace(
            models=("LLaMA-3-8B",), hardware=("A100",), frameworks=("vLLM",)
        ),
        objective="cost_per_token_usd",
        seed=0,
        stats=ScreeningStats(0, 0, 0, 0),
        best=None,
        frontiers={name: () for name in FRONTIER_NAMES},
        refined=(),
    )


@functools.cache
def _results():
    return tuple(run_all(BenchmarkRunner(), ids=["tab1", "fig17"]))


@functools.cache
def _engine_metrics():
    from repro.obs import EventTracer
    from repro.runtime.engine import ServingEngine
    from repro.runtime.workload import fixed_batch_trace

    engine = ServingEngine(
        _tiny_deployment(), max_concurrency=4, tracer=EventTracer()
    )
    return engine.run(fixed_batch_trace(4, 128, 32)).metrics


@functools.cache
def _chaos_cluster():
    """Crash + straggler faults, burn-rate autoscaling, telemetry alerts."""
    from repro.cluster.simulator import ClusterSimulator
    from repro.control import ControlPlane, FaultSchedule, get_autoscaler
    from repro.frameworks.base import get_framework
    from repro.hardware.zoo import get_hardware
    from repro.models.zoo import get_model
    from repro.obs.telemetry import TelemetryHub
    from repro.perf.phases import Deployment
    from repro.runtime.loadgen import ServiceLevelObjective
    from repro.runtime.workload import open_loop_trace

    dep = Deployment(
        get_model("Mistral-7B"), get_hardware("A100"), get_framework("vLLM")
    )
    slo = ServiceLevelObjective()
    faults = FaultSchedule.generate(
        replicas=["replica0", "replica1"], horizon_s=6.0, seed=11,
        num_crashes=1, num_slowdowns=1,
    )
    control = ControlPlane(
        faults=faults,
        autoscaler=get_autoscaler("burn-rate", slo=slo, max_replicas=4),
    )
    sim = ClusterSimulator(
        dep, 2, max_concurrency=8, control=control,
        telemetry=TelemetryHub(slo=slo),
    )
    return sim.run(open_loop_trace(48, 8.0, 512, 256, seed=7))


@functools.cache
def _profile():
    from repro.runtime.engine import ServingEngine
    from repro.runtime.workload import fixed_batch_trace

    engine = ServingEngine(_tiny_deployment(), max_concurrency=4, profile=True)
    return engine.run(fixed_batch_trace(4, 128, 32)).profile


@functools.cache
def _replications():
    from repro.experiments import (
        ExperimentSpec,
        WorkloadSpec,
        compare_replications,
        run_replication,
    )

    spec = ExperimentSpec(
        name="dash-a", model="llama-2-7b", hardware="h100", framework="vllm",
        workload=WorkloadSpec(
            kind="open_loop", num_requests=6, input_tokens=64,
            output_tokens=24, rate_rps=4.0,
        ),
        seeds=(0, 1),
    )
    a = run_replication(spec)
    return a, compare_replications(a, run_replication(spec.with_name("dash-b")))


@functools.cache
def _tenant_load():
    """Per-tenant SLO lanes from a short multi-tenant scenario run, plus
    an empty ``ghost`` lane whose NaN latencies render as dashes."""
    from repro.cluster.router import get_router
    from repro.cluster.simulator import ClusterSimulator
    from repro.runtime.loadgen import ServiceLevelObjective
    from repro.scenarios import get_scenario

    scenario = get_scenario("multi-tenant-prod").with_sessions(12)
    trace = scenario.build(0)
    result = ClusterSimulator(
        _tiny_deployment(), 2, router=get_router("session-affinity"),
        max_concurrency=8,
    ).run(trace)
    span = trace[-1].arrival_time - trace[0].arrival_time
    return result.load_report(
        len(trace) / span,
        tenant_slos={**scenario.tenant_slos(), "ghost": ServiceLevelObjective()},
    )


@functools.cache
def _refined_optimization():
    from repro.analysis.optimize import SearchSpace, optimize

    space = SearchSpace(
        models=("llama-2-7b",), hardware=("A100", "H100"),
        frameworks=("vLLM",), batch_sizes=(1, 8),
    )
    return optimize(space, refine_top=1, seed=0)


class TestDegenerateSections:
    """Every section builder must survive its emptiest legal input.

    Empty snapshots, NaN-only metrics, single-seed comparisons (NaN
    p-values), zero-config optimizer reports and sample-free telemetry
    hubs all occur in real short runs; none may crash the dashboard or
    leak a bare ``nan`` into the rendered HTML.
    """

    CASES = [
        pytest.param("metrics_section_html", _empty_metrics, id="metrics"),
        pytest.param("cluster_section_html", _tiny_cluster, id="cluster"),
        pytest.param("profile_section_html", _empty_profile, id="profile"),
        pytest.param(
            "replication_section_html", _nan_replication, id="replication"
        ),
        pytest.param(
            "comparison_section_html", _single_seed_comparison, id="comparison"
        ),
        pytest.param("scenarios_section_html", lambda: [], id="scenarios"),
        pytest.param(
            "telemetry_section_html", _empty_telemetry, id="telemetry"
        ),
        pytest.param(
            "optimize_section_html", _empty_optimization, id="optimize"
        ),
    ]

    @pytest.mark.parametrize("builder_name,make_input", CASES)
    def test_renders_without_nan(self, builder_name, make_input):
        import repro.dashboard.html as dash

        builder = getattr(dash, builder_name)
        fragment = builder(make_input())
        assert isinstance(fragment, str) and "<h2>" in fragment
        # Word-bounded so "tenants"/"dominant" don't false-positive;
        # a leaked float NaN renders as the standalone token "nan".
        assert not re.search(r"\bnan\b", fragment)


# ----------------------------------------------------------------------
# Byte-level guard: every section builder and the full page, rendered
# from small seeded fixtures, must match the committed HTML exactly.
# After an intended rendering change, regenerate the files with
#   PYTHONPATH=src python -m tests.test_dashboard
# and review the diff.

GOLDEN_DIR = Path(__file__).parent / "data" / "dashboard"


def _all_sections():
    from repro.scenarios import list_scenarios

    replication, comparison = _replications()
    return dict(
        metrics=_engine_metrics(),
        cluster=_chaos_cluster(),
        profile=_profile(),
        replication=replication,
        comparison=comparison,
        scenarios=list_scenarios(),
        optimization=_refined_optimization(),
        telemetry=_chaos_cluster().telemetry,
    )


def _golden_cases():
    """Golden file stem -> zero-argument renderer."""
    import repro.dashboard.html as dash
    from repro.scenarios import list_scenarios

    return {
        "metrics-engine": lambda: dash.metrics_section_html(_engine_metrics()),
        "metrics-empty": lambda: dash.metrics_section_html(_empty_metrics()),
        "cluster-chaos": lambda: dash.cluster_section_html(_chaos_cluster()),
        "cluster-tiny": lambda: dash.cluster_section_html(_tiny_cluster()),
        "profile": lambda: dash.profile_section_html(_profile()),
        "profile-empty": lambda: dash.profile_section_html(_empty_profile()),
        "replication": lambda: dash.replication_section_html(_replications()[0]),
        "replication-nan": lambda: dash.replication_section_html(
            _nan_replication()
        ),
        "comparison": lambda: dash.comparison_section_html(_replications()[1]),
        "comparison-single-seed": lambda: dash.comparison_section_html(
            _single_seed_comparison()
        ),
        "scenarios-tenants": lambda: dash.scenarios_section_html(
            list_scenarios(), load=_tenant_load()
        ),
        "scenarios-empty": lambda: dash.scenarios_section_html([]),
        "telemetry-alerts": lambda: dash.telemetry_section_html(
            _chaos_cluster().telemetry
        ),
        "telemetry-empty": lambda: dash.telemetry_section_html(_empty_telemetry()),
        "optimize-refined": lambda: dash.optimize_section_html(
            _refined_optimization()
        ),
        "optimize-infeasible": lambda: dash.optimize_section_html(
            _empty_optimization()
        ),
        "page-plain": lambda: dash.dashboard_html(list(_results())),
        "page-all-sections": lambda: dash.dashboard_html(
            list(_results()), **_all_sections()
        ),
    }


class TestGoldenHtml:
    @pytest.mark.parametrize("name", sorted(_golden_cases()))
    def test_matches_committed_html(self, name):
        expected = (GOLDEN_DIR / f"{name}.html").read_text(encoding="utf-8")
        assert _golden_cases()[name]() == expected

    def test_write_dashboard_matches_committed_html(self, tmp_path):
        path = write_dashboard(
            list(_results()), tmp_path / "dash.html", **_all_sections()
        )
        expected = GOLDEN_DIR / "page-all-sections.html"
        assert path.read_bytes() == expected.read_bytes()


if __name__ == "__main__":
    GOLDEN_DIR.mkdir(parents=True, exist_ok=True)
    for stem, render in _golden_cases().items():
        (GOLDEN_DIR / f"{stem}.html").write_text(render(), encoding="utf-8")
        print(f"wrote {GOLDEN_DIR / stem}.html")
