"""The registry of committed goldens: every file under ``tests/data/``
and the zero-argument renderer that produces its exact bytes.

``tests/test_goldens.py`` compares each file with its render.  The files
pin what nothing else pins at full precision:

* ``metrics/`` — ``MetricsSnapshot.to_json_dict()`` of the CI ``chaos``
  job's ``cluster`` command and of a traced engine run: every gauge's
  last/min/max/time-weighted mean, counters and histograms (the
  dashboard renders them at ``.4g``, the e2e digests leave them out);
* ``observers/`` — Chrome traces and telemetry of CLI runs: the CI
  ``chaos`` trace, the CI ``telemetry`` export, a preempting ``trace``,
  a contiguous-KV (Gaudi2) ``trace`` whose pool binds, and the CI
  ``profile`` trace with its ``profile`` counter tracks;
* ``profile/`` — ``ProfileReport.to_json_dict()`` of the CI ``profile``
  command, of a profiled two-replica fleet, and of the CI straggler
  ``cluster`` whose fault schedule slows replica1 2.5x from 1.217 s for
  0.6 s (one slowdown, no crash);
* ``dashboard/`` — every dashboard section builder and the full page,
  rendered from small seeded fixtures;
* ``golden_chat_sharegpt_s4_seed42.json`` — a scenario trace.

CI's ``cmp`` steps compare the CLI's files with the same goldens.
Request ids in traces are labels each run assigns (trace position, then
the cluster's proxies), so a CLI run here writes the bytes a fresh
process writes.  Renders that come from one CLI invocation share one
cached run.

After an intended change, regenerate and review with
    PYTHONPATH=src python -m tests.goldens render [NAME...]
    PYTHONPATH=src python -m tests.goldens explain [NAME...]
where NAME is a path under ``tests/data/`` (default: all).  ``explain``
re-renders and reports, per file, the moved JSON fields (count, largest
ulp and relative move, first paths) or the differing HTML lines; it
exits 1 on any difference.  A declared refresh pastes that report into
CHANGES.md.
"""

from __future__ import annotations

import contextlib
import difflib
import functools
import io
import json
import sys
import tempfile
from collections.abc import Callable
from pathlib import Path

from repro import dashboard as dash
from repro.analysis.optimize import SearchSpace, optimize
from repro.analysis.optimize.evaluate import ScreeningStats
from repro.analysis.optimize.report import FRONTIER_NAMES, OptimizationReport
from repro.bench import BenchmarkRunner
from repro.bench.report import run_all
from repro.cli import main as cli_main
from repro.cluster import ClusterSimulator, get_router
from repro.control import ControlPlane, FaultSchedule, get_autoscaler
from repro.core.jsonio import dumps
from repro.experiments import (
    ExperimentSpec,
    WorkloadSpec,
    compare_replications,
    run_replication,
)
from repro.experiments.diff import json_differences
from repro.experiments.runner import SeedResult, reduce_seed_results
from repro.frameworks.base import get_framework
from repro.hardware.zoo import get_hardware
from repro.models.zoo import get_model
from repro.obs import EventTracer, StepProfiler
from repro.obs.metrics import MetricsSnapshot
from repro.obs.telemetry import TelemetryHub
from repro.perf.phases import Deployment
from repro.runtime.engine import ServingEngine
from repro.runtime.loadgen import ServiceLevelObjective
from repro.runtime.workload import fixed_batch_trace, open_loop_trace
from repro.scenarios import get_scenario, list_scenarios, trace_json_dicts

DATA_DIR = Path(__file__).parent / "data"

#: Moved fields or differing line numbers that ``explain`` shows per file.
_SHOWN = 3


# ----------------------------------------------------------------------
# CLI runs


def _chaos_faults(num_crashes: int) -> FaultSchedule:
    """The CI fault schedule: one slowdown and ``num_crashes`` crashes."""
    return FaultSchedule.generate(
        replicas=["replica0", "replica1"], horizon_s=6.0, seed=11,
        num_crashes=num_crashes, num_slowdowns=1,
    )


def _cli(
    argv: list[str], *outputs: str, faults: FaultSchedule | None = None
) -> dict[str, str]:
    """Run the CLI once with each output flag (and ``--faults``, when
    given) pointed at a scratch file; return each output flag's file
    text."""
    with tempfile.TemporaryDirectory() as tmp, contextlib.redirect_stdout(
        io.StringIO()
    ):
        paths = {flag: Path(tmp) / f"{i}.json" for i, flag in enumerate(outputs)}
        if faults is not None:
            spec = Path(tmp) / "faults.json"
            spec.write_text(json.dumps(faults.to_json_dict(), indent=1))
            argv = [*argv, "--faults", str(spec)]
        for flag, path in paths.items():
            argv = [*argv, flag, str(path)]
        assert cli_main(argv) == 0
        return {flag: path.read_text(encoding="utf-8") for flag, path in paths.items()}


#: The CI ``chaos``, ``telemetry`` and straggler ``cluster`` command.
_CLUSTER = [
    "cluster",
    "--model", "Mistral-7B", "--hardware", "A100", "--framework", "vLLM",
    "--replicas", "2", "--rate", "8", "--num-requests", "48", "--seed", "7",
    "--max-concurrency", "8",
]


@functools.cache
def chaos_cli() -> dict[str, str]:
    """The CI ``chaos`` job's command: crash + straggler, queue-depth
    autoscaling."""
    return _cli(
        [*_CLUSTER, "--autoscale", "queue-depth", "--autoscale-max", "4"],
        "--metrics-output", "--trace-output",
        faults=_chaos_faults(1),
    )


@functools.cache
def _profile_cli() -> dict[str, str]:
    return _cli(
        [
            "profile",
            "--model", "LLaMA-3-8B", "--hardware", "MI250", "--framework", "vLLM",
            "--batch-size", "8", "--rate", "6", "--num-requests", "24",
            "--seed", "3",
        ],
        "--output", "--trace-output",
    )


def _telemetry_cli() -> str:
    return _cli(
        [*_CLUSTER, "--autoscale", "burn-rate", "--autoscale-max", "4"],
        "--telemetry-output",
        faults=_chaos_faults(1),
    )["--telemetry-output"]


def _straggler_cli() -> str:
    flag = "--profile-output"
    return _cli(_CLUSTER, flag, faults=_chaos_faults(0))[flag]


def _trace_cli(model: str, hardware: str, *extra: str) -> str:
    return _cli(
        [
            "trace",
            "--model", model, "--hardware", hardware, "--framework", "vLLM",
            *extra, "--batch-size", "64", "--input-tokens", "2048",
            "--output-tokens", "512", "--rate", "8", "--num-requests", "64",
            "--seed", "1",
        ],
        "--output",
    )["--output"]


# ----------------------------------------------------------------------
# Library runs (the dashboard tests use these fixtures too)


def _tiny_deployment() -> Deployment:
    return Deployment(
        get_model("LLaMA-3-8B"), get_hardware("A100"), get_framework("vLLM")
    )


def engine_traced_metrics() -> str:
    engine = ServingEngine(
        _tiny_deployment(), max_concurrency=8, tracer=EventTracer()
    )
    result = engine.run(open_loop_trace(24, 6.0, 256, 96, seed=3))
    return dumps(result.metrics.to_json_dict())


def _cluster_profile() -> str:
    simulator = ClusterSimulator(
        _tiny_deployment(), 2, max_concurrency=8, profiled=True
    )
    result = simulator.run(open_loop_trace(32, 8.0, 768, 128, seed=13))
    return dumps(result.profile.to_json_dict())


def _scenario_trace() -> str:
    scenario = get_scenario("chat-sharegpt").with_sessions(4)
    return dumps(trace_json_dicts(scenario.build(seed=42)))


def tiny_cluster():
    sim = ClusterSimulator(_tiny_deployment(), 1, max_concurrency=2)
    return sim.run(fixed_batch_trace(1, 32, 8))


def empty_profile():
    return StepProfiler(_tiny_deployment()).report(0.0, [])


def nan_replication():
    spec = ExperimentSpec(
        name="degenerate", model="LLaMA-3-8B", hardware="A100",
        framework="vLLM", workload=WorkloadSpec(num_requests=1), seeds=(0,),
    )
    seed_results = (
        SeedResult(seed=0, metrics={"ttft_p50_s": float("nan")}),
    )
    return reduce_seed_results(spec, seed_results)


def single_seed_comparison():
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


def empty_telemetry():
    return TelemetryHub().snapshot()  # no samples, no completions, no alerts


def empty_optimization():
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
def results():
    return tuple(run_all(BenchmarkRunner(), ids=["tab1", "fig17"]))


@functools.cache
def _engine_metrics():
    engine = ServingEngine(
        _tiny_deployment(), max_concurrency=4, tracer=EventTracer()
    )
    return engine.run(fixed_batch_trace(4, 128, 32)).metrics


@functools.cache
def _chaos_cluster():
    """Crash + straggler faults, burn-rate autoscaling, telemetry alerts."""
    dep = Deployment(
        get_model("Mistral-7B"), get_hardware("A100"), get_framework("vLLM")
    )
    slo = ServiceLevelObjective()
    control = ControlPlane(
        faults=_chaos_faults(1),
        autoscaler=get_autoscaler("burn-rate", slo=slo, max_replicas=4),
    )
    sim = ClusterSimulator(
        dep, 2, max_concurrency=8, control=control,
        telemetry=TelemetryHub(slo=slo),
    )
    return sim.run(open_loop_trace(48, 8.0, 512, 256, seed=7))


@functools.cache
def profile():
    engine = ServingEngine(_tiny_deployment(), max_concurrency=4, profile=True)
    return engine.run(fixed_batch_trace(4, 128, 32)).profile


@functools.cache
def replications():
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
def tenant_load():
    """Per-tenant SLO lanes from a short multi-tenant scenario run, plus
    an empty ``ghost`` lane whose NaN latencies render as dashes."""
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
    space = SearchSpace(
        models=("llama-2-7b",), hardware=("A100", "H100"),
        frameworks=("vLLM",), batch_sizes=(1, 8),
    )
    return optimize(space, refine_top=1, seed=0)


def all_sections() -> dict[str, object]:
    """Every optional section of the dashboard page."""
    replication, comparison = replications()
    return dict(
        metrics=_engine_metrics(),
        cluster=_chaos_cluster(),
        profile=profile(),
        replication=replication,
        comparison=comparison,
        scenarios=list_scenarios(),
        optimization=_refined_optimization(),
        telemetry=_chaos_cluster().telemetry,
    )


# ----------------------------------------------------------------------
# The registry

GOLDENS: dict[str, Callable[[], str]] = {
    "golden_chat_sharegpt_s4_seed42.json": _scenario_trace,
    "metrics/cluster-chaos.json": lambda: chaos_cli()["--metrics-output"],
    "metrics/engine-traced.json": engine_traced_metrics,
    "observers/chaos-trace.json": lambda: chaos_cli()["--trace-output"],
    "observers/profile-trace.json": lambda: _profile_cli()["--trace-output"],
    "observers/telemetry.json": _telemetry_cli,
    "observers/trace-contiguous.json": lambda: _trace_cli("LLaMA-2-7B", "Gaudi2"),
    "observers/trace-preempt.json": lambda: _trace_cli(
        "LLaMA-2-70B", "A100", "--optimistic"
    ),
    "profile/cli-profile.json": lambda: _profile_cli()["--output"],
    "profile/cluster-2r.json": _cluster_profile,
    "profile/straggler-2r.json": _straggler_cli,
    "dashboard/cluster-chaos.html": lambda: dash.cluster_section_html(
        _chaos_cluster()
    ),
    "dashboard/cluster-tiny.html": lambda: dash.cluster_section_html(
        tiny_cluster()
    ),
    "dashboard/comparison.html": lambda: dash.comparison_section_html(
        replications()[1]
    ),
    "dashboard/comparison-single-seed.html": lambda: dash.comparison_section_html(
        single_seed_comparison()
    ),
    "dashboard/metrics-empty.html": lambda: dash.metrics_section_html(
        MetricsSnapshot()
    ),
    "dashboard/metrics-engine.html": lambda: dash.metrics_section_html(
        _engine_metrics()
    ),
    "dashboard/optimize-infeasible.html": lambda: dash.optimize_section_html(
        empty_optimization()
    ),
    "dashboard/optimize-refined.html": lambda: dash.optimize_section_html(
        _refined_optimization()
    ),
    "dashboard/page-all-sections.html": lambda: dash.dashboard_html(
        list(results()), **all_sections()
    ),
    "dashboard/page-plain.html": lambda: dash.dashboard_html(list(results())),
    "dashboard/profile.html": lambda: dash.profile_section_html(profile()),
    "dashboard/profile-empty.html": lambda: dash.profile_section_html(
        empty_profile()
    ),
    "dashboard/replication.html": lambda: dash.replication_section_html(
        replications()[0]
    ),
    "dashboard/replication-nan.html": lambda: dash.replication_section_html(
        nan_replication()
    ),
    "dashboard/scenarios-empty.html": lambda: dash.scenarios_section_html([]),
    "dashboard/scenarios-tenants.html": lambda: dash.scenarios_section_html(
        list_scenarios(), load=tenant_load()
    ),
    "dashboard/telemetry-alerts.html": lambda: dash.telemetry_section_html(
        _chaos_cluster().telemetry
    ),
    "dashboard/telemetry-empty.html": lambda: dash.telemetry_section_html(
        empty_telemetry()
    ),
}


# ----------------------------------------------------------------------
# explain


def describe(name: str, committed: str | None, rendered: str) -> list[str]:
    """How golden ``name`` moved from its ``committed`` text (None: no
    file) to ``rendered``, as report lines; empty when they are equal."""
    if committed == rendered:
        return []
    if committed is None:
        return [f"{name}: not committed"]
    if name.endswith(".json"):
        moved = list(json_differences(json.loads(committed), json.loads(rendered)))
        if not moved:
            return [f"{name}: text differs, fields moved: 0"]
        head = f"{name}: fields moved: {len(moved)}"
        ulps = [d.ulp for d in moved if d.ulp is not None]
        rels = [d.rel for d in moved if d.rel is not None]
        if ulps:
            head += f", largest ulp: {max(ulps)}"
        if rels:
            head += f", largest relative: {max(rels):.3g}"
        return [head, *(f"  {d}" for d in moved[:_SHOWN])]
    matcher = difflib.SequenceMatcher(
        None, committed.splitlines(), rendered.splitlines(), autojunk=False
    )
    blocks = [op for op in matcher.get_opcodes() if op[0] != "equal"]
    count = sum(max(i2 - i1, j2 - j1) for _, i1, i2, j1, j2 in blocks)
    first = ", ".join(str(i1 + 1) for _, i1, *_ in blocks[:_SHOWN])
    return [f"{name}: lines differing: {count}, first at line {first}"]


def explain(names: list[str], data_dir: Path = DATA_DIR) -> bool:
    """Re-render ``names``, print how each moved from its committed file
    under ``data_dir``, and return True when none moved."""
    moved = 0
    for name in names:
        path = data_dir / name
        committed = path.read_text(encoding="utf-8") if path.exists() else None
        lines = describe(name, committed, GOLDENS[name]())
        moved += bool(lines)
        print("\n".join(lines) or f"{name}: unchanged")
    print(f"goldens moved: {moved} of {len(names)}")
    return moved == 0


def main(argv: list[str]) -> int:
    verb, *names = argv or [""]
    unknown = [name for name in names if name not in GOLDENS]
    if verb not in ("render", "explain") or unknown:
        print("usage: python -m tests.goldens render|explain [NAME...]", file=sys.stderr)
        for name in unknown:
            print(f"unknown golden: {name}", file=sys.stderr)
        return 2
    names = names or sorted(GOLDENS)
    if verb == "explain":
        return 0 if explain(names) else 1
    for name in names:
        path = DATA_DIR / name
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_bytes(GOLDENS[name]().encode("utf-8"))
        print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
