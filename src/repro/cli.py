"""Command-line interface: ``llm-inference-bench`` / ``python -m repro``.

Subcommands
-----------
list
    Registered models, hardware platforms, frameworks and experiments.
run EXPERIMENT [...]
    Run reproductions and print their tables plus headline comparisons.
point --model M --hardware H --framework F [--batch-size N] [...]
    One benchmark point with full metric output.
report [--output EXPERIMENTS.md]
    Run everything and regenerate the paper-vs-measured markdown.
dashboard [--output dashboard.html]
    Build the self-contained HTML dashboard.
trace --model M --hardware H --framework F [--batch-size N] [--rate R]
    Run one workload on the event engine with tracing enabled; write
    Chrome ``trace_event`` JSON (Perfetto-loadable) and print the
    flamegraph-style summary with TTFT/ITL percentiles.
profile --model M --hardware H --framework F [--batch-size N] [--rate R]
    Run one workload with the cost-attribution profiler: print the
    per-phase roofline breakdown with MFU/MBU/energy counters, write the
    deterministic profile JSON, and optionally a Perfetto trace whose
    counter tracks carry mfu/mbu/tokens_per_s/watts/joules_per_token
    (``--trace-output``).
cluster --model M --hardware H --framework F [--replicas N] [--router R]
    Simulate a multi-replica serving cluster behind a routing policy
    (optionally prefill/decode-disaggregated), or size the fleet for an
    SLO goodput target with ``--plan-target``.  ``--faults spec.json``
    injects a fault schedule and ``--autoscale POLICY`` scales the fleet
    mid-run; ``--result-output`` writes the deterministic result JSON
    the CI chaos job diffs across repeat runs.
optimize --models M,.. --hardware H,.. --frameworks F,.. [--objective O]
    Search the deployment cross product (models x hardware x frameworks
    x quantization x TP x batch) for the minimum cost-per-token or
    energy-per-token configuration meeting the SLO at a target request
    rate, and emit exact Pareto frontiers (cost-vs-SLO,
    energy-vs-latency, throughput-vs-perplexity).  ``--refine-top K``
    re-evaluates the best K deployments through the discrete-event
    capacity planner; ``--output`` writes the byte-deterministic
    ``OptimizationReport`` JSON the CI optimize job diffs.
experiment run|replay|compare|diff
    Cross-run statistics (``repro.experiments``): ``run`` executes a
    multi-seed replication from a spec JSON and writes a self-describing
    bundle; ``replay`` re-executes a bundle's spec+seeds and verifies the
    per-seed results byte-for-byte; ``compare`` tests two bundles
    metric-by-metric for significance (Welch / Mann-Whitney /
    paired-by-seed); ``diff`` compares two cost profiles (or profiled
    bundles, with significance) component-by-component.
"""

from __future__ import annotations

import argparse
import sys
from collections.abc import Sequence

from repro.bench import (
    EXPERIMENTS,
    BenchmarkRunner,
    experiments_markdown,
    run_all,
    run_experiment,
)
from repro.core import UnknownNameError
from repro.core.jsonio import write_json
from repro.core.request import GenerationConfig
from repro.frameworks.base import list_frameworks
from repro.hardware.zoo import list_hardware
from repro.models.zoo import list_models

__all__ = ["main", "build_parser"]


def _positive_int(text: str) -> int:
    """argparse ``type``: an integer of at least 1 (fleet sizes, batch caps)."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


def _add_deployment_args(parser: argparse.ArgumentParser, **defaults: str) -> None:
    """``--model/--hardware/--framework``, required unless given a default."""
    for name in ("model", "hardware", "framework"):
        parser.add_argument(
            f"--{name}", required=name not in defaults, default=defaults.get(name)
        )


def _add_batch_args(parser: argparse.ArgumentParser, batch_size: int) -> None:
    """``--batch-size`` plus the fixed-length ``--input/--output-tokens``."""
    parser.add_argument("--batch-size", type=int, default=batch_size)
    parser.add_argument("--input-tokens", type=int, default=1024)
    parser.add_argument("--output-tokens", type=int, default=1024)


def _add_engine_workload_args(parser: argparse.ArgumentParser) -> None:
    """The deployment and workload flags ``trace`` and ``profile`` share."""
    _add_deployment_args(parser)
    _add_batch_args(parser, batch_size=8)
    parser.add_argument(
        "--rate",
        type=float,
        default=None,
        help="Poisson arrival rate (req/s); omit for the paper's fixed batch",
    )
    parser.add_argument(
        "--num-requests",
        type=int,
        default=None,
        help="request count for --rate workloads (default 4x batch size)",
    )
    parser.add_argument("--seed", type=int, default=0,
                        help="RNG seed for --rate arrival draws")
    parser.add_argument("--optimistic", action="store_true",
                        help="vLLM optimistic admission (preempt+recompute)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="llm-inference-bench",
        description="LLM-Inference-Bench reproduction (simulated accelerators)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser(
        "list", help="list models, hardware, frameworks, experiments"
    ).set_defaults(func=_cmd_list)

    run_p = sub.add_parser("run", help="run one or more experiments")
    run_p.set_defaults(func=_cmd_run)
    run_p.add_argument("experiments", nargs="+", metavar="EXPERIMENT")
    run_p.add_argument(
        "--engine",
        action="store_true",
        help="use the discrete-event engine instead of the closed-form estimator",
    )
    run_p.add_argument(
        "--table", action="store_true", help="print the full sweep table too"
    )
    run_p.add_argument(
        "--metrics-output", default=None, metavar="PATH",
        help="write the experiments' tables and headline metrics as JSON",
    )
    run_p.add_argument(
        "--profile-output", default=None, metavar="PATH",
        help="write per-row static cost attribution (roofline shares) as JSON",
    )
    run_p.add_argument(
        "--telemetry-output", default=None, metavar="PATH",
        help="stream telemetry per engine point; write the snapshots as "
        "JSON (requires --engine)",
    )

    point_p = sub.add_parser("point", help="run a single benchmark point")
    point_p.set_defaults(func=_cmd_point)
    _add_deployment_args(point_p)
    _add_batch_args(point_p, batch_size=1)
    point_p.add_argument("--engine", action="store_true")

    analyze_p = sub.add_parser(
        "analyze", help="bottleneck attribution for one configuration"
    )
    analyze_p.set_defaults(func=_cmd_analyze)
    _add_deployment_args(analyze_p)
    _add_batch_args(analyze_p, batch_size=16)

    report_p = sub.add_parser("report", help="regenerate EXPERIMENTS.md content")
    report_p.set_defaults(func=_cmd_report)
    report_p.add_argument("--output", default=None, help="write to file")

    dash_p = sub.add_parser("dashboard", help="build the HTML dashboard")
    dash_p.set_defaults(func=_cmd_dashboard)
    dash_p.add_argument("--output", default="dashboard.html")

    export_p = sub.add_parser(
        "export", help="write per-experiment CSVs + index.json"
    )
    export_p.set_defaults(func=_cmd_export)
    export_p.add_argument("--outdir", default="results")
    export_p.add_argument("--ids", nargs="*", default=None)

    validate_p = sub.add_parser(
        "validate", help="cross-check estimator vs event engine"
    )
    validate_p.set_defaults(func=_cmd_validate)
    validate_p.add_argument("--points", type=int, default=20)
    validate_p.add_argument("--seed", type=int, default=0)

    trace_p = sub.add_parser(
        "trace", help="run a workload with tracing; write Chrome trace JSON"
    )
    trace_p.set_defaults(func=_cmd_trace)
    _add_engine_workload_args(trace_p)
    trace_p.add_argument("--output", default="trace.json",
                         help="Chrome trace_event JSON path (Perfetto-loadable)")
    trace_p.add_argument("--summary-output", default=None,
                         help="also write the text summary to this file")
    trace_p.add_argument("--timelines", type=int, default=8, metavar="N",
                         help="show the N slowest-TTFT request timelines")

    profile_p = sub.add_parser(
        "profile",
        help="run a workload with cost-attribution profiling; write profile JSON",
    )
    profile_p.set_defaults(func=_cmd_profile)
    _add_engine_workload_args(profile_p)
    profile_p.add_argument("--output", default="profile.json",
                           help="deterministic profile JSON path")
    profile_p.add_argument(
        "--trace-output", default=None, metavar="PATH",
        help="also write a Perfetto trace with mfu/mbu/power counter tracks",
    )
    profile_p.add_argument("--requests-shown", type=int, default=8, metavar="N",
                           help="show the N most expensive request profiles")

    from repro.cluster import list_routers

    cluster_p = sub.add_parser(
        "cluster", help="simulate a multi-replica serving cluster"
    )
    cluster_p.set_defaults(func=_cmd_cluster)
    _add_deployment_args(cluster_p)
    cluster_p.add_argument("--replicas", type=_positive_int, default=4)
    cluster_p.add_argument("--router", default="least-outstanding",
                           choices=list_routers())
    cluster_p.add_argument("--rate", type=float, default=8.0,
                           help="offered Poisson arrival rate (req/s)")
    cluster_p.add_argument("--num-requests", type=int, default=64)
    cluster_p.add_argument("--mean-input-tokens", type=int, default=512)
    cluster_p.add_argument("--mean-output-tokens", type=int, default=256)
    cluster_p.add_argument("--max-concurrency", type=_positive_int, default=32)
    cluster_p.add_argument("--seed", type=int, default=0,
                           help="RNG seed for arrivals, lengths and routing")
    cluster_p.add_argument(
        "--prefill-replicas", type=int, default=0,
        help="dedicated prefill replicas (> 0 enables disaggregation)",
    )
    cluster_p.add_argument(
        "--shared-prefixes", type=int, default=0,
        help="use a shared-prefix workload with this many distinct prefixes",
    )
    cluster_p.add_argument("--prefix-tokens", type=int, default=1024,
                           help="prefix length for --shared-prefixes")
    cluster_p.add_argument("--unique-tokens", type=int, default=128,
                           help="per-request suffix for --shared-prefixes")
    cluster_p.add_argument(
        "--plan-target", type=float, default=None, metavar="RPS",
        help="size the fleet for this SLO goodput target instead",
    )
    cluster_p.add_argument("--max-replicas", type=int, default=16,
                           help="replica cap for --plan-target")
    cluster_p.add_argument(
        "--trace-output", default=None, metavar="PATH",
        help="trace the run; write per-replica Chrome trace JSON here",
    )

    from repro.control import list_autoscalers

    cluster_p.add_argument(
        "--faults", default=None, metavar="SPEC.JSON",
        help="inject the fault schedule from this JSON spec",
    )
    cluster_p.add_argument(
        "--autoscale", default=None, choices=list_autoscalers(),
        help="enable this autoscaling policy (scales --replicas up/down)",
    )
    cluster_p.add_argument(
        "--autoscale-max", type=int, default=16, metavar="N",
        help="replica ceiling for --autoscale",
    )
    cluster_p.add_argument(
        "--result-output", default=None, metavar="PATH",
        help="write the deterministic ClusterResult JSON here",
    )
    cluster_p.add_argument(
        "--metrics-output", default=None, metavar="PATH",
        help="write the fleet MetricsSnapshot as JSON",
    )
    cluster_p.add_argument(
        "--profile-output", default=None, metavar="PATH",
        help="profile the run; write the merged fleet ProfileReport JSON",
    )
    cluster_p.add_argument(
        "--telemetry-output", default=None, metavar="PATH",
        help="attach the streaming telemetry bus; write its series and "
        "burn-rate alert log as deterministic JSON",
    )

    scen_p = sub.add_parser(
        "scenario",
        help="production traffic scenarios: list, describe, run",
    )
    scen_p.set_defaults(func=_cmd_scenario)
    scen_sub = scen_p.add_subparsers(dest="verb", required=True)

    scen_sub.add_parser("list", help="list the built-in scenario catalog")

    scen_describe = scen_sub.add_parser(
        "describe", help="show one scenario's composition and a trace preview"
    )
    scen_describe.add_argument("name", help="scenario name (see `scenario list`)")
    scen_describe.add_argument("--seed", type=int, default=0,
                               help="seed for the trace preview")
    scen_describe.add_argument(
        "--trace-output", default=None, metavar="PATH",
        help="write the built request trace as deterministic JSON",
    )

    scen_run = scen_sub.add_parser(
        "run", help="run a scenario trace through a serving cluster"
    )
    scen_run.add_argument("name", help="scenario name (see `scenario list`)")
    _add_deployment_args(
        scen_run, model="LLaMA-3-8B", hardware="A100", framework="vLLM"
    )
    scen_run.add_argument("--replicas", type=_positive_int, default=4)
    scen_run.add_argument("--router", default="session-affinity",
                          choices=list_routers())
    scen_run.add_argument("--seed", type=int, default=0,
                          help="RNG seed for the trace and routing")
    scen_run.add_argument("--sessions", type=int, default=None, metavar="N",
                          help="override the scenario's session count")
    scen_run.add_argument("--max-concurrency", type=_positive_int, default=32)
    scen_run.add_argument("--prefix-cache-slots", type=int, default=8,
                          help="per-replica prefix/session KV LRU slots")
    scen_run.add_argument(
        "--result-output", default=None, metavar="PATH",
        help="write the deterministic ClusterResult JSON here",
    )
    scen_run.add_argument(
        "--telemetry-output", default=None, metavar="PATH",
        help="attach the streaming telemetry bus (per-tenant SLO lanes); "
        "write its series and alert log as deterministic JSON",
    )

    exp_p = sub.add_parser(
        "experiment",
        help="replicated experiments: run, replay, compare, profile-diff",
    )
    exp_p.set_defaults(func=_cmd_experiment)
    exp_sub = exp_p.add_subparsers(dest="verb", required=True)

    exp_run = exp_sub.add_parser(
        "run", help="run a multi-seed replication from a spec; write a bundle"
    )
    exp_run.add_argument("--spec", required=True, metavar="SPEC.JSON",
                         help="ExperimentSpec JSON (see docs/experiments.md)")
    exp_run.add_argument("--output", default="bundle.json", metavar="PATH",
                         help="experiment bundle JSON path")
    exp_run.add_argument("--confidence", type=float, default=0.95,
                         help="confidence level for metric intervals")
    exp_run.add_argument("--method", default="t", choices=("t", "bootstrap"),
                         help="confidence-interval method")

    exp_replay = exp_sub.add_parser(
        "replay",
        help="re-execute a bundle's spec+seeds; verify results byte-for-byte",
    )
    exp_replay.add_argument("--bundle", required=True, metavar="BUNDLE.JSON")
    exp_replay.add_argument("--output", default=None, metavar="PATH",
                            help="write the replayed bundle here")

    exp_compare = exp_sub.add_parser(
        "compare", help="A-vs-B significance tests over two bundles"
    )
    exp_compare.add_argument("--a", required=True, metavar="BUNDLE.JSON",
                             dest="bundle_a")
    exp_compare.add_argument("--b", required=True, metavar="BUNDLE.JSON",
                             dest="bundle_b")
    exp_compare.add_argument("--alpha", type=float, default=0.05,
                             help="significance level")
    exp_compare.add_argument(
        "--test", default="auto",
        choices=("auto", "welch", "mann-whitney", "paired"),
        help="auto pairs by seed when both bundles share workload+seeds",
    )
    exp_compare.add_argument("--output", default=None, metavar="PATH",
                             help="write the comparison report JSON here")

    exp_diff = exp_sub.add_parser(
        "diff",
        help="component-by-component diff of two profiles or profiled bundles",
    )
    exp_diff.add_argument("--a", required=True, metavar="PATH", dest="profile_a",
                          help="profile JSON (from `profile`) or bundle JSON")
    exp_diff.add_argument("--b", required=True, metavar="PATH", dest="profile_b")
    exp_diff.add_argument("--alpha", type=float, default=0.05,
                          help="significance level (bundle inputs only)")
    exp_diff.add_argument("--output", default=None, metavar="PATH",
                          help="write the diff JSON here")

    opt_p = sub.add_parser(
        "optimize",
        help="Pareto search over the deployment space for cost/energy",
    )
    opt_p.set_defaults(func=_cmd_optimize)
    opt_p.add_argument("--space", default=None, metavar="PATH",
                       help="SearchSpace JSON (overrides the axis flags)")
    opt_p.add_argument("--models", default="llama-2-7b",
                       help="comma-separated model names")
    opt_p.add_argument("--hardware", default="A100,H100",
                       help="comma-separated hardware names")
    opt_p.add_argument("--frameworks", default="vLLM",
                       help="comma-separated framework names")
    opt_p.add_argument("--quant", default="fp16",
                       help="comma-separated quant schemes (fp16,fp8,int8)")
    opt_p.add_argument("--tp", default="1",
                       help="comma-separated tensor-parallel degrees")
    opt_p.add_argument("--batch-sizes", default="1,8,16,32",
                       help="comma-separated batch sizes")
    opt_p.add_argument("--routers", default="least-outstanding",
                       help="comma-separated routers for the refinement stage")
    opt_p.add_argument("--input-tokens", type=int, default=512)
    opt_p.add_argument("--output-tokens", type=int, default=256)
    opt_p.add_argument("--target-rate", type=float, default=4.0,
                       help="offered request rate to provision for (req/s)")
    opt_p.add_argument("--max-replicas", type=int, default=16)
    opt_p.add_argument("--objective", default="cost_per_token",
                       choices=("cost_per_token", "energy_per_token",
                                "joules_per_token"))
    opt_p.add_argument("--refine-top", type=int, default=0, metavar="K",
                       help="discrete-event refinement of the best K deployments")
    opt_p.add_argument("--seed", type=int, default=0,
                       help="seed for the refinement stage's planner probes")
    opt_p.add_argument("--output", default=None, metavar="PATH",
                       help="write the OptimizationReport JSON here")
    return parser


def _cmd_list(args: argparse.Namespace) -> int:
    print("Models:")
    for name in list_models():
        print(f"  {name}")
    print("Hardware:")
    for name in list_hardware():
        print(f"  {name}")
    print("Frameworks:")
    for name in list_frameworks():
        print(f"  {name}")
    print("Experiments:")
    for eid in sorted(EXPERIMENTS):
        print(f"  {eid}: {EXPERIMENTS[eid].title}")
    return 0


def _write_json(path: str, payload: object) -> None:
    """Write an export flag's canonical JSON artifact and announce it."""
    write_json(path, payload)
    print(f"wrote {path}")


_ROW_DEPLOYMENT_KEYS = (
    "model", "hardware", "framework", "devices",
    "batch_size", "input_tokens", "output_tokens",
)


def _static_row_profiles(
    runner: BenchmarkRunner, rows: list[dict[str, object]]
) -> list[dict[str, object]]:
    """Static roofline attribution for sweep rows that name a full point.

    Rows produced by :meth:`BenchmarkRunner.run_sweep` carry the complete
    deployment key set; headline tables that aggregate it away — and rows
    whose point cannot be rebuilt from the default plan (custom TP or
    quantization variants), OOM lanes, or single-output-token workloads —
    are skipped rather than mis-attributed.
    """
    from repro.analysis import analyze

    profiles: list[dict[str, object]] = []
    for row in rows:
        if any(key not in row for key in _ROW_DEPLOYMENT_KEYS) or row.get("oom"):
            continue
        try:
            dep = runner.deployment(
                str(row["model"]), str(row["hardware"]), str(row["framework"])
            )
            if dep.num_devices != row["devices"]:
                continue
            config = GenerationConfig(
                int(row["input_tokens"]),  # type: ignore[arg-type]
                int(row["output_tokens"]),  # type: ignore[arg-type]
                int(row["batch_size"]),  # type: ignore[arg-type]
            )
            report = analyze(dep, config)
        except ValueError:
            continue
        entry: dict[str, object] = {
            key: row[key] for key in _ROW_DEPLOYMENT_KEYS
        }
        for attribution in (report.prefill, report.decode):
            entry[attribution.phase] = {
                "compute": attribution.compute,
                "weight_bandwidth": attribution.weight_bandwidth,
                "kv_bandwidth": attribution.kv_bandwidth,
                "activation_bandwidth": attribution.activation_bandwidth,
                "communication": attribution.communication,
                "overhead": attribution.overhead,
                "dominant": str(attribution.dominant),
            }
        entry["end_to_end_bottleneck"] = str(report.end_to_end_bottleneck)
        entry["decode_share_of_e2e"] = report.decode_share_of_e2e
        profiles.append(entry)
    return profiles


def _cmd_run(args: argparse.Namespace) -> int:
    telemetry_factory = None
    if args.telemetry_output:
        if not args.engine:
            print("--telemetry-output requires --engine (the estimator has "
                  "no event stream to sample)")
            return 2
        from repro.obs.telemetry import TelemetryHub

        telemetry_factory = TelemetryHub
    runner = BenchmarkRunner(
        use_engine=args.engine, telemetry_factory=telemetry_factory
    )
    metrics_payload: dict[str, object] = {}
    profile_payload: dict[str, object] = {}
    for eid in args.experiments:
        result = run_experiment(eid, runner)
        print(result.render())
        if args.table:
            print(result.table.render())
        print()
        if args.metrics_output:
            metrics_payload[result.experiment_id] = {
                "title": result.title,
                "measured": dict(result.measured),
                "paper": dict(result.paper),
                "rows": result.table.to_dicts(),
            }
        if args.profile_output:
            profile_payload[result.experiment_id] = _static_row_profiles(
                runner, result.table.to_dicts()
            )
    if args.metrics_output:
        _write_json(args.metrics_output, metrics_payload)
    if args.profile_output:
        _write_json(args.profile_output, profile_payload)
    if args.telemetry_output:
        _write_json(args.telemetry_output, runner.telemetry_log)
    return 0


def _cmd_point(args: argparse.Namespace) -> int:
    runner = BenchmarkRunner(use_engine=args.engine)
    dep = runner.deployment(args.model, args.hardware, args.framework)
    config = GenerationConfig(args.input_tokens, args.output_tokens, args.batch_size)
    metrics = runner.run_point(dep, config)
    if metrics.oom:
        print("OOM: configuration does not fit in device memory")
        return 1
    print(f"model           {dep.model.name}")
    print(f"hardware        {dep.hardware.name} x{dep.num_devices}")
    print(f"framework       {dep.framework.name}")
    print(f"throughput      {metrics.throughput_tokens_per_s:,.1f} tokens/s")
    print(f"TTFT            {metrics.ttft_s * 1e3:,.1f} ms")
    print(f"ITL             {metrics.itl_s * 1e3:,.3f} ms")
    print(f"end-to-end      {metrics.end_to_end_latency_s:,.2f} s")
    if metrics.average_power_w is not None:
        print(f"average power   {metrics.average_power_w:,.0f} W")
        print(f"perf/watt       {metrics.perf_per_watt:,.2f} tokens/s/W")
    return 0


def _cmd_analyze(args: argparse.Namespace) -> int:
    from repro.analysis import analyze

    runner = BenchmarkRunner()
    dep = runner.deployment(args.model, args.hardware, args.framework)
    config = GenerationConfig(args.input_tokens, args.output_tokens, args.batch_size)
    try:
        report = analyze(dep, config)
    except ValueError as exc:
        print(f"cannot analyze: {exc}")
        return 1
    print(
        f"{dep.model.name} / {dep.hardware.name} x{dep.num_devices} / "
        f"{dep.framework.name} @ batch {config.batch_size}"
    )
    print(report.render())
    return 0


def _cmd_report(args: argparse.Namespace) -> int:
    results = run_all()
    markdown = experiments_markdown(results)
    if args.output:
        with open(args.output, "w", encoding="utf-8") as fh:
            fh.write(markdown)
        print(f"wrote {args.output}")
    else:
        print(markdown)
    return 0


def _cmd_dashboard(args: argparse.Namespace) -> int:
    from repro.dashboard import write_dashboard
    from repro.scenarios import list_scenarios

    results = run_all()
    path = write_dashboard(results, args.output, scenarios=list_scenarios())
    print(f"wrote {path}")
    return 0


def _cmd_export(args: argparse.Namespace) -> int:
    from repro.bench.export import export_bundle

    results = run_all(ids=args.ids)
    index = export_bundle(results, args.outdir)
    print(f"wrote {len(results)} CSVs + {index}")
    return 0


def _run_engine_workload(args: argparse.Namespace, tracer, profile: bool = False):
    """Shared body of ``trace`` and ``profile``: run the flagged workload
    on the event engine.

    Returns ``(deployment, workload, result, trace metadata)``, or
    ``None`` after printing the ``OOM:`` line.
    """
    from repro.runtime.engine import ServingEngine
    from repro.runtime.paged_kv import OutOfMemoryError
    from repro.runtime.workload import fixed_batch_trace, poisson_trace

    dep = BenchmarkRunner().deployment(args.model, args.hardware, args.framework)
    if args.rate is not None:
        num = args.num_requests or 4 * args.batch_size
        workload = poisson_trace(
            num, args.rate, args.input_tokens, args.output_tokens, seed=args.seed
        )
    else:
        workload = fixed_batch_trace(
            args.batch_size, args.input_tokens, args.output_tokens
        )
    try:
        result = ServingEngine(
            dep,
            max_concurrency=args.batch_size or len(workload),
            optimistic=args.optimistic,
            tracer=tracer,
            profile=profile,
        ).run(workload)
    except OutOfMemoryError as exc:
        print(f"OOM: {exc}")
        return None
    metadata = {
        "model": dep.model.name,
        "hardware": dep.hardware.name,
        "devices": dep.num_devices,
        "framework": dep.framework.name,
        "requests": len(workload),
        "makespan_s": result.total_time_s,
    }
    return dep, workload, result, metadata


def _cmd_trace(args: argparse.Namespace) -> int:
    from repro.obs import EventTracer, timeline_table, trace_summary, write_chrome_trace

    tracer = EventTracer()
    ran = _run_engine_workload(args, tracer)
    if ran is None:
        return 1
    dep, workload, result, metadata = ran
    path = write_chrome_trace(args.output, tracer.events, metadata=metadata)
    summary = trace_summary(tracer.events, result.metrics)
    header = (
        f"{dep.model.name} / {dep.hardware.name} x{dep.num_devices} / "
        f"{dep.framework.name} — {len(workload)} requests, "
        f"makespan {result.total_time_s:.2f} s"
    )
    body = header + "\n\n" + summary
    if args.timelines > 0:
        body += "\n\nslowest request timelines (by TTFT):\n"
        body += timeline_table(result.timelines(), limit=args.timelines)
    print(body)
    print(f"\nwrote {path} ({len(tracer.events)} events) — open in "
          "https://ui.perfetto.dev or chrome://tracing")
    if args.summary_output:
        with open(args.summary_output, "w", encoding="utf-8") as fh:
            fh.write(body + "\n")
        print(f"wrote {args.summary_output}")
    return 0


def _cmd_profile(args: argparse.Namespace) -> int:
    from repro.obs import EventTracer, write_chrome_trace

    tracer = EventTracer() if args.trace_output else None
    ran = _run_engine_workload(args, tracer, profile=True)
    if ran is None:
        return 1
    dep, workload, result, metadata = ran
    profile = result.profile
    assert profile is not None  # the engine ran with profile=True
    print(
        f"{dep.model.name} / {dep.hardware.name} x{dep.num_devices} / "
        f"{dep.framework.name} — {len(workload)} requests"
    )
    print()
    print(profile.render(max_requests=args.requests_shown))
    _write_json(args.output, profile.to_json_dict())
    if args.trace_output:
        path = write_chrome_trace(args.trace_output, tracer.events, metadata=metadata)
        print(f"wrote {path} ({len(tracer.events)} events) — counter tracks "
              "under the 'profile' lane in https://ui.perfetto.dev")
    return 0


def _simulate(
    args: argparse.Namespace, dep, workload, title: str, offered_rps: float,
    load_kwargs: dict[str, object], **simulator_kwargs,
):
    """Shared body of ``cluster`` and ``scenario run``: simulate the
    workload on the flagged fleet, print the header, fleet and load
    reports, and write ``--result-output``.  Returns the result, or
    ``None`` after printing the ``OOM:`` line."""
    from repro.cluster import ClusterSimulator, get_router
    from repro.runtime.paged_kv import OutOfMemoryError

    simulator = ClusterSimulator(
        dep,
        args.replicas,
        router=get_router(args.router, seed=args.seed),
        max_concurrency=args.max_concurrency,
        **simulator_kwargs,
    )
    try:
        result = simulator.run(workload)
    except OutOfMemoryError as exc:
        print(f"OOM: {exc}")
        return None
    print(
        f"{title}{dep.model.name} / {dep.hardware.name} x{dep.num_devices} / "
        f"{dep.framework.name}"
    )
    print(result.render())
    print(result.load_report(offered_rps, **load_kwargs).render())
    if args.result_output:
        _write_json(args.result_output, result.to_json_dict())
    return result


def _cmd_cluster(args: argparse.Namespace) -> int:
    from repro.cluster import ClusterCapacityPlanner, DisaggregationSpec, get_router
    from repro.obs.export import to_chrome_trace_multi
    from repro.runtime.loadgen import ServiceLevelObjective
    from repro.runtime.workload import open_loop_trace, shared_prefix_trace

    runner = BenchmarkRunner(use_engine=True)
    dep = runner.deployment(args.model, args.hardware, args.framework)
    slo = ServiceLevelObjective()

    if args.plan_target is not None:
        planner = ClusterCapacityPlanner(
            dep,
            slo=slo,
            router_factory=lambda: get_router(args.router, seed=args.seed),
            num_requests=args.num_requests,
            mean_input_tokens=args.mean_input_tokens,
            mean_output_tokens=args.mean_output_tokens,
            max_concurrency=args.max_concurrency,
            seed=args.seed,
        )
        plan = planner.plan(args.plan_target, max_replicas=args.max_replicas)
        print(plan.render())
        return 0 if plan.feasible else 1

    if args.shared_prefixes > 0:
        workload = shared_prefix_trace(
            args.num_requests,
            args.rate,
            num_prefixes=args.shared_prefixes,
            prefix_tokens=args.prefix_tokens,
            unique_tokens=args.unique_tokens,
            output_tokens=args.mean_output_tokens,
            seed=args.seed,
        )
    else:
        workload = open_loop_trace(
            args.num_requests,
            args.rate,
            args.mean_input_tokens,
            args.mean_output_tokens,
            seed=args.seed,
        )
    disagg = (
        DisaggregationSpec(num_prefill_replicas=args.prefill_replicas)
        if args.prefill_replicas > 0
        else None
    )
    control = None
    if args.faults or args.autoscale:
        from repro.control import ControlPlane, FaultSchedule, get_autoscaler

        faults = FaultSchedule.load(args.faults) if args.faults else None
        autoscaler = (
            get_autoscaler(
                args.autoscale, slo=slo, max_replicas=args.autoscale_max
            )
            if args.autoscale
            else None
        )
        control = ControlPlane(faults=faults, autoscaler=autoscaler)
    telemetry = None
    if args.telemetry_output:
        from repro.obs.telemetry import TelemetryHub

        telemetry = TelemetryHub(slo=slo)
    result = _simulate(
        args, dep, workload, title="", offered_rps=args.rate,
        load_kwargs={"slo": slo},
        disaggregation=disagg,
        control=control,
        traced=args.trace_output is not None,
        profiled=args.profile_output is not None,
        telemetry=telemetry,
    )
    if result is None:
        return 1
    if args.metrics_output:
        _write_json(args.metrics_output, result.metrics.to_json_dict())
    if args.profile_output:
        assert result.profile is not None  # profiled=True above
        print()
        print(result.profile.render())
        _write_json(args.profile_output, result.profile.to_json_dict())
    if args.telemetry_output:
        assert result.telemetry is not None  # telemetry hub attached above
        fired = sum(1 for a in result.telemetry.alerts if a.state == "firing")
        print(f"telemetry: {len(result.telemetry.series)} series, "
              f"{fired} alerts fired")
        _write_json(args.telemetry_output, result.telemetry.to_json_dict())
    if args.trace_output:
        import json as _json

        payload = to_chrome_trace_multi(
            result.replica_events,
            metadata={
                "model": dep.model.name,
                "hardware": dep.hardware.name,
                "framework": dep.framework.name,
                "replicas": len(result.replicas),
                "router": result.router_name,
                "makespan_s": result.makespan_s,
            },
        )
        with open(args.trace_output, "w", encoding="utf-8") as fh:
            _json.dump(payload, fh, indent=1)
        print(f"wrote {args.trace_output} — open in https://ui.perfetto.dev")
    return 0


def _cmd_scenario(args: argparse.Namespace) -> int:
    from repro.scenarios import get_scenario, list_scenarios, trace_json_dicts

    if args.verb == "list":
        print(f"{'scenario':<20}{'sessions':>9}  composition")
        for scenario in list_scenarios():
            composition = (
                f"{scenario.arrival.describe()} | "
                f"{scenario.lengths.describe()} | "
                f"{scenario.sessions.describe()}"
            )
            if scenario.tenants:
                composition += f" | {len(scenario.tenants)} tenants"
            print(f"{scenario.name:<20}{scenario.num_sessions:>9}  {composition}")
        return 0

    scenario = get_scenario(args.name)
    if args.verb == "describe":
        print(scenario.describe())
        trace = scenario.build(args.seed)
        tagged = sum(1 for r in trace if r.tenant is not None)
        multi = sum(1 for r in trace if r.turn_index > 0)
        span = trace[-1].arrival_time - trace[0].arrival_time
        print(
            f"  trace (seed {args.seed}): {len(trace)} requests over "
            f"{span:.1f} s, {multi} follow-up turns, {tagged} tenant-tagged"
        )
        if args.trace_output:
            _write_json(args.trace_output, trace_json_dicts(trace))
        return 0

    if args.sessions is not None:
        scenario = scenario.with_sessions(args.sessions)
    trace = scenario.build(args.seed)
    runner = BenchmarkRunner(use_engine=True)
    dep = runner.deployment(args.model, args.hardware, args.framework)
    telemetry = None
    if args.telemetry_output:
        from repro.obs.telemetry import TelemetryHub

        telemetry = TelemetryHub(tenant_slos=scenario.tenant_slos() or None)
    span = trace[-1].arrival_time - trace[0].arrival_time
    result = _simulate(
        args, dep, trace, title=f"{scenario.name}: ",
        offered_rps=len(trace) / span if span > 0 else float(len(trace)),
        load_kwargs={"tenant_slos": scenario.tenant_slos() or None},
        prefix_cache_slots=args.prefix_cache_slots,
        telemetry=telemetry,
    )
    if result is None:
        return 1
    if args.telemetry_output:
        assert result.telemetry is not None  # telemetry hub attached above
        _write_json(args.telemetry_output, result.telemetry.to_json_dict())
    return 0


def _cmd_optimize(args: argparse.Namespace) -> int:
    from repro.analysis.optimize import SearchSpace, optimize
    from repro.runtime.loadgen import ServiceLevelObjective

    if args.space:
        import json as _json

        with open(args.space, encoding="utf-8") as fh:
            space = SearchSpace.from_json_dict(_json.load(fh))
    else:
        def _names(raw: str) -> tuple[str, ...]:
            return tuple(part.strip() for part in raw.split(",") if part.strip())

        space = SearchSpace(
            models=_names(args.models),
            hardware=_names(args.hardware),
            frameworks=_names(args.frameworks),
            quant_schemes=_names(args.quant),
            tensor_parallel=tuple(int(v) for v in _names(args.tp)),
            batch_sizes=tuple(int(v) for v in _names(args.batch_sizes)),
            routers=_names(args.routers),
            input_tokens=args.input_tokens,
            output_tokens=args.output_tokens,
            target_rate_rps=args.target_rate,
            max_replicas=args.max_replicas,
            slo=ServiceLevelObjective(),
        )
    report = optimize(
        space,
        objective=args.objective,
        refine_top=args.refine_top,
        seed=args.seed,
    )
    print(report.render())
    if args.output:
        _write_json(args.output, report.to_json_dict())
    return 0


def _cmd_validate(args: argparse.Namespace) -> int:
    from repro.bench.validation import cross_validate

    summary = cross_validate(num_points=args.points, seed=args.seed)
    print(summary.render())
    return 0 if summary.max_relative_error < 0.05 else 1


def _load_profile_or_bundle(path: str):
    """Read ``path`` as either a profile JSON or an experiment bundle.

    Returns ``(profiles, label)`` where ``profiles`` is the list of
    per-seed :class:`~repro.obs.profiler.ProfileReport` objects (length 1
    for a plain profile JSON written by the ``profile`` verb).
    """
    import json as _json

    from repro.experiments import ExperimentBundle
    from repro.obs.profiler import ProfileReport

    with open(path, encoding="utf-8") as fh:
        payload = _json.load(fh)
    if "bundle_version" in payload:
        bundle = ExperimentBundle.from_json_dict(payload)
        profiles = [
            sr.profile for sr in bundle.seed_results if sr.profile is not None
        ]
        if not profiles:
            raise ValueError(
                f"{path} holds no profiles; re-run the experiment with "
                '"profiled": true in its spec'
            )
        return profiles, bundle.spec.name
    return [ProfileReport.from_json_dict(payload)], str(payload.get("name", path))


def _cmd_experiment(args: argparse.Namespace) -> int:
    from repro.experiments import (
        ExperimentBundle,
        ExperimentSpec,
        bundle_replication,
        compare_replications,
        diff_profiles,
        diff_replicated_profiles,
        replay,
        run_replication,
        verify_replay,
    )

    if args.verb == "run":
        spec = ExperimentSpec.load(args.spec)
        report = run_replication(
            spec, confidence=args.confidence, method=args.method
        )
        print(report.render())
        bundle_replication(report).save(args.output)
        print(f"wrote {args.output}")
        return 0

    if args.verb == "replay":
        bundle = ExperimentBundle.load(args.bundle)
        fresh = replay(bundle)
        if args.output is not None:
            fresh.save(args.output)
            print(f"wrote {args.output}")
        ok, mismatches = verify_replay(bundle, fresh)
        if ok:
            print(
                f"replay verified: {len(bundle.seed_results)} seed results "
                "byte-identical"
            )
            return 0
        for mismatch in mismatches:
            print(f"MISMATCH: {mismatch}")
        return 1

    if args.verb == "compare":
        report_a = ExperimentBundle.load(args.bundle_a).report()
        report_b = ExperimentBundle.load(args.bundle_b).report()
        comparison = compare_replications(
            report_a, report_b, alpha=args.alpha, test=args.test
        )
        print(comparison.render())
        if args.output is not None:
            _write_json(args.output, comparison.to_json_dict())
        return 0

    if args.verb == "diff":
        profiles_a, _ = _load_profile_or_bundle(args.profile_a)
        profiles_b, _ = _load_profile_or_bundle(args.profile_b)
        if len(profiles_a) > 1 and len(profiles_b) > 1:
            diff = diff_replicated_profiles(
                profiles_a,
                profiles_b,
                alpha=args.alpha,
                paired=len(profiles_a) == len(profiles_b),
            )
        else:
            diff = diff_profiles(profiles_a[0], profiles_b[0])
        print(diff.render())
        if args.output is not None:
            _write_json(args.output, diff.to_json_dict())
        return 0

    raise AssertionError(f"unhandled experiment verb {args.verb!r}")


def main(argv: Sequence[str] | None = None) -> int:
    """Run one command.  Exit codes: 0 ok; 1 OOM, infeasible plan or
    replay mismatch; 2 usage error or unknown registry name."""
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except UnknownNameError as exc:
        print(f"llm-inference-bench {args.command}: error: {exc.args[0]}",
              file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
