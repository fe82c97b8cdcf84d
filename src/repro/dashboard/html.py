"""Self-contained HTML dashboard generator.

The paper ships an interactive dashboard for exploring (framework,
accelerator, model) configurations.  This generator produces a single
dependency-free HTML file: experiment result tables embedded as JSON, a
client-side filter bar, and pure-JS bar rendering (no network, no CDN).
"""

from __future__ import annotations

import html
import json
import math
from collections.abc import Iterable, Sequence
from pathlib import Path
from typing import TYPE_CHECKING

from repro.bench.experiments import EXPERIMENTS, ExperimentResult
from repro.core.metrics import COMPONENT_FIELDS
from repro.obs.metrics import MetricsSnapshot

if TYPE_CHECKING:  # pragma: no cover
    from repro.analysis.optimize import OptimizationReport
    from repro.cluster.simulator import ClusterResult
    from repro.experiments.compare import ComparisonReport
    from repro.experiments.runner import ReplicationReport
    from repro.obs.profiler import ProfileReport
    from repro.obs.telemetry import TelemetrySnapshot
    from repro.runtime.loadgen import LoadReport
    from repro.scenarios import Scenario

__all__ = [
    "dashboard_html",
    "write_dashboard",
    "metrics_section_html",
    "cluster_section_html",
    "profile_section_html",
    "replication_section_html",
    "comparison_section_html",
    "scenarios_section_html",
    "telemetry_section_html",
]

_PAGE = """<!DOCTYPE html>
<html lang="en">
<head>
<meta charset="utf-8">
<title>LLM-Inference-Bench Dashboard (reproduction)</title>
<style>
  body {{ font-family: system-ui, sans-serif; margin: 2rem; color: #1a1a2e; }}
  h1 {{ font-size: 1.4rem; }}
  h2 {{ font-size: 1.1rem; margin-top: 2rem; border-bottom: 1px solid #ccc; }}
  .claims td, .claims th, .data td, .data th {{
    padding: 2px 10px; text-align: right; font-variant-numeric: tabular-nums;
  }}
  .claims th, .data th {{ background: #eef; }}
  .claims td:first-child, .data td:first-child {{ text-align: left; }}
  .bar {{ background: #4a6fa5; height: 12px; display: inline-block; }}
  select {{ margin-right: 1rem; }}
  .note {{ color: #555; font-size: 0.9rem; }}
</style>
</head>
<body>
<h1>LLM-Inference-Bench &mdash; reproduction dashboard</h1>
<p class="note">Simulated measurements (see DESIGN.md). Pick an experiment
to view its sweep table; bars are proportional to throughput within each
table.</p>
<label>Experiment: <select id="picker"></select></label>
<div id="content"></div>
{metrics_html}
<script>
const DATA = {data_json};
const picker = document.getElementById("picker");
const content = document.getElementById("content");
for (const id of Object.keys(DATA)) {{
  const opt = document.createElement("option");
  opt.value = id;
  opt.textContent = id + " — " + DATA[id].title;
  picker.appendChild(opt);
}}
function fmt(v) {{
  if (typeof v !== "number") return String(v);
  return Math.abs(v) >= 100 ? v.toFixed(0) : v.toPrecision(3);
}}
function render(id) {{
  const exp = DATA[id];
  let out = "<h2>" + id + ": " + exp.title + "</h2>";
  out += "<p class='note'>" + exp.section + "</p>";
  if (exp.claims.length) {{
    out += "<table class='claims'><tr><th>headline</th><th>paper</th><th>measured</th></tr>";
    for (const c of exp.claims) {{
      out += "<tr><td>" + c.name + "</td><td>" + (c.paper === null ? "—" : fmt(c.paper)) +
             "</td><td>" + fmt(c.measured) + "</td></tr>";
    }}
    out += "</table>";
  }}
  const rows = exp.records;
  if (rows.length) {{
    const cols = Object.keys(rows[0]);
    const tputCol = cols.find(c => c.includes("throughput") || c.includes("peak"));
    const maxTput = tputCol ? Math.max(...rows.map(r => r[tputCol] || 0)) : 0;
    out += "<table class='data'><tr>" + cols.map(c => "<th>" + c + "</th>").join("") +
           (tputCol ? "<th></th>" : "") + "</tr>";
    for (const r of rows) {{
      out += "<tr>" + cols.map(c => "<td>" + fmt(r[c]) + "</td>").join("");
      if (tputCol && maxTput > 0) {{
        const w = Math.round(200 * (r[tputCol] || 0) / maxTput);
        out += "<td><span class='bar' style='width:" + w + "px'></span></td>";
      }}
      out += "</tr>";
    }}
    out += "</table>";
  }}
  content.innerHTML = out;
}}
picker.addEventListener("change", () => render(picker.value));
render(picker.value);
</script>
</body>
</html>
"""


def _table(headers: Sequence[str], rows: Iterable[Sequence[object]]) -> list[str]:
    """One ``data`` table as section parts: the header row, one part per
    row and the closing tag.  Headers and cells arrive already formatted."""
    head = "".join(f"<th>{h}</th>" for h in headers)
    return [
        f"<table class='data'><tr>{head}</tr>",
        *("<tr>" + "".join(f"<td>{c}</td>" for c in row) + "</tr>" for row in rows),
        "</table>",
    ]


def _bar(width: int) -> str:
    """Inline bar cell content, ``width`` pixels long."""
    return f"<span class='bar' style='width:{width}px'></span>"


def _num(value: float | None, spec: str = ".4g") -> str:
    """``value`` formatted by ``spec``; an em dash when missing or non-finite."""
    if value is None or not math.isfinite(value):
        return "&mdash;"
    return format(value, spec)


def metrics_section_html(
    snapshot: MetricsSnapshot, title: str = "Serving metrics (traced engine run)"
) -> str:
    """Static HTML fragment: percentile table + histogram bucket panels.

    Rendered from a :class:`~repro.obs.metrics.MetricsSnapshot` (a traced
    engine run); embeddable in the dashboard via ``dashboard_html``'s
    ``metrics`` argument or served standalone.
    """
    parts = [f"<h2>{html.escape(title)}</h2>"]
    histograms = sorted(snapshot.histograms.items())
    if histograms:
        parts += _table(
            ("histogram", "count", "mean", "p50", "p90", "p99"),
            [
                (html.escape(name), h.count,
                 *(f"{v:.4g}" for v in (h.mean, h.p50, h.p90, h.p99)))
                for name, h in histograms
            ],
        )
        for name, h in histograms:
            populated = [
                (i, c) for i, c in enumerate(h.bucket_counts) if c > 0
            ]
            if not populated:
                continue
            peak = max(c for _, c in populated)
            parts.append(f"<h3>{html.escape(name)} distribution</h3>")
            parts += _table(
                ("bucket &le;", "count", ""),
                [
                    (f"{h.buckets[i]:.4g}" if i < len(h.buckets) else "+inf",
                     count, _bar(round(200 * count / peak)))
                    for i, count in populated
                ],
            )
    if snapshot.gauges:
        parts += _table(
            ("gauge", "last", "min", "max", "time-weighted mean"),
            [
                (html.escape(name), *(
                    f"{v:.4g}"
                    for v in (g.last, g.minimum, g.maximum, g.time_weighted_mean)
                ))
                for name, g in sorted(snapshot.gauges.items())
            ],
        )
    if snapshot.counters:
        parts += _table(
            ("counter", "value"),
            [
                (html.escape(name), f"{value:.4g}")
                for name, value in sorted(snapshot.counters.items())
            ],
        )
    return "\n".join(parts)


def cluster_section_html(
    result: "ClusterResult", title: str = "Cluster simulation"
) -> str:
    """Static HTML fragment for one cluster run: replica table + gauges.

    Per-replica rows (role, status, requests served, busy time,
    utilization bar) followed by fault-injection and autoscale event
    tables when the control plane acted, then the cluster metrics
    snapshot (fleet gauges sampled at every routing instant, TTFT/ITL
    histograms) via :func:`metrics_section_html`.  Embeddable below the
    experiment browser the same way the traced-engine metrics section is.
    """
    parts = [f"<h2>{html.escape(title)}</h2>"]
    parts.append(
        "<p class='note'>"
        f"{len(result.replicas)} replicas, router "
        f"{html.escape(result.router_name)}, {len(result.requests)} "
        f"requests, makespan {result.makespan_s:.2f}&nbsp;s"
        + (f", {result.handoffs} KV handoffs" if result.handoffs else "")
        + (f", {result.prefix_hits} prefix hits" if result.prefix_hits else "")
        + (f", {result.retries} retries" if result.retries else "")
        + (
            f", {result.failed_requests} failed"
            if result.failed_requests
            else ""
        )
        + "</p>"
    )
    parts += _table(
        ("replica", "role", "status", "requests", "busy s", "utilization", ""),
        [
            (html.escape(rep.name), html.escape(rep.role),
             html.escape(rep.status), rep.requests_served, f"{rep.busy_s:.2f}",
             f"{rep.utilization:.0%}",
             _bar(round(200 * min(1.0, max(0.0, rep.utilization)))))
            for rep in result.replicas
        ],
    )
    if result.fault_log:
        parts.append("<h3>Injected faults</h3>")
        rows = []
        for fault in result.fault_log:
            detail = ""
            if fault.get("duration_s"):
                detail = f"{fault['duration_s']:.2f}s"
                if fault.get("factor", 1.0) != 1.0:
                    detail += f" x{fault['factor']:g}"
            if "requeued" in fault:
                detail = f"{fault['requeued']} requests requeued"
            rows.append((
                f"{fault['at_s']:.2f}", html.escape(fault["kind"]),
                html.escape(fault.get("replica") or "-"), html.escape(detail),
            ))
        parts += _table(("t (s)", "kind", "replica", "detail"), rows)
    if result.scale_log:
        parts.append("<h3>Autoscale events</h3>")
        parts += _table(
            ("t (s)", "action", "replica", "ready (s)"),
            [
                (f"{event['ts_s']:.2f}", html.escape(event["action"]),
                 html.escape(event.get("replica") or "-"),
                 f"{event['ready_s']:.2f}"
                 if event.get("ready_s") is not None
                 else "-")
                for event in result.scale_log
            ],
        )
    parts.append(metrics_section_html(result.metrics, title="Cluster metrics"))
    return "\n".join(parts)


def profile_section_html(
    profile: "ProfileReport", title: str = "Cost attribution profile"
) -> str:
    """Static HTML fragment for one :class:`ProfileReport`.

    Headline utilization counters (MFU, MBU, tokens/s, power, energy per
    token), then a per-phase roofline-share table whose bars stack the
    six cost components, then the most expensive per-request
    attributions.  Embeddable below the experiment browser via
    ``dashboard_html``'s ``profile`` argument.
    """
    parts = [f"<h2>{html.escape(title)}</h2>"]
    parts.append(
        "<p class='note'>"
        f"{html.escape(profile.name)} &mdash; {html.escape(profile.model)} on "
        f"{profile.num_devices}x {html.escape(profile.hardware)} / "
        f"{html.escape(profile.framework)}: wall {profile.total_time_s:.4g}&nbsp;s "
        f"(busy {profile.busy_s:.4g}, idle {profile.idle_s:.4g}), "
        f"{profile.tokens} tokens</p>"
    )
    parts.append("".join(_table(
        ("MFU", "MBU", "tokens/s", "avg power (W)", "J/token", "dominant"),
        [(f"{profile.mfu:.1%}", f"{profile.mbu:.1%}",
          f"{profile.tokens_per_s:.4g}", f"{profile.average_power_w:.4g}",
          f"{profile.joules_per_token:.4g}", profile.dominant_bottleneck or "-")],
    )))
    if profile.phases:
        rows = []
        for phase in profile.phases:
            shares = phase.components.fractions()
            rows.append((
                html.escape(phase.phase), f"{phase.time_s:.4g}", phase.events,
                phase.tokens, *(f"{shares[name]:.1%}" for name in COMPONENT_FIELDS),
                phase.dominant or "-",
                _bar(round(200 * min(1.0, max(0.0, shares["compute_s"])))),
            ))
        parts += _table(
            ("phase", "time s", "events", "tokens", "compute", "weights", "kv",
             "act", "comm", "overhead", "dominant", ""),
            rows,
        )
    if profile.requests:
        shown = sorted(
            profile.requests, key=lambda r: (-r.time_s, r.index)
        )[:8]
        peak = max(req.time_s for req in shown)
        parts.append("<h3>Most expensive requests</h3>")
        parts += _table(
            ("request", "in", "out", "time s", "energy J", "dominant", ""),
            [
                (req.index, req.input_tokens, req.output_tokens,
                 f"{req.time_s:.4g}", f"{req.energy_j:.4g}", req.dominant or "-",
                 _bar(round(200 * req.time_s / peak) if peak > 0 else 0))
                for req in shown
            ],
        )
    return "\n".join(parts)


def replication_section_html(
    report: "ReplicationReport", title: str | None = None
) -> str:
    """Static HTML fragment for one replicated experiment.

    One row per metric: mean with its confidence interval, sample spread
    and an interval-width bar (relative half-width), so the dashboard
    shows which numbers carry real error bars and which are single-seed
    point estimates.  Embeddable via ``dashboard_html``'s ``replication``
    argument.
    """
    if title is None:
        title = f"Replication: {report.spec.name}"
    parts = [f"<h2>{html.escape(title)}</h2>"]
    parts.append(
        "<p class='note'>"
        f"{html.escape(report.spec.model)} on {html.escape(report.spec.hardware)}"
        f" / {html.escape(report.spec.framework)} &mdash; "
        f"{report.num_seeds} seeds, {html.escape(report.method)} intervals at "
        f"{report.confidence:.0%} confidence</p>"
    )
    rows = []
    for name in sorted(report.summaries):
        s = report.summaries[name]
        half = s.half_width
        rel = (
            half / abs(s.mean)
            if math.isfinite(half) and s.mean not in (0.0,) and math.isfinite(s.mean)
            else float("nan")
        )
        width = round(200 * min(1.0, rel)) if math.isfinite(rel) else 0
        rows.append((
            html.escape(name), _num(s.mean), _num(s.ci_lo), _num(s.ci_hi),
            _num(s.std), s.n, _bar(width),
        ))
    parts += _table(
        ("metric", "mean", "CI low", "CI high", "std", "n", ""), rows
    )
    return "\n".join(parts)


def comparison_section_html(
    report: "ComparisonReport", title: str | None = None
) -> str:
    """Static HTML fragment for an A-vs-B comparison.

    One row per metric with both means, the delta, the p-value and a
    ``significant`` marker at the report's alpha; significant rows carry
    the marker so sweep reviews can skim for real effects.  Embeddable
    via ``dashboard_html``'s ``comparison`` argument.
    """
    if title is None:
        title = f"Comparison: {report.name_a} vs {report.name_b}"
    pairing = "paired by seed" if report.paired else "independent samples"
    parts = [f"<h2>{html.escape(title)}</h2>"]
    parts.append(
        "<p class='note'>"
        f"A = {html.escape(report.name_a)}, B = {html.escape(report.name_b)} "
        f"&mdash; {pairing}, significance at p&lt;{report.alpha:g}</p>"
    )
    parts += _table(
        ("metric", "A", "B", "delta", "p", "significant"),
        [
            (html.escape(comp.metric), f"{comp.mean_a:.4g}",
             f"{comp.mean_b:.4g}", f"{comp.delta:+.4g}",
             _num(comp.test.p_value, ".3g"),
             "*" if comp.significant(report.alpha) else "")
            for comp in report.comparisons
        ],
    )
    significant = report.significant_metrics()
    if significant:
        parts.append(
            "<p class='note'>significant: "
            + html.escape(", ".join(significant))
            + "</p>"
        )
    return "\n".join(parts)


def scenarios_section_html(
    scenarios: "list[Scenario]", load: "LoadReport | None" = None
) -> str:
    """Static HTML fragment for the scenario catalog.

    One row per scenario (arrivals, lengths, sessions, tenant count);
    ``load`` (optional, from a scenario run) appends the per-tenant SLO
    lanes so multi-tenant attainment gaps are visible at a glance.
    NaN lanes (a tenant that completed nothing) render as dashes.
    Embeddable via ``dashboard_html``'s ``scenarios`` argument.
    """
    parts = ["<h2>Traffic scenarios</h2>"]
    parts.append(
        "<p class='note'>Named, seed-deterministic production traffic "
        "shapes (<code>repro.scenarios</code>); run with "
        "<code>scenario run &lt;name&gt;</code>.</p>"
    )
    parts += _table(
        ("scenario", "sessions", "arrivals", "lengths", "sessions model",
         "tenants"),
        [
            (html.escape(scenario.name), scenario.num_sessions,
             html.escape(scenario.arrival.describe()),
             html.escape(scenario.lengths.describe()),
             html.escape(scenario.sessions.describe()),
             len(scenario.tenants) or "&mdash;")
            for scenario in scenarios
        ],
    )
    if load is not None and load.tenants:
        parts += _table(
            ("tenant", "requests", "SLO attainment", "TTFT p95 (s)",
             "NTPOT (s)", "failure rate"),
            [
                (html.escape(lane.tenant), lane.requests,
                 f"{lane.slo_attainment:.0%}", _num(lane.ttft_p95_s),
                 _num(lane.ntpot_mean_s), f"{lane.failure_rate:.0%}")
                for lane in load.tenants
            ],
        )
    return "\n".join(parts)


def telemetry_section_html(
    snapshot: "TelemetrySnapshot", title: str = "Streaming telemetry"
) -> str:
    """Static HTML fragment for one :class:`TelemetrySnapshot`.

    Budget configuration note, then one row per time series (sample
    count, last/min/max with a last-value bar scaled within the series
    range), then the typed alert log in firing order.  Series whose
    samples are all null (NaN-only channels, e.g. ITL under single-token
    outputs) render as dashes.  Embeddable via ``dashboard_html``'s
    ``telemetry`` argument.
    """
    cfg = snapshot.config
    parts = [f"<h2>{html.escape(title)}</h2>"]
    parts.append(
        "<p class='note'>SLO budget: attainment target "
        f"{_num(cfg.get('attainment_target'))}, burn windows "
        f"{_num(cfg.get('fast_window_s'))}&nbsp;s / "
        f"{_num(cfg.get('slow_window_s'))}&nbsp;s, page at "
        f"{_num(cfg.get('page_threshold'))}&times;, ticket at "
        f"{_num(cfg.get('ticket_threshold'))}&times;, tick every "
        f"{_num(cfg.get('tick_interval_s'))}&nbsp;s</p>"
    )
    if snapshot.series:
        rows = []
        for name in sorted(snapshot.series):
            body = snapshot.series[name]
            values = [v for v in body["values"] if v is not None]
            last = values[-1] if values else None
            lo = min(values) if values else None
            hi = max(values) if values else None
            width = 0
            if last is not None and hi is not None and hi > 0:
                width = round(200 * max(0.0, last) / hi)
            rows.append((
                html.escape(name), html.escape(body.get("unit", "")),
                len(body["values"]), _num(last), _num(lo), _num(hi), _bar(width),
            ))
        parts += _table(
            ("series", "unit", "samples", "last", "min", "max", ""), rows
        )
    if snapshot.alerts:
        parts.append("<h3>Alerts</h3>")
        parts += _table(
            ("t (s)", "alert", "severity", "state", "burn", "threshold",
             "window (s)"),
            [
                (_num(alert.ts_s), html.escape(alert.name),
                 html.escape(alert.severity), html.escape(alert.state),
                 _num(alert.value), _num(alert.threshold), _num(alert.window_s))
                for alert in snapshot.alerts
            ],
        )
    else:
        parts.append("<p class='note'>No alerts fired.</p>")
    return "\n".join(parts)


def optimize_section_html(report: "OptimizationReport") -> str:
    """Static HTML fragment for an optimizer run's Pareto frontiers.

    Headline verdict (best configuration for the report's objective)
    followed by one table per frontier, sorted along the frontier so
    each table reads as the trade-off curve top to bottom.  Embeddable
    via ``dashboard_html``'s ``optimization`` argument.
    """
    stats = report.stats
    parts = ["<h2>Deployment optimization</h2>"]
    parts.append(
        "<p class='note'>Pareto search over the deployment space "
        "(<code>repro.analysis.optimize</code>): "
        f"{stats.configs_screened}/{stats.configs_nominal} configurations "
        f"screened ({stats.skipped_invalid} invalid, {stats.oom_lanes} OOM "
        "lanes), target "
        f"{report.space.target_rate_rps:.2g} req/s at "
        f"{report.space.input_tokens}/{report.space.output_tokens} tokens.</p>"
    )
    best = report.best
    if best is None:
        parts.append(
            "<p class='note'>No configuration meets the SLO within "
            f"{report.space.max_replicas} replicas.</p>"
        )
    else:
        parts.append(
            f"<p>Best <b>{html.escape(report.objective)}</b>: "
            f"<code>{html.escape(best.key)}</code> &mdash; "
            f"{best.cost_per_token_usd:.3e} $/token, "
            f"{best.energy_per_token_j:.3g} J/token, "
            f"{best.replicas} replica(s) &times; {best.num_devices} "
            "device(s)</p>"
        )
    for name, members in sorted(report.frontiers.items()):
        parts.append(f"<h3>{html.escape(name.replace('_', ' '))}</h3>")
        parts += _table(
            ("configuration", "replicas", "$/token", "J/token", "tok/s",
             "e2e (s)", "SLO headroom", "perplexity"),
            [
                (f"<code>{html.escape(c.key)}</code>", c.replicas,
                 _num(c.cost_per_token_usd), _num(c.energy_per_token_j),
                 _num(c.throughput_tokens_per_s), _num(c.e2e_s),
                 _num(c.slo_headroom), _num(c.perplexity))
                for c in members
            ],
        )
    if report.refined:
        parts.append("<h3>Discrete-event refinement</h3>")
        parts += _table(
            ("configuration", "router", "planned replicas", "feasible",
             "autoscaler bounds"),
            [
                (f"<code>{html.escape(r.config.key)}</code>",
                 html.escape(r.router), r.capacity_plan.num_replicas,
                 "yes" if r.capacity_plan.feasible else "no",
                 f"[{r.autoscaler_min_replicas}, {r.autoscaler_max_replicas}]"
                 if r.autoscaler_min_replicas is not None
                 else "&mdash;")
                for r in report.refined
            ],
        )
    return "\n".join(parts)


def dashboard_html(
    results: list[ExperimentResult],
    metrics: MetricsSnapshot | None = None,
    cluster: "ClusterResult | None" = None,
    profile: "ProfileReport | None" = None,
    replication: "ReplicationReport | None" = None,
    comparison: "ComparisonReport | None" = None,
    scenarios: "list[Scenario] | None" = None,
    optimization: "OptimizationReport | None" = None,
    telemetry: "TelemetrySnapshot | None" = None,
) -> str:
    """Render results into a single self-contained HTML page.

    ``metrics`` (optional) embeds a traced engine run's percentile and
    histogram panels below the experiment browser; ``cluster`` (optional)
    appends a cluster-simulation section (replica utilization, fleet
    gauges) the same way; ``profile`` (optional) appends a cost-
    attribution section (roofline shares, MFU/MBU/energy counters);
    ``replication`` and ``comparison`` (optional) append the
    confidence-interval and A/B-significance sections from
    :mod:`repro.experiments`; ``scenarios`` (optional) appends the
    traffic-scenario catalog from :mod:`repro.scenarios`;
    ``optimization`` (optional) appends the Pareto-frontier section from
    :mod:`repro.analysis.optimize`; ``telemetry`` (optional) appends the
    streaming-telemetry section (series summary, burn-rate alert log)
    from :mod:`repro.obs.telemetry`.
    """
    if not results:
        raise ValueError("no results to render")
    data: dict[str, dict] = {}
    for result in results:
        exp = EXPERIMENTS.get(result.experiment_id)
        data[result.experiment_id] = {
            "title": html.escape(result.title),
            "section": html.escape(exp.section if exp else ""),
            "claims": [
                {
                    "name": name,
                    "measured": measured,
                    "paper": result.paper.get(name),
                }
                for name, measured in result.measured.items()
            ],
            "records": result.table.to_dicts(),
        }
    sections = (
        (metrics, metrics_section_html),
        (cluster, cluster_section_html),
        (profile, profile_section_html),
        (replication, replication_section_html),
        (comparison, comparison_section_html),
        (scenarios, scenarios_section_html),
        (optimization, optimize_section_html),
        (telemetry, telemetry_section_html),
    )
    metrics_html = "\n".join(
        render(value) for value, render in sections if value is not None
    )
    return _PAGE.format(data_json=json.dumps(data), metrics_html=metrics_html)


def write_dashboard(
    results: list[ExperimentResult], path: str | Path, **sections
) -> Path:
    """Write the dashboard file and return its path; ``sections`` are
    :func:`dashboard_html`'s optional section arguments."""
    out = Path(path)
    out.write_text(dashboard_html(results, **sections), encoding="utf-8")
    return out
