"""Tests for the canonical JSON convention (repro.core.jsonio)."""

import json
import math

import pytest

from repro.analysis.optimize.evaluate import (
    RefinedCandidate,
    ScreenedConfig,
    ScreeningStats,
)
from repro.analysis.optimize.report import OptimizationReport
from repro.analysis.optimize.space import SearchSpace
from repro.cluster.planner import CapacityPlan
from repro.core.jsonio import (
    dumps,
    from_json_dict,
    from_json_float,
    from_json_num,
    json_float,
    json_num,
    write_json,
)
from repro.experiments import stats
from repro.obs.telemetry import Alert
from repro.perf.parallelism import ParallelismPlan
from repro.perf.planner import PlanScore
from repro.runtime.loadgen import LoadReport, TenantReport


class TestScalars:
    def test_json_num_keeps_ints(self):
        assert json_num(4) == 4 and type(json_num(4)) is int
        assert type(from_json_num(4)) is int

    def test_json_float_coerces_ints(self):
        assert json_float(4) == 4.0 and type(json_float(4)) is float
        assert type(from_json_float(4)) is float

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize(
        "to_json,from_json",
        [(json_num, from_json_num), (json_float, from_json_float)],
        ids=["num", "float"],
    )
    def test_non_finite_is_null_and_loads_as_nan(self, value, to_json, from_json):
        assert to_json(value) is None
        assert math.isnan(from_json(None))

    @pytest.mark.parametrize("to_json", [json_num, json_float])
    def test_negative_zero_keeps_sign(self, to_json):
        encoded = to_json(-0.0)
        assert encoded == 0.0 and math.copysign(1.0, encoded) == -1.0
        assert dumps([encoded]) == "[\n -0.0\n]\n"


class TestCanonicalText:
    PAYLOAD = {"b": [1, 2.5, None], "a": {"z": 1, "y": "s"}, "c": -0.0}

    def test_dumps_is_sorted_indent_one_with_newline(self):
        expected = json.dumps(self.PAYLOAD, indent=1, sort_keys=True) + "\n"
        assert dumps(self.PAYLOAD) == expected

    def test_write_json_writes_dumps(self, tmp_path):
        path = tmp_path / "out.json"
        write_json(path, self.PAYLOAD)
        assert path.read_text(encoding="utf-8") == dumps(self.PAYLOAD)


# ----------------------------------------------------------------------
# The record codec.  One hand-built instance per codec class, with the
# edge values each schema has to carry: NaN and +-inf (null), a None
# optional, ints in float fields (written as 4.0), the capacity plan's
# (replicas, attainment) probe pairs and the report's frontier dict.

NAN, INF = math.nan, math.inf
TENANT = TenantReport("chat", 3, 2, 1, NAN, 0.25, 0.0)
LOAD = LoadReport(
    4, 2, 1.5, 812.25, 0.1, 0.2, INF, 0.03, 0.5, 1.25, 400.0, tenants=(TENANT,)
)
CONFIG = ScreenedConfig(
    "llama-2-70b", "A100", "vLLM", "fp16", 1, 8, 1, 0, False, True, False,
    INF, INF, INF, 0.0, 0.0, 300.0, INF, INF, 3.32, -INF,
)
PLAN = CapacityPlan(
    4,
    2,
    1,
    True,
    LoadReport(4.0, 2, 1.5, 812.25, 0.1, 0.2, 0.3, 0.03, 1.0, 1.25, 400.0),
    ((1, NAN), (2, 0.96)),
)
SCORE = PlanScore(ParallelismPlan(tp=2), 0.0, INF, True)
REFINED = RefinedCandidate(CONFIG, "least-outstanding", PLAN, None, 3, (SCORE,))
SPACE = SearchSpace(("llama-2-7b",), ("A100",), ("vLLM",), target_rate_rps=2.5)
STATS = ScreeningStats(6, 4, 2, 1)
REPORT = OptimizationReport(
    SPACE,
    "cost_per_token",
    7,
    STATS,
    None,
    {"cost_vs_slo": (), "energy_vs_latency": (CONFIG,)},
    (),
)
ALERT = Alert("slo-burn-page", "page", "firing", 6.0, 5.0, NAN, 8.0)
SUMMARY = stats.MetricSummary("ttft_s", 1, 0.125, NAN, NAN, NAN, 0.95, "none")
RESULT = stats.TestResult("paired-t", INF, 0.0, 3, 3)

RECORDS = [
    TENANT, LOAD, CONFIG, PLAN, SCORE, REFINED, SPACE, STATS, REPORT, ALERT,
    SUMMARY, RESULT,
]

# Rendered by the hand-written to_json_dict methods the codec replaced.
LOAD_JSON = """\
{
 "average_power_w": 400.0,
 "completed_requests": 2,
 "failure_rate": 0.0,
 "goodput_rps": 1.25,
 "itl_mean_s": 0.03,
 "makespan_s": 1.5,
 "ntpot_mean_s": null,
 "offered_rate_rps": 4.0,
 "slo_attainment": 0.5,
 "tenants": [
  {
   "completed_requests": 2,
   "failure_rate": 0.0,
   "ntpot_mean_s": null,
   "requests": 3,
   "slo_attainment": 1.0,
   "tenant": "chat",
   "ttft_p95_s": 0.25
  }
 ],
 "throughput_tokens_per_s": 812.25,
 "ttft_p50_s": 0.1,
 "ttft_p95_s": 0.2,
 "ttft_p99_s": null
}
"""

REFINED_JSON = """\
{
 "autoscaler_max_replicas": 3,
 "autoscaler_min_replicas": null,
 "capacity_plan": {
  "analytic_replicas": 1,
  "feasible": true,
  "num_replicas": 2,
  "probes": [
   [
    1,
    null
   ],
   [
    2,
    0.96
   ]
  ],
  "report": {
   "average_power_w": 400.0,
   "completed_requests": 2,
   "failure_rate": 0.0,
   "goodput_rps": 1.25,
   "itl_mean_s": 0.03,
   "makespan_s": 1.5,
   "ntpot_mean_s": null,
   "offered_rate_rps": 4.0,
   "slo_attainment": 1.0,
   "tenants": [],
   "throughput_tokens_per_s": 812.25,
   "ttft_p50_s": 0.1,
   "ttft_p95_s": 0.2,
   "ttft_p99_s": 0.3
  },
  "target_rate_rps": 4.0
 },
 "config": {
  "average_power_w": 300.0,
  "batch_size": 8,
  "cost_per_token_usd": null,
  "e2e_s": null,
  "energy_per_token_j": null,
  "feasible": false,
  "framework": "vLLM",
  "hardware": "A100",
  "itl_s": null,
  "model": "llama-2-70b",
  "num_devices": 1,
  "oom": true,
  "per_replica_rps": 0.0,
  "perplexity": 3.32,
  "quant": "fp16",
  "replicas": 0,
  "slo_headroom": null,
  "slo_ok": false,
  "throughput_tokens_per_s": 0.0,
  "tp": 1,
  "ttft_s": null
 },
 "plan_ranking": [
  {
   "oom": true,
   "plan": {
    "ep": 1,
    "pp": 1,
    "tp": 2
   },
   "throughput_tokens_per_s": 0.0,
   "ttft_s": null
  }
 ],
 "router": "least-outstanding"
}
"""

REPORT_JSON = """\
{
 "best": null,
 "frontiers": {
  "cost_vs_slo": [],
  "energy_vs_latency": [
   {
    "average_power_w": 300.0,
    "batch_size": 8,
    "cost_per_token_usd": null,
    "e2e_s": null,
    "energy_per_token_j": null,
    "feasible": false,
    "framework": "vLLM",
    "hardware": "A100",
    "itl_s": null,
    "model": "llama-2-70b",
    "num_devices": 1,
    "oom": true,
    "per_replica_rps": 0.0,
    "perplexity": 3.32,
    "quant": "fp16",
    "replicas": 0,
    "slo_headroom": null,
    "slo_ok": false,
    "throughput_tokens_per_s": 0.0,
    "tp": 1,
    "ttft_s": null
   }
  ]
 },
 "objective": "cost_per_token",
 "refined": [],
 "seed": 7,
 "space": {
  "batch_sizes": [
   1,
   8,
   16,
   32
  ],
  "frameworks": [
   "vLLM"
  ],
  "hardware": [
   "A100"
  ],
  "input_tokens": 512,
  "max_replicas": 16,
  "models": [
   "llama-2-7b"
  ],
  "output_tokens": 256,
  "quant_schemes": [
   "fp16"
  ],
  "routers": [
   "least-outstanding"
  ],
  "slo": {
   "attainment_target": 0.95,
   "e2e_s": null,
   "itl_s": 0.08333333333333333,
   "ttft_s": 1.5
  },
  "target_rate_rps": 2.5,
  "tensor_parallel": [
   1
  ]
 },
 "stats": {
  "configs_nominal": 6,
  "configs_screened": 4,
  "oom_lanes": 1,
  "skipped_invalid": 2
 }
}
"""

ALERT_JSON = """\
{
 "name": "slo-burn-page",
 "severity": "page",
 "state": "firing",
 "threshold": 8.0,
 "ts_s": 6.0,
 "value": null,
 "window_s": 5.0
}
"""

SUMMARY_JSON = """\
{
 "ci_hi": null,
 "ci_lo": null,
 "confidence": 0.95,
 "mean": 0.125,
 "method": "none",
 "n": 1,
 "name": "ttft_s",
 "std": null
}
"""

RESULT_JSON = """\
{
 "n_a": 3,
 "n_b": 3,
 "p_value": 0.0,
 "statistic": null,
 "test": "paired-t"
}
"""


class TestRecordCodec:
    PINNED = [
        (LOAD, LOAD_JSON),
        (REFINED, REFINED_JSON),
        (REPORT, REPORT_JSON),
        (ALERT, ALERT_JSON),
        (SUMMARY, SUMMARY_JSON),
        (RESULT, RESULT_JSON),
    ]

    @pytest.mark.parametrize(
        "record,expected", PINNED, ids=[type(r).__name__ for r, _ in PINNED]
    )
    def test_bytes_are_pinned(self, record, expected):
        assert dumps(record.to_json_dict()) == expected

    @pytest.mark.parametrize("record", RECORDS, ids=lambda r: type(r).__name__)
    def test_round_trip_reproduces_bytes(self, record):
        text = dumps(record.to_json_dict())
        loaded = from_json_dict(type(record), json.loads(text))
        assert dumps(loaded.to_json_dict()) == text

    def test_loads_as_field_types(self):
        loaded = CapacityPlan.from_json_dict(json.loads(dumps(PLAN.to_json_dict())))
        assert type(loaded.target_rate_rps) is float
        assert loaded.probes[1] == (2, 0.96) and math.isnan(loaded.probes[0][1])
        assert loaded.report.tenants == ()
        report = from_json_dict(OptimizationReport, REPORT.to_json_dict())
        assert report.space == SPACE and report.best is None
        assert report.frontiers["cost_vs_slo"] == ()
        (config,) = report.frontiers["energy_vs_latency"]
        assert config.key == CONFIG.key and math.isnan(config.cost_per_token_usd)

    def test_absent_key_takes_the_default(self):
        payload = LOAD.to_json_dict()
        del payload["tenants"]
        assert LoadReport.from_json_dict(payload).tenants == ()
        axes = {"models": ["llama-2-7b"], "hardware": ["A100"], "frameworks": ["vLLM"]}
        assert SearchSpace.from_json_dict(axes) == SearchSpace(
            ("llama-2-7b",), ("A100",), ("vLLM",)
        )

    def test_absent_required_key_raises(self):
        payload = LOAD.to_json_dict()
        del payload["makespan_s"]
        with pytest.raises(KeyError, match="makespan_s"):
            LoadReport.from_json_dict(payload)
