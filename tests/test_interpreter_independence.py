"""Output bytes must not depend on the interpreter's built-in ``sum``.

From Python 3.12 the built-in ``sum`` of floats compensates rounding
(Neumaier); 3.11 and earlier add plainly, and every golden was rendered
by plain addition.  Each payload below is rendered natively and again
with ``builtins.sum`` replaced by a port of 3.12's ``sum``, and the
bytes must be equal:

* the ``{"cluster", "load"}`` JSON of two small scenario runs built the
  way the end-to-end benchmark builds its cluster workloads — a
  single-replica long-context RAG run, and a multi-tenant run on eight
  replicas with the profiler and telemetry hub attached (plus its merged
  fleet profile and metrics);
* both metrics goldens and one dashboard golden, against their
  committed bytes (which the native render equals, tested elsewhere).

This runs the 3.12 check on an interpreter that has the test
dependencies, whatever its own ``sum`` does.
"""

from __future__ import annotations

import builtins
import json
import math

import pytest

from tests import goldens

DATA_DIR = goldens.DATA_DIR


def _sum312(iterable, /, start=0):
    """CPython 3.12's ``sum``: an int fast path, then a float path with
    Neumaier compensation (added once at the end), then plain ``+``."""
    it = iter(iterable)
    result = start
    if type(result) is int:
        for item in it:
            if type(item) in (int, bool):
                result += item
                continue
            result = result + item
            break
        else:
            return result
    if type(result) is float:
        f, c = result, 0.0
        for item in it:
            if type(item) is float:
                t = f + item
                if abs(f) >= abs(item):
                    c += (f - t) + item
                else:
                    c += (item - t) + f
                f = t
                continue
            if isinstance(item, int) and -(2**63) <= item < 2**63:
                f += float(item)
                continue
            if c and math.isfinite(c):
                f += c
            result = f + item
            break
        else:
            if c and math.isfinite(c):
                f += c
            return f
    for item in it:
        result = result + item
    return result


@pytest.fixture
def sum312(monkeypatch):
    monkeypatch.setattr(builtins, "sum", _sum312)


def _cluster_payload(
    scenario_name: str, sessions: int, replicas: int, router: str, observed: bool
) -> str:
    from repro.bench import BenchmarkRunner
    from repro.cluster import ClusterSimulator, get_router
    from repro.obs import TelemetryHub
    from repro.scenarios import get_scenario

    seed = 0
    scenario = get_scenario(scenario_name).with_sessions(sessions)
    trace = scenario.build(seed)
    tenant_slos = scenario.tenant_slos() or None
    span = trace[-1].arrival_time - trace[0].arrival_time
    offered_rps = len(trace) / span if span > 0 else float(len(trace))
    simulator = ClusterSimulator(
        BenchmarkRunner(use_engine=True).deployment("LLaMA-3-8B", "A100", "vLLM"),
        replicas,
        router=get_router(router, seed=seed),
        max_concurrency=32,
        prefix_cache_slots=8,
        profiled=observed,
        telemetry=TelemetryHub(tenant_slos=tenant_slos) if observed else None,
    )
    result = simulator.run(trace)
    payload = {
        "cluster": result.to_json_dict(),
        "load": result.load_report(offered_rps, tenant_slos=tenant_slos).to_json_dict(),
    }
    if observed:
        payload["profile"] = result.profile.to_json_dict()
        payload["metrics"] = result.metrics.to_json_dict()
    return json.dumps(payload, sort_keys=True)


CLUSTER_CASES = {
    "rag-long-context": ("rag-long-context", 64, 1, "round-robin", False),
    "multi-tenant-prod": ("multi-tenant-prod", 30, 8, "session-affinity", True),
}


def test_port_compensates():
    values = [1.0, 1e100, 1.0, -1e100]
    assert _sum312(values) == 2.0
    assert _sum312(values, 0.5) == 2.5
    assert _sum312([1, 2, True]) == 4
    assert _sum312([0.5] * 3 + [2]) == 3.5


@pytest.mark.parametrize("name", sorted(CLUSTER_CASES))
def test_cluster_payload_independent_of_sum(name, monkeypatch):
    native = _cluster_payload(*CLUSTER_CASES[name])
    monkeypatch.setattr(builtins, "sum", _sum312)
    assert _cluster_payload(*CLUSTER_CASES[name]) == native


# Uncached renders: a cached run may come from the native ``sum``.
_METRICS_RENDERS = {
    "cluster-chaos": lambda: goldens.chaos_cli.__wrapped__()["--metrics-output"],
    "engine-traced": goldens.engine_traced_metrics,
}


@pytest.mark.parametrize("name", sorted(_METRICS_RENDERS))
def test_metrics_golden_independent_of_sum(name, sum312):
    golden = (DATA_DIR / "metrics" / f"{name}.json").read_text(encoding="utf-8")
    assert _METRICS_RENDERS[name]() == golden


def test_dashboard_golden_independent_of_sum(sum312):
    import repro.dashboard.html as dash
    from repro.scenarios import list_scenarios

    golden = DATA_DIR / "dashboard" / "scenarios-tenants.html"
    load = goldens.tenant_load.__wrapped__()
    html = dash.scenarios_section_html(list_scenarios(), load=load)
    assert html == golden.read_text(encoding="utf-8")
