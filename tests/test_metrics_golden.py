"""Byte-level guard for the metrics registry's full-precision output.

The dashboard goldens render gauge statistics at ``.4g`` and the e2e
digests leave ``ClusterResult.metrics`` out, so this file is what pins
every gauge's last/min/max/time-weighted mean/count (and the counters
and histograms beside them) to the exact bytes of a committed
``MetricsSnapshot.to_json_dict()``.  Two runs:

* ``cluster-chaos`` — the CI ``chaos`` job's ``cluster`` command
  (crash + straggler faults, queue-depth autoscaling, traced) with
  ``--metrics-output``: per-replica and ``fleet.*`` gauges;
* ``engine-traced`` — a traced engine run: ``queue_depth``,
  ``batch_size`` and ``kv_occupancy``.

The whole snapshot is compared as bytes: histogram means and
percentiles come from :mod:`repro.core.stats`, whose sums do not depend
on the interpreter.

After an intended change to what the registry records, regenerate with
    PYTHONPATH=src python -m tests.test_metrics_golden
and review the diff.
"""

from __future__ import annotations

import json
import tempfile
from pathlib import Path

import pytest

from repro.core.jsonio import dumps

GOLDEN_DIR = Path(__file__).parent / "data" / "metrics"


def _chaos_cluster_metrics() -> dict:
    from repro.cli import main
    from repro.control import FaultSchedule

    schedule = FaultSchedule.generate(
        replicas=["replica0", "replica1"],
        horizon_s=6.0,
        seed=11,
        num_crashes=1,
        num_slowdowns=1,
    )
    with tempfile.TemporaryDirectory() as tmp:
        faults = Path(tmp) / "faults.json"
        metrics = Path(tmp) / "metrics.json"
        with open(faults, "w") as fh:
            json.dump(schedule.to_json_dict(), fh, indent=1)
        code = main([
            "cluster",
            "--model", "Mistral-7B", "--hardware", "A100", "--framework", "vLLM",
            "--replicas", "2", "--rate", "8", "--num-requests", "48",
            "--seed", "7",
            "--faults", str(faults),
            "--autoscale", "queue-depth", "--autoscale-max", "4",
            "--max-concurrency", "8",
            "--trace-output", str(Path(tmp) / "trace.json"),
            "--metrics-output", str(metrics),
        ])
        assert code == 0
        return json.loads(metrics.read_text(encoding="utf-8"))


def _engine_traced_metrics() -> dict:
    from repro.frameworks.base import get_framework
    from repro.hardware.zoo import get_hardware
    from repro.models.zoo import get_model
    from repro.obs import EventTracer
    from repro.perf.phases import Deployment
    from repro.runtime.engine import ServingEngine
    from repro.runtime.workload import open_loop_trace

    dep = Deployment(
        get_model("LLaMA-3-8B"), get_hardware("A100"), get_framework("vLLM")
    )
    engine = ServingEngine(dep, max_concurrency=8, tracer=EventTracer())
    result = engine.run(open_loop_trace(24, 6.0, 256, 96, seed=3))
    return result.metrics.to_json_dict()


CASES = {
    "cluster-chaos": _chaos_cluster_metrics,
    "engine-traced": _engine_traced_metrics,
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_snapshot_matches_committed_json(name):
    golden = (GOLDEN_DIR / f"{name}.json").read_text(encoding="utf-8")
    assert dumps(CASES[name]()) == golden


if __name__ == "__main__":
    import contextlib
    import io

    GOLDEN_DIR.mkdir(parents=True, exist_ok=True)
    for stem, render in CASES.items():
        with contextlib.redirect_stdout(io.StringIO()):
            text = dumps(render())
        (GOLDEN_DIR / f"{stem}.json").write_text(text, encoding="utf-8")
        print(f"wrote {GOLDEN_DIR / stem}.json")
