"""Checks on the benchmark harness itself, at tiny workload sizes.

    PYTHONPATH=src python -m pytest benchmarks/e2e/test_harness.py -q
"""

from __future__ import annotations

import json
import sys

import pytest

import layers
import run
import workloads

SPEC = json.loads(run.SPEC.read_text())
NAMES = list(workloads.WORKLOADS)


@pytest.fixture(scope="module")
def tiny_sets() -> dict[str, tuple[list[dict], dict]]:
    """Two untraced runs and one traced run of every workload, tiny-sized."""
    return {
        name: (
            [run.run_child(name, 0, tiny=True) for _ in range(2)],
            run.run_child(name, 0, traced=True, tiny=True),
        )
        for name in NAMES
    }


def test_benchmark_json_lists_the_harness_workloads():
    assert [w["name"] for w in SPEC["workloads"]] == NAMES


@pytest.mark.parametrize("name", NAMES)
def test_digests_repeat_and_outputs_check(name, tiny_sets):
    runs, traced = tiny_sets[name]
    for record in [*runs, traced]:
        assert "crashed" not in record, record.get("crashed")
        assert record["errors"] == [] and record["failed"] == 0
    assert runs[0]["digest"] == runs[1]["digest"] == traced["digest"]
    summary = run.summarize(name, 0, runs, traced)
    assert summary["correct"], summary["errors"]


@pytest.mark.parametrize("name", NAMES)
def test_every_metric_is_reported_with_its_unit(name, tiny_sets):
    runs, traced = tiny_sets[name]
    summary = run.summarize(name, 0, runs, traced)
    assert {m: s["unit"] for m, s in summary["e2e"].items()} == run.E2E_UNITS
    table = run.layer_table(traced, summary["e2e"]["wall_s"]["median"])
    for section, trace in (("end_to_end", False), ("per_layer", True)):
        line = json.loads(run.result_line(summary, table, trace))
        assert set(line) == {"correct", "attempted", "failed", "metrics"}
        assert line["correct"] and line["attempted"] >= 1 and line["failed"] == 0
        assert {m: v["unit"] for m, v in line["metrics"].items()} == {
            e["name"]: e["unit"] for e in SPEC[section]
        }


def _run(digest: str = "a", **fields) -> dict:
    record = {
        "ops": 10, "failed": 0, "errors": [], "digest": digest, "restored": True,
        "setup_s": 0.2, "wall_s": 1.0, "peak_rss_mb": 50.0,
    }
    return {**record, **fields}


@pytest.mark.parametrize(
    "runs, traced",
    [
        ([_run("a"), _run("b")], None),
        ([_run(), _run()], _run(digest="b")),
        ([_run(), _run()], _run(restored=False)),
        ([_run(), _run()], _run(failed=10, errors=["broken"])),
        ([_run(), _run()], {"crashed": "exit status 1"}),
    ],
    ids=["digests-disagree", "traced-digest", "not-restored", "traced-check", "traced-crash"],
)
def test_a_broken_set_check_fails_every_operation(runs, traced):
    summary = run.summarize(NAMES[0], 0, runs, traced)
    assert not summary["correct"]
    assert summary["attempted"] == 10 * (len(runs) + (traced is not None))
    assert summary["failed"] == summary["attempted"]


@pytest.mark.parametrize("trace", [False, True])
def test_the_result_line_is_printed_after_every_run_crashed(trace):
    crashed = {"crashed": "exit status 1"}
    summary = run.summarize(NAMES[0], 0, [crashed], crashed if trace else None)
    line = json.loads(run.result_line(summary, None, trace))
    assert line == {"correct": False, "attempted": 1 + trace, "failed": 1 + trace, "metrics": {}}


def test_traced_pass_restores_every_wrapped_attribute():
    sys.path.insert(0, str(run.SRC))
    originals = {(owner, name): vars(owner)[name] for _, owner, name in layers.targets()}
    assert len(originals) > 50
    tracer = layers.LayerTracer()
    tracer.install()
    assert all(vars(o)[n] is not f for (o, n), f in originals.items())
    assert tracer.restore()
    assert all(vars(o)[n] is f for (o, n), f in originals.items())
