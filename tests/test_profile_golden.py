"""Byte-level guard for the cost profiler's full-precision output.

The CI ``profile`` job diffs a run only against itself, the e2e digests
leave ``profile`` out and the dashboard golden rounds shares to 0.1%, so
this file is what pins every profiled float to the exact bytes of a
committed ``ProfileReport.to_json_dict()``.  Two runs:

* ``cli-profile`` — the ``--output`` file of the CI ``profile`` job's
  ``profile`` command (one engine, per-phase and per-request tables);
* ``cluster-2r`` — the merged fleet report of a profiled two-replica
  :class:`~repro.cluster.simulator.ClusterSimulator` run, per-request
  components included.

The fleet merge adds its scalar fields with the built-in ``sum``.  From
Python 3.12 ``sum`` compensates float rounding, which leaves a sum of two
floats unchanged but not one of three or more, so the cluster run keeps
two replicas to stay byte-stable across interpreters.

After an intended change to what the profiler records, regenerate with
    PYTHONPATH=src python -m tests.test_profile_golden
and review the diff.
"""

from __future__ import annotations

import tempfile
from pathlib import Path

import pytest

from repro.core.jsonio import dumps

GOLDEN_DIR = Path(__file__).parent / "data" / "profile"


def _cli_profile_json() -> str:
    from repro.cli import main

    with tempfile.TemporaryDirectory() as tmp:
        output = Path(tmp) / "profile.json"
        code = main([
            "profile",
            "--model", "LLaMA-3-8B", "--hardware", "MI250", "--framework", "vLLM",
            "--batch-size", "8", "--rate", "6", "--num-requests", "24",
            "--seed", "3",
            "--output", str(output),
        ])
        assert code == 0
        return output.read_text(encoding="utf-8")


def _cluster_profile_json() -> str:
    from repro.cluster.simulator import ClusterSimulator
    from repro.frameworks.base import get_framework
    from repro.hardware.zoo import get_hardware
    from repro.models.zoo import get_model
    from repro.perf.phases import Deployment
    from repro.runtime.workload import open_loop_trace

    dep = Deployment(
        get_model("LLaMA-3-8B"), get_hardware("A100"), get_framework("vLLM")
    )
    simulator = ClusterSimulator(dep, 2, max_concurrency=8, profiled=True)
    result = simulator.run(open_loop_trace(32, 8.0, 768, 128, seed=13))
    return dumps(result.profile.to_json_dict())


CASES = {
    "cli-profile": _cli_profile_json,
    "cluster-2r": _cluster_profile_json,
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_profile_matches_committed_json(name):
    golden = (GOLDEN_DIR / f"{name}.json").read_text(encoding="utf-8")
    assert CASES[name]() == golden


if __name__ == "__main__":
    import contextlib
    import io

    GOLDEN_DIR.mkdir(parents=True, exist_ok=True)
    for stem, render in CASES.items():
        with contextlib.redirect_stdout(io.StringIO()):
            text = render()
        (GOLDEN_DIR / f"{stem}.json").write_text(text, encoding="utf-8")
        print(f"wrote {GOLDEN_DIR / stem}.json")
