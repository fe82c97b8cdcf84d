"""Byte-level guard for the tracer's and the telemetry hub's CLI output.

The CI ``chaos``, ``telemetry`` and ``profile`` jobs diff a run against
its own second run, and the e2e digests leave traces and telemetry out,
so this file is what pins every traced event and every telemetry sample
to the exact bytes of a committed file.  Five runs:

* ``chaos-trace`` — the ``--trace-output`` of the CI ``chaos`` job's
  ``cluster`` command (per-replica lanes plus the ``control`` lane of
  faults, retries and scale-ups);
* ``telemetry`` — the ``--telemetry-output`` of the CI ``telemetry``
  job's ``cluster`` command (burn-rate autoscaling under faults);
* ``trace-preempt`` — a ``trace`` command whose optimistic admission
  preempts (498 events, 11 of them ``preempt``);
* ``profile-trace`` — the ``--trace-output`` of the CI ``profile`` job's
  ``profile`` command (the ``profile`` counter tracks);
* ``trace-contiguous`` — a ``trace`` command on a contiguous-KV
  deployment (Gaudi2) whose pool binds: 37 sequences run under a cap of
  64 (277 events besides the lane-name metadata).

The CI jobs ``cmp`` their outputs against the same files.  Traces carry
request ids, which come from a process-wide counter, so each run here
restarts the counter at 0 as a fresh CLI process does.

After an intended change to what the tracer or the hub records,
regenerate with
    PYTHONPATH=src python -m tests.test_observer_golden
and review the diff.
"""

from __future__ import annotations

import itertools
import json
import tempfile
from pathlib import Path
from unittest import mock

import pytest

GOLDEN_DIR = Path(__file__).parent / "data" / "observers"

_CLUSTER_FLAGS = [
    "cluster",
    "--model", "Mistral-7B", "--hardware", "A100", "--framework", "vLLM",
    "--replicas", "2", "--rate", "8", "--num-requests", "48", "--seed", "7",
    "--max-concurrency", "8",
]


def _run_cli(argv: list[str], output_flag: str) -> str:
    """Run the CLI with ``output_flag`` pointed at a scratch file; return
    that file's text."""
    from repro.cli import main
    from repro.core import request

    with tempfile.TemporaryDirectory() as tmp, mock.patch.object(
        request, "_request_ids", itertools.count()
    ):
        output = Path(tmp) / "output.json"
        assert main([*argv, output_flag, str(output)]) == 0
        return output.read_text(encoding="utf-8")


def _run_chaos_cli(autoscale: str, output_flag: str) -> str:
    """The CI fault schedule through the ``cluster`` command."""
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
        with open(faults, "w") as fh:
            json.dump(schedule.to_json_dict(), fh, indent=1)
        return _run_cli(
            [
                *_CLUSTER_FLAGS,
                "--faults", str(faults),
                "--autoscale", autoscale, "--autoscale-max", "4",
            ],
            output_flag,
        )


def _chaos_trace() -> str:
    return _run_chaos_cli("queue-depth", "--trace-output")


def _telemetry() -> str:
    return _run_chaos_cli("burn-rate", "--telemetry-output")


def _trace_preempt() -> str:
    return _run_cli(
        [
            "trace",
            "--model", "LLaMA-2-70B", "--hardware", "A100", "--framework", "vLLM",
            "--optimistic", "--batch-size", "64", "--input-tokens", "2048",
            "--output-tokens", "512", "--rate", "8", "--num-requests", "64",
            "--seed", "1",
        ],
        "--output",
    )


def _trace_contiguous() -> str:
    return _run_cli(
        [
            "trace",
            "--model", "LLaMA-2-7B", "--hardware", "Gaudi2", "--framework", "vLLM",
            "--batch-size", "64", "--input-tokens", "2048",
            "--output-tokens", "512", "--rate", "8", "--num-requests", "64",
            "--seed", "1",
        ],
        "--output",
    )


def _profile_trace() -> str:
    with tempfile.TemporaryDirectory() as tmp:
        return _run_cli(
            [
                "profile",
                "--model", "LLaMA-3-8B", "--hardware", "MI250", "--framework", "vLLM",
                "--batch-size", "8", "--rate", "6", "--num-requests", "24",
                "--seed", "3",
                "--output", str(Path(tmp) / "profile.json"),
            ],
            "--trace-output",
        )


CASES = {
    "chaos-trace": _chaos_trace,
    "telemetry": _telemetry,
    "trace-preempt": _trace_preempt,
    "trace-contiguous": _trace_contiguous,
    "profile-trace": _profile_trace,
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_output_matches_committed_json(name):
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
