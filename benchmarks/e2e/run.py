"""End-to-end and per-layer benchmark of the simulator.

Full set: every workload in a fresh child process, one run at a time,
interleaved round-robin over ``ROUNDS`` rounds, then one traced run per
workload for the per-layer table::

    PYTHONPATH=src python benchmarks/e2e/run.py [--seed S] [--workload NAME]
        [--record PATH]

One workload for a fixed time, ending in one JSON line with the metrics
``BENCHMARK.json`` names (end-to-end with ``--trace 0``, per-layer with
``--trace 1``)::

    python3 benchmarks/e2e/run.py --workload NAME --seed S --seconds T --trace 0|1

The program is always the ``src/`` tree of the checkout this file sits in.
Exit status: 0 when every output check passed, 1 when one failed or a run
crashed, 2 when there is no program to run.
"""

from __future__ import annotations

import argparse
import compileall
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy

import layers
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SRC = ROOT / "src"
GOLDEN = HERE / "golden.json"
SPEC = ROOT / "BENCHMARK.json"

ROUNDS = 5  # interleaved rounds of a full set
MIN_RUNS = 3  # untraced runs per timed measurement, whatever --seconds says
DEADLINE_S = 170.0  # a timed measurement ends within this, traced run included
CHILD_TIMEOUT_S = 900.0  # per child in a full set

E2E_UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "ops_per_s": "ops/s",
    "peak_rss_mb": "MB",
    "failed_share": "ratio",
}


def compile_sources() -> None:
    """Write the bytecode of the program and the harness before any child
    runs, so that every child's set-up imports compiled modules, as from an
    installed package, whether or not ``PYTHONDONTWRITEBYTECODE`` is set."""
    for directory in (SRC, HERE):
        compileall.compile_dir(directory, quiet=1)


def run_child(
    name: str,
    seed: int,
    traced: bool = False,
    tiny: bool = False,
    timeout: float = CHILD_TIMEOUT_S,
) -> dict:
    """One run in a fresh process; a crashed run comes back with ``crashed``."""
    cmd = [sys.executable, str(HERE / "child.py"), "--workload", name, "--seed", str(seed)]
    cmd += ["--traced"] * traced + ["--tiny"] * tiny
    start = time.perf_counter()
    try:
        proc = subprocess.run(
            cmd, capture_output=True, text=True, timeout=timeout, cwd=ROOT
        )
    except subprocess.TimeoutExpired:
        return {"workload": name, "seed": seed, "crashed": f"timed out after {timeout:.0f} s"}
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        reason = proc.stderr.strip()[-2000:] or f"exit status {proc.returncode}"
        return {"workload": name, "seed": seed, "crashed": reason}
    record = json.loads(lines[-1])
    record["elapsed_s"] = time.perf_counter() - start
    if proc.stderr.strip():
        record["stderr"] = proc.stderr.strip()[-2000:]
    return record


def describe(values: list[float], unit: str) -> dict:
    """Median, quartiles and count of one metric over the runs of a set."""
    if len(values) > 1:
        q1, _, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q3 = values[0]
    return {
        "median": statistics.median(values),
        "q1": q1,
        "q3": q3,
        "n": len(values),
        "unit": unit,
        "values": values,
    }


def summarize(name: str, seed: int, runs: list[dict], traced: dict | None) -> dict:
    """End-to-end metrics and the correctness verdict of one workload's set.

    Every run of the set, the traced one included, counts its operations
    as attempted. A crashed run fails all of its operations; a broken
    set-level check (runs disagreeing on the digest, a traced run that
    crashed, failed its checks, changed the digest or left a wrapper in
    place) fails every operation of the set.
    """
    good = [r for r in runs if "crashed" not in r]
    every = runs + ([] if traced is None else [traced])
    ops = next((r["ops"] for r in every if "crashed" not in r), 1)
    attempted = sum(r.get("ops", ops) for r in every)
    failed = sum(ops if "crashed" in r else r["failed"] for r in every)
    errors = [f"crashed: {r['crashed']}" for r in runs if "crashed" in r]
    errors += sorted({e for r in good for e in r["errors"]})
    digests = sorted({r["digest"] for r in good}, key=str)
    set_errors = []
    if len(digests) > 1:
        set_errors.append(f"runs of one set disagree: digests {digests}")
    if traced is not None:
        if "crashed" in traced:
            set_errors.append(f"traced run crashed: {traced['crashed']}")
        else:
            set_errors += [f"traced run: {e}" for e in traced["errors"]]
            if not traced["restored"]:
                set_errors.append("traced run left a wrapped attribute in place")
            if digests and traced["digest"] != digests[0]:
                set_errors.append("traced run changed the result digest")
    if set_errors:
        failed = attempted
        errors += set_errors
    summary = {
        "workload": name,
        "seed": seed,
        "attempted": attempted,
        "failed": failed,
        "correct": not errors and failed == 0,
        "errors": errors,
        "digest": digests[0] if len(digests) == 1 else None,
        "outputs_match_golden": golden_match(name, seed, digests),
        "e2e": {},
    }
    if good:
        columns = {
            "setup_s": [r["setup_s"] for r in good],
            "wall_s": [r["wall_s"] for r in good],
            "ops_per_s": [r["ops"] / r["wall_s"] for r in good],
            "peak_rss_mb": [r["peak_rss_mb"] for r in good],
        }
        summary["e2e"] = {m: describe(v, E2E_UNITS[m]) for m, v in columns.items()}
        summary["e2e"]["failed_share"] = describe(
            [failed / attempted], E2E_UNITS["failed_share"]
        )
    return summary


def golden_match(name: str, seed: int, digests: list) -> int | None:
    """1 when the set's digest is the committed one, 0 when not, None when
    no digest is committed for this workload and seed."""
    golden = json.loads(GOLDEN.read_text()).get(name, {}).get(str(seed))
    if golden is None:
        return None
    return int(digests == [golden])


def layer_table(traced: dict, untraced_wall_s: float) -> dict[str, tuple[float, str]]:
    """Per-layer metrics of one traced run, by name: (value, unit).

    Every self time in seconds also appears as ``..._pct``, its share of
    the traced run's measured time (set-up plus run).
    """
    functions = traced["functions"]
    counts = traced["counts"]

    def pick(layer: str, key: str) -> float:
        return sum(f[key] for f in functions.values() if f["layer"] == layer)

    def histograms(*names: str) -> list[dict]:
        return [functions[n]["histogram"] for n in names if n in functions]

    routes = [n for n, f in functions.items() if f["layer"] == "router"]
    requests = counts.get("requests", 0)
    iterations = counts.get("iterations", 0)
    prefixed = counts.get("prefix_requests", 0)
    table: dict[str, tuple[float, str]] = {
        "scenarios.build_s": (pick("scenarios", "self_s"), "s"),
        "kernel.calls": (pick("kernel", "calls"), "count"),
        "kernel.self_s": (pick("kernel", "self_s"), "s"),
        "kernel.grid_calls": (functions["StepCostKernel.evaluate_grid"]["calls"], "count"),
        "engine.steps": (functions["EngineRun.step"]["calls"], "count"),
        "engine.self_s": (pick("engine", "self_s"), "s"),
        "engine.step_p50_us": (layers.percentile_us(histograms("EngineRun.step"), 50), "us"),
        "engine.step_p99_us": (layers.percentile_us(histograms("EngineRun.step"), 99), "us"),
        "engine.steps_per_request": (iterations / requests if requests else 0.0, "ratio"),
        "engine.decode_steps_per_step": (
            counts.get("decode_steps", 0) / iterations if iterations else 0.0,
            "ratio",
        ),
        "scheduler.calls": (pick("scheduler", "calls"), "count"),
        "scheduler.self_s": (pick("scheduler", "self_s"), "s"),
        "scheduler.preemptions": (counts.get("preemptions", 0), "count"),
        "soa.calls": (pick("soa", "calls"), "count"),
        "soa.self_s": (pick("soa", "self_s"), "s"),
        "router.calls": (pick("router", "calls"), "count"),
        "router.self_s": (pick("router", "self_s"), "s"),
        "router.route_p99_us": (layers.percentile_us(histograms(*routes), 99), "us"),
        "router.prefix_hit_share": (
            counts.get("prefix_hits", 0) / prefixed if prefixed else 0.0,
            "ratio",
        ),
        "cluster.self_s": (pick("cluster", "self_s"), "s"),
        "obs.metrics.calls": (pick("obs.metrics", "calls"), "count"),
        "obs.metrics.self_s": (pick("obs.metrics", "self_s"), "s"),
        "obs.telemetry.calls": (pick("obs.telemetry", "calls"), "count"),
        "obs.telemetry.self_s": (pick("obs.telemetry", "self_s"), "s"),
        "obs.profiler.calls": (pick("obs.profiler", "calls"), "count"),
        "obs.profiler.self_s": (pick("obs.profiler", "self_s"), "s"),
        "optimize.screen_self_s": (pick("optimize.screen", "self_s"), "s"),
        "optimize.pareto_self_s": (pick("optimize.pareto", "self_s"), "s"),
        "export.self_s": (pick("export", "self_s"), "s"),
        "export.bytes": (traced["payload_bytes"], "bytes"),
        "trace.overhead_x": (traced["wall_s"] / untraced_wall_s, "x"),
    }
    measured = traced["setup_s"] + traced["wall_s"]
    with_shares: dict[str, tuple[float, str]] = {}
    for name, (value, unit) in table.items():
        with_shares[name] = (value, unit)
        if unit == "s":
            with_shares[name[: -len("_s")] + "_pct"] = (100.0 * value / measured, "%")
    return with_shares


def run_context() -> dict:
    """Where and on what the set ran; recorded, never gated."""
    sha = "unknown"
    if (ROOT / ".git").exists():
        try:
            sha = subprocess.run(
                ["git", "rev-parse", "HEAD"],
                capture_output=True, text=True, cwd=ROOT, timeout=30, check=True,
            ).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            pass
    src_lines = 0
    for path in sorted(SRC.rglob("*.py")):
        with path.open(encoding="utf-8") as fh:
            src_lines += sum(1 for _ in fh)
    return {
        "git_sha": sha,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "src_lines": src_lines,
        "calibration_s": calibrate(),
    }


def calibrate() -> float:
    """A fixed pure-Python plus numpy loop; its time lets other machines
    scale this one's numbers."""
    start = time.perf_counter()
    acc = 0
    for i in range(1_000_000):
        acc += i * i % 7
    values = numpy.arange(200_000, dtype=numpy.float64)
    for _ in range(20):
        acc += int(numpy.sort(numpy.sin(values))[0])
    return time.perf_counter() - start


def measure_for(name: str, seed: int, seconds: float, deadline: float) -> list[dict]:
    """Untraced runs until the next one would end past ``seconds``
    (at least ``MIN_RUNS``), never past ``deadline``."""
    runs: list[dict] = []
    start = time.perf_counter()
    while True:
        run = run_child(name, seed, timeout=max(1.0, deadline - time.perf_counter()))
        runs.append(run)
        if "crashed" in run:
            return runs
        now = time.perf_counter()
        last = run["elapsed_s"]
        if len(runs) >= MIN_RUNS and now - start + last > seconds:
            return runs
        if now + last > deadline:
            return runs


def print_summary(summary: dict) -> None:
    golden = summary["outputs_match_golden"]
    print(
        f"{summary['workload']}  seed {summary['seed']}  "
        f"digest {str(summary['digest'])[:12]}  "
        f"outputs_match_golden {'-' if golden is None else golden}  "
        f"correct {'yes' if summary['correct'] else 'NO'}"
    )
    for name, stats in summary["e2e"].items():
        print(
            f"  {name:<13}{stats['median']:>14.6g} {stats['unit']:<6}"
            f"[{stats['q1']:.6g}, {stats['q3']:.6g}]  n={stats['n']}"
        )
    for error in summary["errors"]:
        print(f"  ERROR {error}")


def print_layer_table(tables: dict[str, dict]) -> None:
    names = list(tables)
    rows = next(iter(tables.values()))
    print("per-layer (traced pass, one run per workload)")
    print(f"{'metric':<32}{'unit':<7}" + "".join(f"{n[:19]:>21}" for n in names))
    for metric, (_, unit) in rows.items():
        cells = "".join(f"{tables[n][metric][0]:>21.6g}" for n in names)
        print(f"{metric:<32}{unit:<7}{cells}")


def print_context(context: dict) -> None:
    print("context: " + "  ".join(f"{k} {v}" for k, v in context.items()))


def result_line(summary: dict, table: dict | None, trace: bool) -> str:
    """The final JSON line, with exactly the metrics BENCHMARK.json names
    (end-to-end, or per-layer with ``trace``), or none when a crash left
    nothing to report them from."""
    spec = json.loads(SPEC.read_text())
    metrics = {}
    if table if trace else summary["e2e"]:
        for entry in spec["per_layer" if trace else "end_to_end"]:
            if trace:
                value, unit = table[entry["name"]]
            else:
                stats = summary["e2e"][entry["name"]]
                value, unit = stats["median"], stats["unit"]
            if unit != entry["unit"]:
                raise ValueError(f"{entry['name']}: unit differs from BENCHMARK.json")
            metrics[entry["name"]] = {"value": value, "unit": unit}
    return json.dumps(
        {
            "correct": summary["correct"],
            "attempted": summary["attempted"],
            "failed": summary["failed"],
            "metrics": metrics,
        }
    )


def timed_measurement(name: str, seed: int, seconds: float, trace: bool) -> int:
    """One workload for ``seconds``; ends with the JSON result line."""
    deadline = time.perf_counter() + DEADLINE_S
    print_context(run_context())
    traced = None
    if trace:
        traced = run_child(name, seed, traced=True, timeout=DEADLINE_S / 2)
    runs = measure_for(name, seed, seconds, deadline)
    summary = summarize(name, seed, runs, traced)
    print_summary(summary)
    table = None
    if traced is not None and "crashed" not in traced and summary["e2e"]:
        table = layer_table(traced, summary["e2e"]["wall_s"]["median"])
        print_layer_table({name: table})
    print(result_line(summary, table, trace))
    return 0 if summary["correct"] else 1


def full_set(names: list[str], seed: int, record: Path | None) -> int:
    """``ROUNDS`` interleaved rounds of every workload, then the traced pass."""
    context = run_context()
    print_context(context)
    runs: dict[str, list[dict]] = {n: [] for n in names}
    for _ in range(ROUNDS):
        for name in names:
            runs[name].append(run_child(name, seed))
    traced = {name: run_child(name, seed, traced=True) for name in names}
    summaries = {n: summarize(n, seed, runs[n], traced[n]) for n in names}
    for summary in summaries.values():
        print_summary(summary)
    tables = {
        n: layer_table(traced[n], summaries[n]["e2e"]["wall_s"]["median"])
        for n in names
        if "crashed" not in traced[n] and summaries[n]["e2e"]
    }
    if tables:
        print_layer_table(tables)
    if record is not None:
        for name in names:
            for function in traced[name].get("functions", {}).values():
                del function["histogram"]
            summaries[name]["runs"] = runs[name]
            summaries[name]["traced"] = traced[name]
            summaries[name]["layers"] = {m: v for m, (v, _) in tables.get(name, {}).items()}
        payload = {"context": context, "seed": seed, "rounds": ROUNDS, "workloads": summaries}
        record.parent.mkdir(parents=True, exist_ok=True)
        record.write_text(json.dumps(payload, indent=1, sort_keys=True) + "\n")
        print(f"wrote {record}")
    return 0 if all(s["correct"] for s in summaries.values()) else 1


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--workload", action="append", choices=sorted(workloads.WORKLOADS),
        help="run only this workload (repeatable; default all)",
    )
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--record", type=Path, help="write the full set's JSON record")
    parser.add_argument("--seconds", type=float, help="time-box one workload")
    parser.add_argument("--trace", type=int, choices=(0, 1),
                        help="with --seconds: report end-to-end (0) or per-layer (1)")
    args = parser.parse_args(argv)

    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"no program source at {SRC}", file=sys.stderr)
        return 2
    names = args.workload or list(workloads.WORKLOADS)
    if (args.seconds is None) != (args.trace is None):
        parser.error("--seconds and --trace go together")
    compile_sources()
    if args.seconds is not None:
        if len(names) != 1:
            parser.error("--seconds measures exactly one --workload")
        return timed_measurement(names[0], args.seed, args.seconds, bool(args.trace))
    return full_set(names, args.seed, args.record)


if __name__ == "__main__":
    sys.exit(main())
