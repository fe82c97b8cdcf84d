"""One run of one workload in a fresh process; prints one JSON line.

    python benchmarks/e2e/child.py --workload NAME --seed S [--tiny] [--traced]

``setup_s`` runs from this file's first statement, before ``repro`` is
imported, until the inputs are built and the simulator is constructed.
``wall_s`` runs from the first call into the program until the result
JSON is serialized.  The output checks run after that, untimed.  With
``--traced`` the layer wrappers of ``layers.py`` are installed before
set-up and removed before the checks, and the line carries the per-layer
aggregates.
"""

import time

T0 = time.perf_counter()

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parents[2]
SRC = ROOT / "src"


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--tiny", action="store_true", help="test-sized inputs")
    parser.add_argument("--traced", action="store_true", help="per-layer pass")
    args = parser.parse_args()

    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"no program source at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import repro

    if not Path(repro.__file__).resolve().is_relative_to(SRC):
        print(f"repro imported from {repro.__file__}, not {SRC}", file=sys.stderr)
        return 2
    import layers
    import workloads

    workload = workloads.WORKLOADS[args.workload]
    tracer = None
    if args.traced:
        tracer = layers.LayerTracer()
        tracer.install()
    record: dict[str, object] = {"workload": args.workload, "seed": args.seed}
    prepared = workload.prepare(args.seed, tiny=args.tiny)
    t1 = time.perf_counter()
    try:
        payload, result = prepared.execute()
    except Exception:  # a raising run fails all of its operations
        traceback.print_exc()
        payload, result = None, None
    t2 = time.perf_counter()
    if tracer is not None:
        record["restored"] = tracer.restore()
        record["functions"] = {
            name: stats.to_json_dict() for name, stats in tracer.stats.items()
        }
    if result is None:
        verdict = workloads.Verdict(prepared.ops, ["the run raised"])
    else:
        verdict = prepared.check(result)
    record.update(
        setup_s=t1 - T0,
        wall_s=t2 - t1,
        ops=prepared.ops,
        failed=verdict.failed,
        errors=verdict.errors,
        counts=verdict.counts,
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        digest=None if payload is None else hashlib.sha256(payload.encode()).hexdigest(),
        payload_bytes=0 if payload is None else len(payload.encode()),
    )
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
