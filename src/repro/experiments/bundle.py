"""Experiment bundles: frozen, self-describing, replayable run archives.

A bundle is one JSON document holding everything a replicated experiment
was and produced: the :class:`~repro.experiments.spec.ExperimentSpec`
(deployment, workload recipe, seeds), every per-seed result (flat
metrics, the full :class:`~repro.obs.metrics.MetricsSnapshot`, the
optional :class:`~repro.obs.profiler.ProfileReport`), and the metric
summaries with their interval method.  Because the spec is a recipe
rather than a recording, a loaded bundle can *re-execute*:
:func:`replay` rebuilds the workloads from the stored seeds and runs
them again, and :func:`verify_replay` checks the fresh per-seed results
against the stored ones byte-for-byte — the generalization of the CI
chaos/profile determinism jobs to whole experiments.

Serialization follows :mod:`repro.core.jsonio`: two saves of the same
bundle are file-identical.
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass

from repro.core.jsonio import dumps, write_json
from repro.experiments.diff import json_differences
from repro.experiments.runner import (
    ReplicationReport,
    SeedResult,
    reduce_seed_results,
    run_seed,
)
from repro.experiments.spec import ExperimentSpec
from repro.experiments.stats import DEFAULT_CONFIDENCE

__all__ = [
    "BUNDLE_VERSION",
    "ExperimentBundle",
    "bundle_replication",
    "replay",
    "verify_replay",
]

#: Bundle format version; bump on any incompatible JSON layout change.
BUNDLE_VERSION = 1

#: Differing fields a replay mismatch names per seed.
_FIELDS_SHOWN = 3


@dataclass(frozen=True)
class ExperimentBundle:
    """A replicated experiment frozen to plain JSON."""

    spec: ExperimentSpec
    seed_results: tuple[SeedResult, ...]
    confidence: float = DEFAULT_CONFIDENCE
    method: str = "t"  # interval method the summaries were built with
    version: int = BUNDLE_VERSION

    def __post_init__(self) -> None:
        stored = tuple(sr.seed for sr in self.seed_results)
        if stored != self.spec.seeds:
            raise ValueError(
                f"bundle seed results {stored} do not match spec seeds "
                f"{self.spec.seeds}"
            )

    # ------------------------------------------------------------------

    def report(self) -> ReplicationReport:
        """Re-reduce the stored per-seed results into a report.

        The reduction is deterministic, so summaries are derived on
        demand instead of being a second source of truth in the file.
        """
        return reduce_seed_results(
            self.spec, self.seed_results, self.confidence, self.method
        )

    def to_json_dict(self) -> dict[str, object]:
        report = self.report()
        return {
            "bundle_version": self.version,
            "spec": self.spec.to_json_dict(),
            "confidence": self.confidence,
            "method": self.method,
            "seed_results": [sr.to_json_dict() for sr in self.seed_results],
            "summaries": {
                name: summary.to_json_dict()
                for name, summary in sorted(report.summaries.items())
            },
        }

    @classmethod
    def from_json_dict(cls, payload: dict[str, object]) -> "ExperimentBundle":
        version = int(payload.get("bundle_version", 0))  # type: ignore[arg-type]
        if version != BUNDLE_VERSION:
            raise ValueError(
                f"unsupported bundle version {version} "
                f"(this build reads version {BUNDLE_VERSION})"
            )
        return cls(
            spec=ExperimentSpec.from_json_dict(dict(payload["spec"])),  # type: ignore[arg-type]
            seed_results=tuple(
                SeedResult.from_json_dict(sr)
                for sr in payload["seed_results"]  # type: ignore[union-attr]
            ),
            confidence=float(payload["confidence"]),  # type: ignore[arg-type]
            method=str(payload["method"]),
            version=version,
        )

    def save(self, path: str) -> None:
        write_json(path, self.to_json_dict())

    @classmethod
    def load(cls, path: str) -> "ExperimentBundle":
        with open(path, encoding="utf-8") as fh:
            return cls.from_json_dict(json.load(fh))


def bundle_replication(report: ReplicationReport) -> ExperimentBundle:
    """Freeze an executed replication into a bundle."""
    return ExperimentBundle(
        spec=report.spec,
        seed_results=report.seed_results,
        confidence=report.confidence,
        method=report.method,
    )


def replay(bundle: ExperimentBundle) -> ExperimentBundle:
    """Re-execute a bundle's spec under its stored seeds.

    Returns a *fresh* bundle from the re-run; the caller decides whether
    to compare (:func:`verify_replay`) or overwrite.  The simulator is
    seed-deterministic, so on the same build the result is byte-identical
    to the original — any divergence means the code's behavior changed
    since the bundle was written, which is exactly what the CI
    determinism job exists to catch.
    """
    seed_results = tuple(run_seed(bundle.spec, seed) for seed in bundle.spec.seeds)
    return ExperimentBundle(
        spec=bundle.spec,
        seed_results=seed_results,
        confidence=bundle.confidence,
        method=bundle.method,
    )


def verify_replay(
    bundle: ExperimentBundle, replayed: ExperimentBundle | None = None
) -> tuple[bool, list[str]]:
    """Replay ``bundle`` and byte-compare per-seed results.

    Returns ``(ok, mismatches)`` with one line per seed whose replayed
    JSON differs from the stored one.  The line names the first three
    differing fields with both values (and the ulp distance of two
    floats), then how many more differ.  Pass ``replayed`` to verify an
    already-executed replay instead of running one here.
    """
    if replayed is None:
        replayed = replay(bundle)
    mismatches = []
    for original, fresh in zip(bundle.seed_results, replayed.seed_results):
        stored, again = original.to_json_dict(), fresh.to_json_dict()
        if dumps(stored) == dumps(again):
            continue
        differences = json_differences(stored, again)
        shown = [str(d) for d in itertools.islice(differences, _FIELDS_SHOWN)]
        more = sum(1 for _ in differences)
        line = f"seed {original.seed}: replayed result differs at {'; '.join(shown)}"
        if more:
            line += f"; and {more} more"
        mismatches.append(line)
    return (not mismatches, mismatches)
