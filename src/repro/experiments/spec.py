"""Self-describing experiment specifications.

An :class:`ExperimentSpec` freezes *everything* a seeded run depends on —
deployment names, quantization, workload shape, execution mode, fleet
size, SLO bounds and the seed list — into a plain-JSON value.  That is
the contract the bundle format (:mod:`repro.experiments.bundle`) and the
``experiment replay`` CLI verb rely on: a spec loaded from disk must
rebuild byte-identical workloads and run configurations, with no hidden
state left in the process that created it.

Workloads are referenced by generator *kind* plus parameters rather than
by materialized request lists: requests carry mutable runtime state
(admit/finish timestamps), so bundles store the recipe and rebuild fresh
:class:`~repro.core.request.GenerationRequest` objects per seed instead.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field, replace

from repro.core.jsonio import write_json
from repro.core.request import GenerationRequest
from repro.perf.quantization import (
    FP8_SCHEME,
    FP16_SCHEME,
    INT8_SCHEME,
    QuantizationScheme,
)
from repro.runtime.workload import (
    fixed_batch_trace,
    open_loop_trace,
    poisson_trace,
    shared_prefix_trace,
)

__all__ = ["WorkloadSpec", "ExperimentSpec", "QUANT_SCHEMES"]

#: Quantization schemes addressable by spec label.  ``None``/"fp16" is
#: the unquantized baseline.
QUANT_SCHEMES: dict[str, QuantizationScheme] = {
    "fp16": FP16_SCHEME,
    "fp8": FP8_SCHEME,
    "int8": INT8_SCHEME,
}

_WORKLOAD_KINDS = ("fixed", "poisson", "open_loop", "shared_prefix", "scenario")
_MODES = ("engine", "cluster")


@dataclass(frozen=True)
class WorkloadSpec:
    """A workload *recipe*: generator kind plus its parameters.

    ``build(seed)`` returns a fresh request list; the same (spec, seed)
    pair always produces the same trace.  Note ``fixed`` ignores the seed
    entirely (the paper's benchmark shape is deterministic), so
    replications of a fixed workload have zero cross-seed variance — the
    stats layer treats that as a constant sample, not an error.

    ``kind="scenario"`` delegates to a named catalog entry from
    :mod:`repro.scenarios` (``scenario`` field); the registry's scenario
    definition plus the seed fully determine the trace, and the other
    shape parameters are ignored.
    """

    kind: str = "open_loop"
    num_requests: int = 32
    input_tokens: int = 256  # mean input for open_loop, unique for shared_prefix
    output_tokens: int = 128
    rate_rps: float = 4.0  # arrival rate for the open-loop kinds
    num_prefixes: int = 4  # shared_prefix only
    prefix_tokens: int = 256  # shared_prefix only
    scenario: str | None = None  # scenario kind only: catalog name

    def __post_init__(self) -> None:
        if self.kind not in _WORKLOAD_KINDS:
            known = ", ".join(_WORKLOAD_KINDS)
            raise ValueError(f"unknown workload kind {self.kind!r} (known: {known})")
        if self.kind == "scenario":
            if not self.scenario:
                raise ValueError("kind='scenario' requires a scenario name")
            from repro.scenarios import get_scenario

            get_scenario(self.scenario)  # fail fast on unknown names
            return
        if self.num_requests < 1:
            raise ValueError(f"num_requests must be >= 1, got {self.num_requests}")
        if self.input_tokens < 1 or self.output_tokens < 1:
            raise ValueError("input_tokens and output_tokens must be >= 1")
        if self.kind != "fixed" and self.rate_rps <= 0:
            raise ValueError(f"rate_rps must be positive, got {self.rate_rps}")

    def tenant_slos(self) -> dict[str, object]:
        """Per-tenant SLOs of a scenario workload (empty otherwise)."""
        if self.kind != "scenario":
            return {}
        from repro.scenarios import get_scenario

        return get_scenario(self.scenario).tenant_slos()  # type: ignore[arg-type]

    def build(self, seed: int) -> list[GenerationRequest]:
        if self.kind == "scenario":
            from repro.scenarios import get_scenario

            return get_scenario(self.scenario).build(seed)  # type: ignore[arg-type]
        if self.kind == "fixed":
            return fixed_batch_trace(
                self.num_requests, self.input_tokens, self.output_tokens
            )
        if self.kind == "poisson":
            return poisson_trace(
                self.num_requests,
                self.rate_rps,
                self.input_tokens,
                self.output_tokens,
                seed=seed,
            )
        if self.kind == "open_loop":
            return open_loop_trace(
                self.num_requests,
                self.rate_rps,
                self.input_tokens,
                self.output_tokens,
                seed=seed,
            )
        return shared_prefix_trace(
            self.num_requests,
            self.rate_rps,
            self.num_prefixes,
            self.prefix_tokens,
            self.input_tokens,
            self.output_tokens,
            seed=seed,
        )

    def to_json_dict(self) -> dict[str, object]:
        return asdict(self)

    @classmethod
    def from_json_dict(cls, payload: dict[str, object]) -> "WorkloadSpec":
        return cls(**payload)  # type: ignore[arg-type]


@dataclass(frozen=True)
class ExperimentSpec:
    """Everything one replicated experiment depends on, JSON-frozen.

    Two specs that differ only in non-workload fields (``quant``,
    ``num_replicas``, ``router`` …) but share ``workload`` and ``seeds``
    are *paired*: their per-seed runs saw identical request sequences, so
    A/B comparisons can use the higher-power paired-by-seed test.
    """

    name: str
    model: str
    hardware: str
    framework: str
    workload: WorkloadSpec = field(default_factory=WorkloadSpec)
    seeds: tuple[int, ...] = (0, 1, 2, 3, 4)
    mode: str = "engine"  # "engine" (one replica) | "cluster" (fleet)
    quant: str | None = None  # QUANT_SCHEMES label; None = fp16 baseline
    max_concurrency: int = 32
    optimistic: bool = False
    profiled: bool = False  # attach a cost profile per seed (MFU/MBU/J-per-token)
    telemetry: bool = False  # attach a streaming telemetry snapshot per seed
    num_replicas: int = 2  # cluster mode only
    router: str = "least-outstanding"  # cluster mode only
    slo_ttft_s: float = 1.5
    slo_itl_s: float = 1.0 / 12.0

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("experiment name must be non-empty")
        if self.mode not in _MODES:
            raise ValueError(f"unknown mode {self.mode!r} (known: {_MODES})")
        if not self.seeds:
            raise ValueError("seeds must be non-empty")
        if len(set(self.seeds)) != len(self.seeds):
            raise ValueError(f"seeds contain duplicates: {self.seeds}")
        if self.quant is not None and self.quant not in QUANT_SCHEMES:
            known = ", ".join(sorted(QUANT_SCHEMES))
            raise ValueError(f"unknown quant {self.quant!r} (known: {known})")
        if self.max_concurrency < 1:
            raise ValueError("max_concurrency must be >= 1")
        if self.mode == "cluster" and self.num_replicas < 1:
            raise ValueError("num_replicas must be >= 1")
        object.__setattr__(self, "seeds", tuple(int(s) for s in self.seeds))

    # ------------------------------------------------------------------

    @property
    def quant_scheme(self) -> QuantizationScheme | None:
        if self.quant is None or self.quant == "fp16":
            return None  # fp16 is the deployment default; avoid a no-op wrap
        return QUANT_SCHEMES[self.quant]

    def paired_with(self, other: "ExperimentSpec") -> bool:
        """True when per-seed results of self/other form matched pairs."""
        return self.workload == other.workload and self.seeds == other.seeds

    def with_name(self, name: str) -> "ExperimentSpec":
        return replace(self, name=name)

    # ------------------------------------------------------------------

    def to_json_dict(self) -> dict[str, object]:
        payload = asdict(self)
        payload["workload"] = self.workload.to_json_dict()
        payload["seeds"] = list(self.seeds)
        return payload

    @classmethod
    def from_json_dict(cls, payload: dict[str, object]) -> "ExperimentSpec":
        data = dict(payload)
        data["workload"] = WorkloadSpec.from_json_dict(dict(data["workload"]))
        data["seeds"] = tuple(data["seeds"])
        return cls(**data)  # type: ignore[arg-type]

    def save(self, path: str) -> None:
        write_json(path, self.to_json_dict())

    @classmethod
    def load(cls, path: str) -> "ExperimentSpec":
        with open(path, encoding="utf-8") as fh:
            return cls.from_json_dict(json.load(fh))
