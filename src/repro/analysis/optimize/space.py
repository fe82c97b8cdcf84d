"""Declarative deployment search spaces for the what-if optimizer.

A :class:`SearchSpace` names *axes* — registry labels for models,
hardware, frameworks, quantization schemes, tensor-parallel degrees and
batch sizes, plus one workload shape and one SLO — and the optimizer
takes their cross product.  Validation is fail-fast and happens twice:

* **at construction** — every label must resolve in its registry
  (model/hardware/framework zoos, ``QUANT_SCHEMES``, ``ROUTER_NAMES``),
  no two labels on one axis may name the same entry (``"llama-2-7b"``
  and ``"LLaMA-2-7B"`` are one model), and every numeric axis must be
  positive, so a typo dies before any kernel work starts;
* **at enumeration** — combinations that are *individually* valid but
  jointly unsupported (Table III framework x hardware gaps, FP8 on
  non-FP8 silicon, TP degrees exceeding a node, MoE on non-MoE
  frameworks) are skipped and counted, reusing the exact rules
  :class:`~repro.perf.phases.Deployment` enforces — the optimizer never
  re-implements compatibility logic.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass, field
from typing import Any

from repro.cluster.router import ROUTER_NAMES
from repro.core import jsonio
from repro.experiments.spec import QUANT_SCHEMES
from repro.frameworks.base import get_framework
from repro.hardware.zoo import get_hardware
from repro.models.zoo import get_model
from repro.perf.parallelism import ParallelismPlan
from repro.perf.phases import Deployment
from repro.runtime.loadgen import ServiceLevelObjective

__all__ = ["DeploymentCandidate", "SearchSpace", "build_deployment"]


def build_deployment(
    model: str, hardware: str, framework: str, quant: str, tp: int
) -> Deployment:
    """Construct the (validated) deployment for one axis combination.

    Raises ``ValueError`` for unsupported combinations — callers decide
    whether that is fatal (direct use) or a skip (space enumeration).
    """
    return Deployment(
        get_model(model),
        get_hardware(hardware),
        get_framework(framework),
        plan=ParallelismPlan(tp=tp),
        quant=QUANT_SCHEMES[quant],
    )


def _reject_repeats(
    axis: str, labels: tuple, resolve: Callable[[Any], object] = lambda x: x
) -> None:
    """Fail when two labels on one axis resolve to the same entry.

    A repeated lane would be screened once per copy and fill the
    frontiers with duplicates.  Labels themselves are kept as given —
    report keys use them.
    """
    seen: dict[object, object] = {}
    for label in labels:
        entry = resolve(label)
        if entry in seen:
            raise ValueError(
                f"search space axis {axis!r} labels must be unique: "
                f"{seen[entry]!r} and {label!r} name the same entry"
            )
        seen[entry] = label


@dataclass(frozen=True)
class DeploymentCandidate:
    """One valid point on the deployment axes (batch not yet bound)."""

    model: str
    hardware: str
    framework: str
    quant: str
    tp: int
    deployment: Deployment = field(compare=False)

    @property
    def key(self) -> str:
        return f"{self.model}/{self.hardware}/{self.framework}/{self.quant}/tp{self.tp}"


@dataclass(frozen=True)
class SearchSpace:
    """The deployment cross product the optimizer searches.

    Axis order is load-bearing: enumeration walks the declared tuples in
    nested order (models, hardware, frameworks, quant, tp, batch), which
    fixes candidate ordering and therefore every downstream tie-break —
    the root of the optimizer's byte-determinism.
    """

    models: tuple[str, ...]
    hardware: tuple[str, ...]
    frameworks: tuple[str, ...]
    quant_schemes: tuple[str, ...] = ("fp16",)
    tensor_parallel: tuple[int, ...] = (1,)
    batch_sizes: tuple[int, ...] = (1, 8, 16, 32)
    routers: tuple[str, ...] = ("least-outstanding",)
    input_tokens: int = 512
    output_tokens: int = 256
    target_rate_rps: float = 4.0
    max_replicas: int = 16
    slo: ServiceLevelObjective = field(default_factory=ServiceLevelObjective)

    def __post_init__(self) -> None:
        for axis in (
            "models",
            "hardware",
            "frameworks",
            "quant_schemes",
            "tensor_parallel",
            "batch_sizes",
            "routers",
        ):
            values = tuple(getattr(self, axis))
            if not values:
                raise ValueError(f"search space axis {axis!r} is empty")
            object.__setattr__(self, axis, values)
        _reject_repeats("models", self.models, lambda n: get_model(n).name)
        _reject_repeats("hardware", self.hardware, lambda n: get_hardware(n).name)
        _reject_repeats(
            "frameworks", self.frameworks, lambda n: get_framework(n).name
        )
        for label in self.quant_schemes:
            if label not in QUANT_SCHEMES:
                known = ", ".join(sorted(QUANT_SCHEMES))
                raise ValueError(
                    f"unknown quant scheme {label!r} (known: {known})"
                )
        for name in self.routers:
            if name not in ROUTER_NAMES:
                known = ", ".join(sorted(ROUTER_NAMES))
                raise ValueError(f"unknown router {name!r} (known: {known})")
        if any(tp < 1 for tp in self.tensor_parallel):
            raise ValueError("tensor_parallel degrees must be >= 1")
        if any(b < 1 for b in self.batch_sizes):
            raise ValueError("batch_sizes must be >= 1")
        for axis in ("quant_schemes", "tensor_parallel", "batch_sizes", "routers"):
            _reject_repeats(axis, getattr(self, axis))
        if self.input_tokens < 1 or self.output_tokens < 1:
            raise ValueError("input_tokens and output_tokens must be >= 1")
        if not self.target_rate_rps > 0:  # NaN (a JSON null) included
            raise ValueError(
                f"target_rate_rps must be positive, got {self.target_rate_rps}"
            )
        if self.max_replicas < 1:
            raise ValueError(f"max_replicas must be >= 1, got {self.max_replicas}")

    # ------------------------------------------------------------------

    @property
    def size(self) -> int:
        """Nominal configuration count (before compatibility skips)."""
        return (
            len(self.models)
            * len(self.hardware)
            * len(self.frameworks)
            * len(self.quant_schemes)
            * len(self.tensor_parallel)
            * len(self.batch_sizes)
        )

    def enumerate_deployments(self) -> tuple[list[DeploymentCandidate], int]:
        """All valid deployment-axis points, plus the skip count.

        Each skipped combination represents ``len(batch_sizes)``
        configurations that never reach the kernel.
        """
        candidates: list[DeploymentCandidate] = []
        skipped = 0
        for model in self.models:
            for hardware in self.hardware:
                for framework in self.frameworks:
                    for quant in self.quant_schemes:
                        for tp in self.tensor_parallel:
                            try:
                                dep = build_deployment(
                                    model, hardware, framework, quant, tp
                                )
                            except ValueError:
                                skipped += 1
                                continue
                            candidates.append(
                                DeploymentCandidate(
                                    model=model,
                                    hardware=hardware,
                                    framework=framework,
                                    quant=quant,
                                    tp=tp,
                                    deployment=dep,
                                )
                            )
        return candidates, skipped

    to_json_dict = jsonio.to_json_dict
    from_json_dict = classmethod(jsonio.from_json_dict)
