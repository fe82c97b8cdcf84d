"""Frontier assembly and the ``OptimizationReport`` artifact.

Three frontiers, all exact non-dominated sets over the screened
configurations (minimization; maximized axes negated before extraction):

* ``cost_vs_slo`` — cost-per-token vs SLO headroom (maximize), over
  non-OOM configurations whose fleet fits ``max_replicas``;
* ``energy_vs_latency`` — joules-per-token vs end-to-end latency, over
  every non-OOM configuration;
* ``throughput_vs_perplexity`` — per-replica throughput (maximize) vs
  predicted perplexity (:mod:`repro.models.quality`), the paper's
  speed-vs-quality Fig. 10 axis pair.

The report serialises with :mod:`repro.core.jsonio`, so a double run
over the same space byte-diffs clean (CI's ``optimize`` job).
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

from repro.analysis.optimize.evaluate import (
    OBJECTIVES,
    RefinedCandidate,
    ScreenedConfig,
    ScreeningStats,
    best_config,
    refine,
    screen,
)
from repro.analysis.optimize.pareto import non_dominated_indices
from repro.analysis.optimize.space import SearchSpace
from repro.core.jsonio import dumps

__all__ = ["FRONTIER_NAMES", "OptimizationReport", "extract_frontiers", "optimize"]

# name -> (eligibility predicate, objective vector [minimization]).
_FRONTIER_SPECS = {
    "cost_vs_slo": (
        lambda c: not c.oom and c.feasible,
        lambda c: (c.cost_per_token_usd, -c.slo_headroom),
    ),
    "energy_vs_latency": (
        lambda c: not c.oom,
        lambda c: (c.energy_per_token_j, c.e2e_s),
    ),
    "throughput_vs_perplexity": (
        lambda c: not c.oom,
        lambda c: (-c.throughput_tokens_per_s, c.perplexity),
    ),
}

FRONTIER_NAMES = tuple(sorted(_FRONTIER_SPECS))


def extract_frontiers(
    configs: list[ScreenedConfig],
) -> dict[str, tuple[ScreenedConfig, ...]]:
    """Exact non-dominated set per frontier, sorted along the frontier.

    Output order is (objective vector, config key) ascending — walking a
    frontier left to right trades the first axis for the second — and the
    key tie-break keeps duplicate-objective configs in a fixed order.
    """
    frontiers: dict[str, tuple[ScreenedConfig, ...]] = {}
    for name in FRONTIER_NAMES:
        eligible_fn, objectives_fn = _FRONTIER_SPECS[name]
        eligible = [c for c in configs if eligible_fn(c)]
        points = [objectives_fn(c) for c in eligible]
        kept = non_dominated_indices(points)
        kept.sort(key=lambda i: (points[i], eligible[i].key))
        frontiers[name] = tuple(eligible[i] for i in kept)
    return frontiers


@dataclass(frozen=True)
class OptimizationReport:
    """Everything one optimizer run decided, as a plain-JSON value."""

    space: SearchSpace
    objective: str
    seed: int
    stats: ScreeningStats
    best: ScreenedConfig | None
    frontiers: dict[str, tuple[ScreenedConfig, ...]]
    refined: tuple[RefinedCandidate, ...]

    def to_json_dict(self) -> dict[str, object]:
        return {
            "space": self.space.to_json_dict(),
            "objective": self.objective,
            "seed": self.seed,
            "stats": self.stats.to_json_dict(),
            "best": None if self.best is None else self.best.to_json_dict(),
            "frontiers": {
                name: [c.to_json_dict() for c in members]
                for name, members in self.frontiers.items()
            },
            "refined": [r.to_json_dict() for r in self.refined],
        }

    def to_json(self) -> str:
        """Canonical byte representation (:func:`repro.core.jsonio.dumps`)."""
        return dumps(self.to_json_dict())

    def save(self, path: str | Path) -> Path:
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(self.to_json())
        return path

    def render(self) -> str:
        """Terminal summary: verdict line plus frontier sizes."""
        stats = self.stats
        lines = [
            f"screened {stats.configs_screened}/{stats.configs_nominal} configs "
            f"({stats.skipped_invalid} invalid, {stats.oom_lanes} OOM lanes)"
        ]
        if self.best is None:
            lines.append(
                f"no configuration meets the SLO within "
                f"{self.space.max_replicas} replicas"
            )
        else:
            best = self.best
            lines.append(
                f"best {self.objective}: {best.key} -> "
                f"{getattr(best, OBJECTIVES[self.objective]):.3e} "
                f"({best.replicas} replicas x {best.num_devices} devices)"
            )
        for name in FRONTIER_NAMES:
            lines.append(f"frontier {name}: {len(self.frontiers[name])} points")
        if self.refined:
            lines.append(f"refined {len(self.refined)} candidate(s) via DES")
        return "\n".join(lines)


def optimize(
    space: SearchSpace,
    objective: str = "cost_per_token",
    refine_top: int = 0,
    seed: int = 0,
    refine_num_requests: int = 24,
) -> OptimizationReport:
    """Run the full pipeline: screen, extract frontiers, optionally refine.

    ``refine_top=0`` (the default) stays analytic — the shape used by
    benchmarks and the determinism gate.  With ``refine_top=k`` the best
    ``k`` distinct deployments by ``objective`` additionally run through
    the discrete-event capacity planner per router in the space.
    """
    if objective not in OBJECTIVES:
        known = ", ".join(sorted(OBJECTIVES))
        raise KeyError(f"unknown objective {objective!r} (known: {known})")
    configs, stats = screen(space)
    frontiers = extract_frontiers(configs)
    best = best_config(configs, objective)
    refined = tuple(
        refine(
            space,
            configs,
            top_k=refine_top,
            objective=objective,
            seed=seed,
            num_requests=refine_num_requests,
        )
    )
    return OptimizationReport(
        space=space,
        objective=objective,
        seed=seed,
        stats=stats,
        best=best,
        frontiers=frontiers,
        refined=refined,
    )
