"""Experiment registry: one entry per table/figure the paper reports.

Every experiment is a named, self-contained reproduction that returns an
:class:`ExperimentResult`: the raw sweep table plus headline quantities
(ratios, orderings) paired with the paper's claimed values, so
EXPERIMENTS.md can be generated mechanically and benches can assert shape
fidelity.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass, field

from repro.bench.runner import BenchmarkRunner
from repro.core import UnknownNameError
from repro.core.results import ResultTable

__all__ = [
    "ExperimentResult",
    "Experiment",
    "EXPERIMENTS",
    "register_experiment",
    "get_experiment",
    "list_experiments",
    "run_experiment",
]


@dataclass
class ExperimentResult:
    """Outcome of one reproduction run."""

    experiment_id: str
    title: str
    table: ResultTable
    # Headline quantities: name -> (measured, paper-claimed or None).
    measured: dict[str, float] = field(default_factory=dict)
    paper: dict[str, float] = field(default_factory=dict)
    notes: str = ""

    def claim(self, name: str, measured: float, paper: float | None = None) -> None:
        self.measured[name] = measured
        if paper is not None:
            self.paper[name] = paper

    def summary_lines(self) -> list[str]:
        lines = [f"[{self.experiment_id}] {self.title}"]
        for name, value in self.measured.items():
            paper = self.paper.get(name)
            if paper is not None:
                lines.append(f"  {name}: measured {value:.3g} (paper {paper:.3g})")
            else:
                lines.append(f"  {name}: measured {value:.3g}")
        if self.notes:
            lines.append(f"  note: {self.notes}")
        return lines

    def render(self) -> str:
        return "\n".join(self.summary_lines())


@dataclass(frozen=True)
class Experiment:
    """A registered reproduction target."""

    id: str
    title: str
    section: str  # paper section/figure reference
    run: Callable[[BenchmarkRunner], ExperimentResult]
    tags: tuple[str, ...] = ()


EXPERIMENTS: dict[str, Experiment] = {}


def register_experiment(
    id: str, title: str, section: str, tags: tuple[str, ...] = ()
) -> Callable[[Callable[[BenchmarkRunner], ExperimentResult]], Experiment]:
    """Decorator registering a reproduction function under an id."""

    def decorator(fn: Callable[[BenchmarkRunner], ExperimentResult]) -> Experiment:
        if id in EXPERIMENTS:
            raise ValueError(f"experiment {id!r} already registered")
        experiment = Experiment(id=id, title=title, section=section, run=fn, tags=tags)
        EXPERIMENTS[id] = experiment
        return experiment

    return decorator


def get_experiment(experiment_id: str) -> Experiment:
    if experiment_id not in EXPERIMENTS:
        known = ", ".join(sorted(EXPERIMENTS))
        raise UnknownNameError(f"unknown experiment {experiment_id!r}; known: {known}")
    return EXPERIMENTS[experiment_id]


def list_experiments(tag: str | None = None) -> list[str]:
    if tag is None:
        return sorted(EXPERIMENTS)
    return sorted(e.id for e in EXPERIMENTS.values() if tag in e.tags)


def run_experiment(
    experiment_id: str, runner: BenchmarkRunner | None = None
) -> ExperimentResult:
    """Run one registered experiment (estimator-backed by default)."""
    experiment = get_experiment(experiment_id)
    return experiment.run(runner or BenchmarkRunner())
