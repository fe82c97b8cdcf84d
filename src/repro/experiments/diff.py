"""Profile diffing: component-by-component comparison of two cost profiles.

``diff_profiles(a, b)`` lines two :class:`~repro.obs.profiler.ProfileReport`
objects up metric-by-metric (MFU, MBU, tokens/s, joules-per-token, power,
busy/idle split) and phase-by-phase (each roofline component's share of
prefill and decode cost), reporting absolute and relative deltas plus any
dominant-bottleneck change — the "what did this config change actually
buy" view behind the ``experiment diff`` CLI verb.

Two single profiles are two point estimates, so a plain diff is
*descriptive*: the verdict says what moved, not whether it is signal.
``diff_replicated_profiles`` takes per-seed profile lists from two
replications and attaches a significance test per metric, upgrading the
verdict to "significant at p<alpha" / "not significant" — the PR-5
follow-on the paper's cross-accelerator tables need before a 7% MFU gap
can be called real.

``json_differences(a, b)`` walks two JSON payloads (such as a stored and
a replayed bundle seed result) and yields each differing leaf as its
path, both values and, for two floats, their distance in ulps, so a
last-ulp move reads differently from real drift.
"""

from __future__ import annotations

import json
import math
import struct
from collections.abc import Iterator
from dataclasses import dataclass
from typing import NamedTuple

from repro.core.jsonio import json_num
from repro.core.metrics import COMPONENT_FIELDS
from repro.core.stats import mean
from repro.experiments.stats import TestResult, paired_t_test, welch_t_test
from repro.obs.profiler import ProfileReport

__all__ = [
    "MetricDelta",
    "PhaseDiff",
    "ProfileDiff",
    "diff_profiles",
    "diff_replicated_profiles",
    "JsonDifference",
    "json_differences",
    "ulp_distance",
]

#: Scalar profile metrics diffed in emission order.
_DIFF_METRICS = (
    "mfu",
    "mbu",
    "tokens_per_s",
    "joules_per_token",
    "average_power_w",
    "total_time_s",
    "busy_s",
    "idle_s",
    "energy_j",
)

#: Relative change below which a metric is not worth flagging in the
#: verdict (0.5% — well inside seed noise for every simulator metric).
_VERDICT_REL_FLOOR = 0.005


@dataclass(frozen=True)
class MetricDelta:
    """One scalar metric's movement from profile A to profile B."""

    name: str
    a: float
    b: float
    test: TestResult | None = None  # attached by the replicated diff

    @property
    def delta(self) -> float:
        return self.b - self.a

    @property
    def rel(self) -> float:
        """Relative change of B vs A (NaN when A is zero or non-finite)."""
        if not (math.isfinite(self.a) and math.isfinite(self.b)) or self.a == 0.0:
            return float("nan")
        return self.delta / abs(self.a)

    def significant(self, alpha: float = 0.05) -> bool | None:
        """Tri-state: None when no test is attached (single profiles)."""
        if self.test is None:
            return None
        return self.test.significant(alpha)

    def to_json_dict(self) -> dict[str, object]:
        return {
            "name": self.name,
            "a": json_num(self.a),
            "b": json_num(self.b),
            "delta": json_num(self.delta),
            "rel": json_num(self.rel),
            "test": None if self.test is None else self.test.to_json_dict(),
        }


@dataclass(frozen=True)
class PhaseDiff:
    """One phase's cost-composition movement from A to B."""

    phase: str
    time_a_s: float
    time_b_s: float
    share_a: dict[str, float]  # component -> fraction of phase cost
    share_b: dict[str, float]
    dominant_a: str | None
    dominant_b: str | None

    @property
    def share_deltas(self) -> dict[str, float]:
        return {
            name: self.share_b.get(name, 0.0) - self.share_a.get(name, 0.0)
            for name in COMPONENT_FIELDS
        }

    @property
    def bottleneck_changed(self) -> bool:
        return self.dominant_a != self.dominant_b

    def to_json_dict(self) -> dict[str, object]:
        return {
            "phase": self.phase,
            "time_a_s": json_num(self.time_a_s),
            "time_b_s": json_num(self.time_b_s),
            "share_a": {k: json_num(v) for k, v in sorted(self.share_a.items())},
            "share_b": {k: json_num(v) for k, v in sorted(self.share_b.items())},
            "share_deltas": {
                k: json_num(v) for k, v in sorted(self.share_deltas.items())
            },
            "dominant_a": self.dominant_a,
            "dominant_b": self.dominant_b,
        }


@dataclass(frozen=True)
class ProfileDiff:
    """Full A-to-B profile comparison."""

    name_a: str
    name_b: str
    metrics: tuple[MetricDelta, ...]
    phases: tuple[PhaseDiff, ...]
    alpha: float = 0.05
    replicated: bool = False  # True when significance tests are attached

    def metric(self, name: str) -> MetricDelta:
        for delta in self.metrics:
            if delta.name == name:
                return delta
        raise KeyError(f"no metric {name!r} in diff")

    @property
    def verdict(self) -> str:
        """One-line judgement of the comparison.

        Replicated diffs speak statistically ("significant at p<0.05");
        single-profile diffs are explicitly descriptive — they cannot
        distinguish a real effect from seed noise.
        """
        moved = [
            d
            for d in self.metrics
            if math.isfinite(d.rel) and abs(d.rel) > _VERDICT_REL_FLOOR
        ]
        flips = [p for p in self.phases if p.bottleneck_changed]
        parts: list[str] = []
        if not moved and not flips:
            parts.append(f"{self.name_b} matches {self.name_a}")
        else:
            lead = max(moved, key=lambda d: abs(d.rel), default=None)
            if lead is not None:
                parts.append(
                    f"largest change: {lead.name} "
                    f"{lead.a:.4g} -> {lead.b:.4g} ({lead.rel:+.1%})"
                )
            for phase in flips:
                parts.append(
                    f"{phase.phase} bottleneck: "
                    f"{phase.dominant_a} -> {phase.dominant_b}"
                )
        if self.replicated:
            significant = [
                d.name for d in self.metrics if d.significant(self.alpha)
            ]
            if significant:
                parts.append(
                    f"significant at p<{self.alpha:g}: "
                    + ", ".join(sorted(significant))
                )
            else:
                parts.append(
                    f"no metric significant at p<{self.alpha:g}"
                )
        else:
            parts.append("descriptive only (single profiles, no replication)")
        return "; ".join(parts)

    def to_json_dict(self) -> dict[str, object]:
        return {
            "name_a": self.name_a,
            "name_b": self.name_b,
            "alpha": self.alpha,
            "replicated": self.replicated,
            "verdict": self.verdict,
            "metrics": [d.to_json_dict() for d in self.metrics],
            "phases": [p.to_json_dict() for p in self.phases],
        }

    def render(self) -> str:
        lines = [f"profile diff: {self.name_a} vs {self.name_b}"]
        header = f"{'metric':<20}{'A':>12}{'B':>12}{'delta':>12}{'rel':>9}"
        if self.replicated:
            header += f"{'p':>10}{'sig':>5}"
        lines.append(header)
        for d in self.metrics:
            row = (
                f"{d.name:<20}{d.a:>12.4g}{d.b:>12.4g}"
                f"{d.delta:>+12.4g}"
                + (f"{d.rel:>+9.1%}" if math.isfinite(d.rel) else f"{'-':>9}")
            )
            if self.replicated:
                p = d.test.p_value if d.test is not None else float("nan")
                row += f"{p:>10.3g}" if math.isfinite(p) else f"{'-':>10}"
                sig = d.significant(self.alpha)
                row += f"{'*' if sig else '':>5}"
            lines.append(row)
        for phase in self.phases:
            lines.append(
                f"phase {phase.phase}: "
                f"{phase.time_a_s:.4g}s -> {phase.time_b_s:.4g}s"
                + (
                    f" | bottleneck {phase.dominant_a} -> {phase.dominant_b}"
                    if phase.bottleneck_changed
                    else ""
                )
            )
            for name, delta in phase.share_deltas.items():
                if abs(delta) <= 1e-4:
                    continue
                lines.append(
                    f"  {name:<18}{phase.share_a.get(name, 0.0):>8.1%}"
                    f" -> {phase.share_b.get(name, 0.0):>7.1%}"
                    f" ({delta:+.1%})"
                )
        lines.append(f"verdict: {self.verdict}")
        return "\n".join(lines)


def _phase_diffs(a: ProfileReport, b: ProfileReport) -> tuple[PhaseDiff, ...]:
    phases_a = {p.phase: p for p in a.phases}
    phases_b = {p.phase: p for p in b.phases}
    diffs = []
    for name in sorted(set(phases_a) | set(phases_b)):
        pa, pb = phases_a.get(name), phases_b.get(name)
        diffs.append(
            PhaseDiff(
                phase=name,
                time_a_s=pa.time_s if pa is not None else 0.0,
                time_b_s=pb.time_s if pb is not None else 0.0,
                share_a=pa.components.fractions() if pa is not None else {},
                share_b=pb.components.fractions() if pb is not None else {},
                dominant_a=(
                    str(pa.dominant)
                    if pa is not None and pa.dominant is not None
                    else None
                ),
                dominant_b=(
                    str(pb.dominant)
                    if pb is not None and pb.dominant is not None
                    else None
                ),
            )
        )
    return tuple(diffs)


def diff_profiles(a: ProfileReport, b: ProfileReport) -> ProfileDiff:
    """Compare two single cost profiles component-by-component.

    The result is descriptive (see :class:`ProfileDiff.verdict`); feed
    per-seed profile lists to :func:`diff_replicated_profiles` for a
    significance-aware comparison.
    """
    metrics = tuple(
        MetricDelta(name, getattr(a, name), getattr(b, name))
        for name in _DIFF_METRICS
    )
    return ProfileDiff(
        name_a=a.name,
        name_b=b.name,
        metrics=metrics,
        phases=_phase_diffs(a, b),
    )


def diff_replicated_profiles(
    a_profiles: list[ProfileReport],
    b_profiles: list[ProfileReport],
    alpha: float = 0.05,
    paired: bool = False,
) -> ProfileDiff:
    """Diff two replicated profile sets with per-metric significance.

    Scalar deltas are taken between the per-seed *means*; each metric
    additionally carries a Welch's t (or paired-by-seed t when ``paired``
    — use it when both replications ran identical workload seeds) over
    the per-seed samples, and the verdict reports which deltas clear
    ``alpha``.  Phase composition is diffed on the first seed's profiles
    (composition shares are structural, not seed-noisy).
    """
    if not a_profiles or not b_profiles:
        raise ValueError("both profile lists must be non-empty")
    if paired and len(a_profiles) != len(b_profiles):
        raise ValueError(
            "paired diff needs equal-length profile lists, got "
            f"{len(a_profiles)} vs {len(b_profiles)}"
        )
    metrics = []
    for name in _DIFF_METRICS:
        samples_a = [getattr(p, name) for p in a_profiles]
        samples_b = [getattr(p, name) for p in b_profiles]
        mean_a = mean(s for s in samples_a if math.isfinite(s))
        mean_b = mean(s for s in samples_b if math.isfinite(s))
        test = (
            paired_t_test(samples_a, samples_b)
            if paired
            else welch_t_test(samples_a, samples_b)
        )
        metrics.append(MetricDelta(name, mean_a, mean_b, test=test))
    return ProfileDiff(
        name_a=a_profiles[0].name,
        name_b=b_profiles[0].name,
        metrics=tuple(metrics),
        phases=_phase_diffs(a_profiles[0], b_profiles[0]),
        alpha=alpha,
        replicated=True,
    )


# ----------------------------------------------------------------------
# JSON payload walk


def _ordered_bits(value: float) -> int:
    """``value``'s IEEE-754 bits as an integer that orders like the
    float (so adjacent doubles differ by one; both zeros map to 0)."""
    bits = struct.unpack("<q", struct.pack("<d", value))[0]
    return bits if bits >= 0 else -(bits & 0x7FFF_FFFF_FFFF_FFFF)


def ulp_distance(a: float, b: float) -> int:
    """How many representable doubles separate two finite floats."""
    return abs(_ordered_bits(a) - _ordered_bits(b))


def _brief(value: object) -> str:
    """A leaf's repr; an object or array only by its size."""
    if isinstance(value, dict):
        return f"{{{len(value)} keys}}"
    if isinstance(value, list):
        return f"[{len(value)} items]"
    return repr(value)


def _finite(value: object) -> bool:
    return type(value) in (int, float) and math.isfinite(value)


class JsonDifference(NamedTuple):
    """A differing leaf: its path, both values as text, the ulp distance
    of two floats and the relative move ``|b - a| / |a|`` of two numbers;
    ``str`` is ``"<path>: <a> -> <b> (<n> ulp)"``."""

    path: str
    a: str
    b: str
    ulp: int | None = None
    rel: float | None = None

    def __str__(self) -> str:
        line = f"{self.path}: {self.a} -> {self.b}"
        return line if self.ulp is None else f"{line} ({self.ulp} ulp)"


def json_differences(
    a: object, b: object, path: str = "$"
) -> Iterator[JsonDifference]:
    """Yield each leaf where two JSON payloads differ, in the sorted-key
    order of the canonical JSON text.

    Object keys extend the path as ``.key``, array positions as ``[i]``.
    Leaves differ when their JSON text does (so ``1`` and ``1.0``
    differ).
    """
    if isinstance(a, dict) and isinstance(b, dict):
        for key in sorted(a.keys() | b.keys()):
            sub = f"{path}.{key}"
            if key not in b:
                yield JsonDifference(sub, _brief(a[key]), "(absent)")
            elif key not in a:
                yield JsonDifference(sub, "(absent)", _brief(b[key]))
            else:
                yield from json_differences(a[key], b[key], sub)
        return
    if isinstance(a, list) and isinstance(b, list):
        if len(a) != len(b):
            yield JsonDifference(path, f"length {len(a)}", str(len(b)))
        for i, (x, y) in enumerate(zip(a, b)):
            yield from json_differences(x, y, f"{path}[{i}]")
        return
    if json.dumps(a) == json.dumps(b):
        return
    numbers = _finite(a) and _finite(b)
    yield JsonDifference(
        path,
        _brief(a),
        _brief(b),
        ulp_distance(a, b) if numbers and type(a) is type(b) is float else None,
        abs(b - a) / abs(a) if numbers and a else None,
    )
