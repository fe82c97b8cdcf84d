"""The built-in scenario catalog.

Seven production traffic shapes covering the combinations the ROADMAP
calls for: chat with multi-turn KV reuse, long-context RAG, bursty code
completion, agentic tool loops, a diurnal daily cycle, a flash crowd for
autoscaler stimulus, and a multi-tenant mix with per-tenant SLOs.  Sizes
are deliberately small (tens of sessions) so `scenario run`, tests, and
CI stay fast; scale any of them up with
:meth:`repro.scenarios.Scenario.with_sessions`.

Register custom scenarios with :func:`register_scenario`; names are the
lookup key everywhere (CLI, ``WorkloadSpec.scenario``, dashboards).
"""

from __future__ import annotations

from repro.core import UnknownNameError
from repro.scenarios.arrival import (
    BurstArrivals,
    ConstantArrivals,
    DiurnalArrivals,
    FlashCrowdArrivals,
    PoissonArrivals,
)
from repro.scenarios.lengths import (
    LognormalLengths,
    agentic_tool_turns,
    code_completion,
    long_context_rag,
    sharegpt_chat,
)
from repro.scenarios.scenario import Scenario
from repro.scenarios.sessions import MultiTurnSessions, SingleShot
from repro.scenarios.tenants import TenantSpec

__all__ = [
    "SCENARIOS",
    "register_scenario",
    "get_scenario",
    "list_scenarios",
]

SCENARIOS: dict[str, Scenario] = {}


def register_scenario(scenario: Scenario) -> Scenario:
    """Add a scenario to the registry (its name must be unused)."""
    if scenario.name in SCENARIOS:
        raise ValueError(f"scenario {scenario.name!r} is already registered")
    SCENARIOS[scenario.name] = scenario
    return scenario


def get_scenario(name: str) -> Scenario:
    """Look up a registered scenario by name."""
    try:
        return SCENARIOS[name]
    except KeyError:
        known = ", ".join(sorted(SCENARIOS))
        raise UnknownNameError(f"unknown scenario {name!r} (known: {known})") from None


def list_scenarios() -> list[Scenario]:
    """All registered scenarios, sorted by name."""
    return [SCENARIOS[name] for name in sorted(SCENARIOS)]


register_scenario(
    Scenario(
        name="chat-sharegpt",
        description=(
            "ShareGPT-shaped chat: Poisson session opens, heavy-tailed "
            "turn lengths, ~4-turn conversations reusing session KV."
        ),
        arrival=PoissonArrivals(rate_rps=1.5),
        lengths=sharegpt_chat(),
        sessions=MultiTurnSessions(mean_turns=4.0, max_turns=12),
        num_sessions=24,
    )
)

register_scenario(
    Scenario(
        name="rag-long-context",
        description=(
            "Long-context RAG: single-shot retrieval-stuffed prompts "
            "(~3.6k tokens) with terse answers, a 20% bare-question mode."
        ),
        arrival=PoissonArrivals(rate_rps=1.0),
        lengths=long_context_rag(),
        sessions=SingleShot(),
        num_sessions=32,
    )
)

register_scenario(
    Scenario(
        name="code-completion",
        description=(
            "IDE code completion: keystroke-driven bursts of large-context "
            "prompts with short suggestions, no session reuse."
        ),
        arrival=BurstArrivals(
            base_rps=1.0, burst_factor=6.0, period_s=15.0, burst_fraction=0.2
        ),
        lengths=code_completion(),
        sessions=SingleShot(),
        num_sessions=40,
    )
)

register_scenario(
    Scenario(
        name="agentic-tools",
        description=(
            "Agentic tool loops: long conversations of many short turns "
            "with sub-second think time, maximal KV-reuse pressure."
        ),
        arrival=PoissonArrivals(rate_rps=0.8),
        lengths=agentic_tool_turns(),
        sessions=MultiTurnSessions(
            mean_turns=10.0,
            max_turns=24,
            think_time_mean_s=0.5,
            response_pacing_s_per_token=0.01,
        ),
        num_sessions=12,
    )
)

register_scenario(
    Scenario(
        name="diurnal-chat",
        description=(
            "A compressed day of chat traffic: sinusoidal trough-to-peak "
            "arrivals over a 120 s simulated cycle, 3-turn conversations."
        ),
        arrival=DiurnalArrivals(trough_rps=0.5, peak_rps=4.0, period_s=120.0),
        lengths=sharegpt_chat(),
        sessions=MultiTurnSessions(mean_turns=3.0, max_turns=8),
        num_sessions=24,
    )
)

register_scenario(
    Scenario(
        name="flash-crowd",
        description=(
            "A launch spike: baseline traffic ramping 8x at t=20 s, holding, "
            "then decaying — the canonical autoscaler scale-up stimulus."
        ),
        arrival=FlashCrowdArrivals(
            base_rps=0.8,
            flash_at_s=20.0,
            flash_factor=8.0,
            ramp_s=2.0,
            hold_s=15.0,
            decay_s=10.0,
        ),
        lengths=LognormalLengths(mean_input_tokens=400.0, mean_output_tokens=160.0),
        sessions=SingleShot(),
        num_sessions=48,
    )
)

register_scenario(
    Scenario(
        name="multi-tenant-prod",
        description=(
            "A production mix of three SLO classes: interactive chat "
            "(tight TTFT), a standard API tier, and a lax batch lane."
        ),
        arrival=ConstantArrivals(rate_rps=2.0),
        lengths=sharegpt_chat(),
        sessions=MultiTurnSessions(mean_turns=2.0, max_turns=6),
        tenants=(
            TenantSpec(name="interactive", weight=3.0, slo_ttft_s=0.8, slo_itl_s=0.06),
            TenantSpec(name="standard", weight=2.0, slo_ttft_s=1.5, slo_itl_s=1 / 12),
            TenantSpec(name="batch", weight=1.0, slo_ttft_s=10.0, slo_itl_s=0.5),
        ),
        num_sessions=30,
    )
)
