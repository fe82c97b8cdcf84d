"""Scenario: a named, seed-deterministic composition of traffic parts.

A :class:`Scenario` binds an arrival process (when sessions open), a
length model (how big each turn is), a session model (how many turns a
conversation runs and their pacing), and an optional tenant mix (who the
traffic belongs to) into one buildable unit.  :meth:`Scenario.build`
expands it into the flat, arrival-sorted request trace the engine and
cluster simulators consume.

Multi-turn KV-reuse semantics: turn ``j`` of a session re-sends the full
conversation so far — its ``input_tokens`` are the accumulated context
(all prior prompts and answers) plus this turn's new text, and
``prefix_tokens`` marks the accumulated part.  All turns share
``prefix_id == session_id``, so a replica that still holds the session's
KV (bounded LRU, see :meth:`repro.cluster.simulator.Replica.touch_prefix`)
prefills only the new suffix.  Routing the whole session to one replica
(the ``session-affinity`` router) is what makes those hits happen.

Determinism: each component draws from its own child RNG spawned as
``np.random.default_rng([seed, lane])``, so adding tenants to a scenario
does not perturb its arrival times, and two builds with the same seed
are identical field-for-field.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from repro.core.request import GenerationRequest
from repro.runtime.loadgen import ServiceLevelObjective
from repro.scenarios.arrival import ArrivalProcess, arrival_from_json_dict
from repro.scenarios.lengths import LengthModel, length_from_json_dict
from repro.scenarios.sessions import SessionModel, session_from_json_dict
from repro.scenarios.tenants import (
    TenantSpec,
    assign_tenants,
    tenant_from_json_dict,
)

__all__ = ["Scenario", "trace_json_dicts"]

# RNG lanes: one independent child stream per stochastic component, so
# editing one component never shifts another's draws.
_LANE_ARRIVALS = 0
_LANE_TURNS = 1
_LANE_LENGTHS = 2
_LANE_TENANTS = 3
_LANE_PACING = 4


@dataclass(frozen=True)
class Scenario:
    """A named production traffic shape, buildable into a request trace."""

    name: str
    description: str
    arrival: ArrivalProcess
    lengths: LengthModel
    sessions: SessionModel
    tenants: tuple[TenantSpec, ...] = ()
    num_sessions: int = 32

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("scenario name must be non-empty")
        if self.num_sessions < 1:
            raise ValueError(f"num_sessions must be >= 1, got {self.num_sessions}")
        names = [t.name for t in self.tenants]
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate tenant names: {names}")

    def with_sessions(self, num_sessions: int) -> "Scenario":
        """The same scenario scaled to a different session count."""
        return replace(self, num_sessions=num_sessions)

    def tenant_slos(self) -> dict[str, ServiceLevelObjective]:
        """Per-tenant SLOs keyed by tenant name (empty if untagged)."""
        return {t.name: t.slo() for t in self.tenants}

    def build(self, seed: int = 0) -> list[GenerationRequest]:
        """Expand into an arrival-sorted request trace, deterministically."""
        arrival_rng = np.random.default_rng([seed, _LANE_ARRIVALS])
        turns_rng = np.random.default_rng([seed, _LANE_TURNS])
        lengths_rng = np.random.default_rng([seed, _LANE_LENGTHS])
        tenants_rng = np.random.default_rng([seed, _LANE_TENANTS])
        pacing_rng = np.random.default_rng([seed, _LANE_PACING])

        n = self.num_sessions
        starts = self.arrival.times(n, arrival_rng)
        turn_counts = self.sessions.turn_counts(n, turns_rng)
        total_turns = int(turn_counts.sum())
        inputs, outputs = self.lengths.sample(total_turns, lengths_rng)
        tenant_names = assign_tenants(self.tenants, n, tenants_rng)
        pacing = self.sessions.pacing_s_per_token()

        requests: list[GenerationRequest] = []
        cursor = 0
        for session_id in range(n):
            arrival = float(starts[session_id])
            context = 0
            for turn in range(int(turn_counts[session_id])):
                new_in = int(inputs[cursor])
                out = int(outputs[cursor])
                cursor += 1
                if turn > 0:
                    # Pace by the previous answer streaming out, plus think.
                    prev_out = requests[-1].output_tokens
                    arrival += prev_out * pacing
                    arrival += self.sessions.think_gap_s(pacing_rng)
                requests.append(
                    GenerationRequest(
                        input_tokens=context + new_in,
                        output_tokens=out,
                        arrival_time=arrival,
                        prefix_id=session_id if turn_counts[session_id] > 1 else None,
                        prefix_tokens=context,
                        session_id=session_id,
                        turn_index=turn,
                        tenant=tenant_names[session_id],
                    )
                )
                context += new_in + out
        requests.sort(key=lambda r: (r.arrival_time, r.session_id, r.turn_index))
        return requests

    def describe(self) -> str:
        """Multi-line human summary for ``scenario describe``."""
        lines = [
            f"scenario: {self.name}",
            f"  {self.description}",
            f"  arrivals: {self.arrival.describe()}",
            f"  lengths:  {self.lengths.describe()}",
            f"  sessions: {self.sessions.describe()} × {self.num_sessions}",
        ]
        if self.tenants:
            lines.append("  tenants:")
            for tenant in self.tenants:
                lines.append(f"    - {tenant.describe()}")
        return "\n".join(lines)

    def to_json_dict(self) -> dict[str, object]:
        return {
            "name": self.name,
            "description": self.description,
            "arrival": self.arrival.to_json_dict(),
            "lengths": self.lengths.to_json_dict(),
            "sessions": self.sessions.to_json_dict(),
            "tenants": [t.to_json_dict() for t in self.tenants],
            "num_sessions": self.num_sessions,
        }

    @staticmethod
    def from_json_dict(payload: dict[str, object]) -> "Scenario":
        return Scenario(
            name=payload["name"],  # type: ignore[arg-type]
            description=payload["description"],  # type: ignore[arg-type]
            arrival=arrival_from_json_dict(payload["arrival"]),  # type: ignore[arg-type]
            lengths=length_from_json_dict(payload["lengths"]),  # type: ignore[arg-type]
            sessions=session_from_json_dict(payload["sessions"]),  # type: ignore[arg-type]
            tenants=tuple(
                tenant_from_json_dict(t)
                for t in payload.get("tenants", ())  # type: ignore[union-attr]
            ),
            num_sessions=int(payload.get("num_sessions", 32)),  # type: ignore[arg-type]
        )


def trace_json_dicts(requests: list[GenerationRequest]) -> list[dict[str, object]]:
    """A trace as deterministic JSON dicts, in list order."""
    return [
        {
            "arrival_s": round(r.arrival_time, 9),
            "input_tokens": r.input_tokens,
            "output_tokens": r.output_tokens,
            "prefix_id": r.prefix_id,
            "prefix_tokens": r.prefix_tokens,
            "session": r.session_id,
            "turn": r.turn_index,
            "tenant": r.tenant,
        }
        for r in requests
    ]
