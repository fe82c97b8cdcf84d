"""Request routers for the multi-replica cluster simulator.

A router picks which replica serves each arriving request, using only the
state a production router would see at the balancing tier: per-replica
queue depth, outstanding work, KV occupancy and (for affinity routing)
which replica previously served a shared prompt prefix.  The policies
mirror the llm-d / production serving literature:

* **round-robin** — the baseline; blind to load, so long prompts pile up
  on unlucky replicas.
* **least-outstanding-tokens** — route to the replica with the least
  unfinished work (prefill owed + output still to emit), the token-level
  analogue of least-outstanding-requests.
* **power-of-two-choices** — sample two replicas, pick the less loaded;
  near the balance of least-outstanding at O(1) state reads.
* **prefix-affinity** — send repeats of a shared prompt prefix to the
  replica already holding its KV blocks (KV-cache-aware routing); falls
  back to least-outstanding for first-seen prefixes.
* **session-affinity** — pin each multi-turn conversation
  (:mod:`repro.scenarios` sessions) to the replica that served its
  earlier turns, so the session's accumulated KV stays hot; re-pins
  gracefully when the home replica crashes or drains.

Load reads are O(1) per replica: a replica is its ``EngineRun``, which
keeps its outstanding-token tally as a plain attribute, updated at every
submit/token/preemption event, so a routing instant costs O(replicas consulted) rather than
O(resident requests) — the least-outstanding and power-of-two policies
touch no per-request state at all.  The simulator hands every router its
kept routable pool (alive, warmed, not draining, in index order), so no
policy scans the fleet either.

Routers are deterministic given their seed, so cluster simulations are
reproducible end to end.
"""

from __future__ import annotations

from collections.abc import Sequence
from typing import TYPE_CHECKING

import numpy as np

from repro.core import UnknownNameError
from repro.core.request import GenerationRequest

if TYPE_CHECKING:  # pragma: no cover
    from repro.cluster.simulator import Replica

__all__ = [
    "Router",
    "RoundRobinRouter",
    "LeastOutstandingTokensRouter",
    "PowerOfTwoChoicesRouter",
    "PrefixAffinityRouter",
    "SessionAffinityRouter",
    "ROUTER_NAMES",
    "get_router",
    "list_routers",
]


class Router:
    """Routing-policy interface; subclasses override :meth:`route`."""

    name = "base"

    def __init__(self, seed: int = 0) -> None:
        self.seed = seed

    def route(
        self,
        request: GenerationRequest,
        replicas: Sequence["Replica"],
        now: float,
    ) -> "Replica":
        """Pick the replica that serves ``request`` (arriving at ``now``)."""
        raise NotImplementedError

    @staticmethod
    def _require(replicas: Sequence["Replica"]) -> None:
        if not replicas:
            raise ValueError("cannot route: no replicas")


def _least_outstanding(replicas: Sequence["Replica"]) -> "Replica":
    """Least-loaded replica; ties break to the lowest index.

    Load is outstanding tokens normalized by each replica's
    ``capacity_weight`` (its kernel-predicted decode rate relative to the
    fleet's base deployment), so a 2x-faster replica in a heterogeneous
    fleet absorbs 2x the queue before looking equally busy.  Homogeneous
    fleets carry weight exactly 1.0 and order as before.

    One pass in the ``(load, index)`` order, whatever order ``replicas``
    comes in: under least-outstanding routing the simulator calls this
    on every arrival, over the whole routable pool.
    """
    best = replicas[0]
    best_load = best.outstanding_tokens / best.capacity_weight
    for replica in replicas:
        load = replica.outstanding_tokens / replica.capacity_weight
        if load < best_load or (load == best_load and replica.index < best.index):
            best = replica
            best_load = load
    return best


class RoundRobinRouter(Router):
    """Cycle through replicas in index order, ignoring load."""

    name = "round-robin"

    def __init__(self, seed: int = 0) -> None:
        super().__init__(seed)
        self._next = 0

    def route(self, request, replicas, now):
        self._require(replicas)
        chosen = replicas[self._next % len(replicas)]
        self._next += 1
        return chosen


class LeastOutstandingTokensRouter(Router):
    """Route to the replica with the least unfinished token work."""

    name = "least-outstanding"

    def route(self, request, replicas, now):
        self._require(replicas)
        return _least_outstanding(replicas)


class PowerOfTwoChoicesRouter(Router):
    """Sample two replicas uniformly; route to the less loaded one.

    The classic balanced-allocations result: two random choices already
    collapse the max-load gap exponentially versus one, while reading the
    state of only two replicas per decision.
    """

    name = "power-of-two"

    def __init__(self, seed: int = 0) -> None:
        super().__init__(seed)
        self._rng = np.random.default_rng(seed)

    def route(self, request, replicas, now):
        self._require(replicas)
        if len(replicas) == 1:
            return replicas[0]
        i, j = self._rng.choice(len(replicas), size=2, replace=False)
        return _least_outstanding([replicas[int(i)], replicas[int(j)]])


class SessionAffinityRouter(Router):
    """Session-sticky routing: a conversation's turns stay on one replica.

    Multi-turn sessions (:mod:`repro.scenarios`) grow their KV turn over
    turn — turn N's prompt extends turn N-1's context — so the session's
    accumulated KV is only reusable on the replica that served the
    earlier turns.  The first turn picks the least-loaded replica and
    records it as the session's home; later turns follow it.

    Reassignment is graceful: when the home replica leaves the eligible
    pool (crashed, draining, role change), the session re-pins to the
    least-loaded survivor and ``reassignments`` counts the move — the
    session's KV is rebuilt there by the normal prefix-miss path rather
    than lost.  Sessionless requests key on ``prefix_id`` when present,
    else fall back to least-outstanding.
    """

    name = "session-affinity"

    def __init__(self, seed: int = 0) -> None:
        super().__init__(seed)
        self._home: dict[tuple[str, int], int] = {}  # key -> replica index
        self.reassignments = 0

    @staticmethod
    def _key(request: GenerationRequest) -> tuple[str, int] | None:
        if request.session_id is not None:
            return ("session", request.session_id)
        if request.prefix_id is not None:
            return ("prefix", request.prefix_id)
        return None

    def route(self, request, replicas, now):
        self._require(replicas)
        key = self._key(request)
        if key is None:
            return _least_outstanding(replicas)
        home = self._home.get(key)
        if home is not None:
            for replica in replicas:
                if replica.index == home:
                    return replica
            self.reassignments += 1
        chosen = _least_outstanding(replicas)
        self._home[key] = chosen.index
        return chosen


class PrefixAffinityRouter(SessionAffinityRouter):
    """KV-cache-aware routing: pin each shared prefix to one replica.

    The first request of a prefix picks the least-loaded replica and
    records it as the prefix's home; repeats follow, landing where the
    prefix's KV blocks already live so their prefill covers only the
    unique suffix.  Prefix-less requests fall back to least-outstanding.
    Session ids are ignored: this is session affinity keyed on the
    prefix alone.
    """

    name = "prefix-affinity"

    @staticmethod
    def _key(request: GenerationRequest) -> tuple[str, int] | None:
        if request.prefix_id is not None:
            return ("prefix", request.prefix_id)
        return None


ROUTER_NAMES: dict[str, type[Router]] = {
    cls.name: cls
    for cls in (
        RoundRobinRouter,
        LeastOutstandingTokensRouter,
        PowerOfTwoChoicesRouter,
        PrefixAffinityRouter,
        SessionAffinityRouter,
    )
}


def get_router(name: str, seed: int = 0) -> Router:
    """Instantiate a router policy by registry name."""
    try:
        cls = ROUTER_NAMES[name]
    except KeyError:
        known = ", ".join(sorted(ROUTER_NAMES))
        raise UnknownNameError(f"unknown router {name!r} (known: {known})") from None
    return cls(seed=seed)


def list_routers() -> list[str]:
    return sorted(ROUTER_NAMES)
