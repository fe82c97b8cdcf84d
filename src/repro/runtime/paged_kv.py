"""The KV pool: a fixed pool of fixed-size blocks with a block table per
sequence.

A paged deployment (vLLM PagedAttention, Fig. 2b) gets blocks of its
framework's block size.  A contiguous deployment (llama.cpp / Gaudi2 /
SambaFlow) gets the same pool with 1-token blocks: conservative admission
then reserves exactly the sequence's full final context up front, which
is why those stacks OOM earlier.

The pool works in *token* units internally; byte accounting goes through
the deployment's per-token KV size.  It optionally carries an
:class:`~repro.obs.tracer.EventTracer` and emits ``kv_alloc`` counter
samples on admit/free (pool occupancy over time, stamped at the tracer's
clock).  Per-token appends are not traced — that path is the simulator's
hottest.
"""

from __future__ import annotations

from collections.abc import Hashable
from dataclasses import dataclass

from repro.obs.tracer import EventTracer

__all__ = ["AllocationError", "OutOfMemoryError", "PagedKVAllocator"]


class AllocationError(RuntimeError):
    """Raised when the KV pool cannot satisfy a reservation."""


class OutOfMemoryError(RuntimeError):
    """A deployment or admission cannot fit in device memory."""


@dataclass
class _PagedSequence:
    context_tokens: int
    reserved_blocks: int  # conservative reservation for the final context
    mapped_blocks: int  # blocks actually holding tokens so far
    growable: bool = False  # optimistic admission: reservation grows on demand


class PagedKVAllocator:
    """Fixed-size block pool with per-sequence block tables.

    Two admission policies: *conservative* (default) reserves the final
    context up front so growth never fails; *optimistic* (vLLM's actual
    policy) reserves only the prompt's blocks and grows on demand, packing
    more sequences at the cost of possible preemption when the pool runs
    dry mid-decode.  A sequence's ``seq_id`` is any hashable; the
    scheduler passes the request object itself.
    """

    def __init__(
        self, total_blocks: int, block_size: int, tracer: EventTracer | None = None
    ) -> None:
        if total_blocks < 1:
            raise ValueError(f"total_blocks must be >= 1, got {total_blocks}")
        if block_size < 1:
            raise ValueError(f"block_size must be >= 1, got {block_size}")
        self.total_blocks = total_blocks
        self.block_size = block_size
        self.tracer = tracer
        self._sequences: dict[Hashable, _PagedSequence] = {}
        self._reserved_blocks = 0

    def _trace_pool(self, name: str) -> None:
        self.tracer.counter(
            "kv_alloc",
            "kv_pool",
            event=name,
            used_tokens=self.used_tokens,
            capacity_tokens=self.capacity_tokens,
        )

    def _blocks_for(self, tokens: int) -> int:
        return -(-tokens // self.block_size)

    @property
    def free_blocks(self) -> int:
        return self.total_blocks - self._reserved_blocks

    def can_admit(self, final_context_tokens: int) -> bool:
        return self._blocks_for(final_context_tokens) <= self.free_blocks

    def admit(
        self,
        seq_id: Hashable,
        prompt_tokens: int,
        final_context_tokens: int,
        optimistic: bool = False,
    ) -> None:
        """Admit a sequence.

        Conservative (default): reserve blocks for the *final* context up
        front, so growth can never fail.  Optimistic (vLLM's actual
        policy): reserve only the prompt's blocks and allocate on demand
        as the sequence grows — more sequences fit, but ``append_token``
        may raise and force a preemption.
        """
        if seq_id in self._sequences:
            raise AllocationError(f"sequence {seq_id} already admitted")
        if prompt_tokens < 1 or final_context_tokens < prompt_tokens:
            raise ValueError("need 1 <= prompt_tokens <= final_context_tokens")
        reserve_for = prompt_tokens if optimistic else final_context_tokens
        needed = self._blocks_for(reserve_for)
        if needed > self.free_blocks:
            raise AllocationError(
                f"sequence {seq_id} needs {needed} blocks, {self.free_blocks} free"
            )
        self._sequences[seq_id] = _PagedSequence(
            context_tokens=prompt_tokens,
            reserved_blocks=needed,
            mapped_blocks=self._blocks_for(prompt_tokens),
            growable=optimistic,
        )
        self._reserved_blocks += needed
        if self.tracer is not None:
            self._trace_pool("admit")

    def append_token(self, seq_id: Hashable) -> None:
        seq = self._require(seq_id)
        needed = self._blocks_for(seq.context_tokens + 1)
        if needed > seq.reserved_blocks:
            if not seq.growable:
                raise AllocationError(
                    f"sequence {seq_id} grew past its reservation "
                    f"({seq.context_tokens + 1} tokens > "
                    f"{seq.reserved_blocks * self.block_size})"
                )
            # Grow the reservation on demand (optimistic sequences).
            growth = needed - seq.reserved_blocks
            if growth > self.free_blocks:
                raise AllocationError(
                    f"sequence {seq_id} needs {growth} more block(s); "
                    f"{self.free_blocks} free (preemption required)"
                )
            seq.reserved_blocks = needed
            self._reserved_blocks += growth
        seq.context_tokens += 1
        seq.mapped_blocks = needed

    def free(self, seq_id: Hashable) -> None:
        seq = self._sequences.pop(seq_id, None)
        if seq is None:
            raise AllocationError(f"sequence {seq_id} not admitted")
        self._reserved_blocks -= seq.reserved_blocks
        if self.tracer is not None:
            self._trace_pool("free")

    def context_tokens(self, seq_id: Hashable) -> int:
        return self._require(seq_id).context_tokens

    @property
    def used_tokens(self) -> int:
        return sum(s.context_tokens for s in self._sequences.values())

    @property
    def mapped_tokens(self) -> int:
        """Tokens of capacity in mapped blocks (>= used_tokens)."""
        return sum(
            s.mapped_blocks * self.block_size for s in self._sequences.values()
        )

    @property
    def capacity_tokens(self) -> int:
        return self.total_blocks * self.block_size

    @property
    def internal_fragmentation_tokens(self) -> int:
        """Capacity wasted inside partially filled mapped blocks."""
        return self.mapped_tokens - self.used_tokens

    def _require(self, seq_id: Hashable) -> _PagedSequence:
        seq = self._sequences.get(seq_id)
        if seq is None:
            raise AllocationError(f"sequence {seq_id} not admitted")
        return seq
