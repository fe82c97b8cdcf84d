"""Tests for the KV pool, paged and contiguous (1-token blocks)."""

from dataclasses import dataclass

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.runtime.paged_kv import AllocationError, PagedKVAllocator


def _contiguous(capacity_tokens: int) -> PagedKVAllocator:
    """The pool a contiguous-KV deployment gets: 1-token blocks."""
    return PagedKVAllocator(capacity_tokens, 1)


class TestPagedAllocator:
    def test_capacity(self):
        alloc = PagedKVAllocator(total_blocks=10, block_size=16)
        assert alloc.capacity_tokens == 160
        assert alloc.free_blocks == 10

    def test_admit_reserves_final_context(self):
        alloc = PagedKVAllocator(10, 16)
        alloc.admit(1, prompt_tokens=20, final_context_tokens=100)
        # ceil(100/16) = 7 blocks reserved
        assert alloc.free_blocks == 3
        assert alloc.context_tokens(1) == 20

    def test_can_admit_respects_reservations(self):
        alloc = PagedKVAllocator(10, 16)
        alloc.admit(1, 10, 100)
        assert alloc.can_admit(48)  # 3 blocks
        assert not alloc.can_admit(64)  # 4 blocks > 3 free

    def test_append_within_reservation(self):
        alloc = PagedKVAllocator(10, 16)
        alloc.admit(1, 10, 12)
        alloc.append_token(1)
        alloc.append_token(1)
        assert alloc.context_tokens(1) == 12

    def test_append_past_reservation_raises(self):
        alloc = PagedKVAllocator(10, 16)
        alloc.admit(1, 16, 16)
        with pytest.raises(AllocationError, match="reservation"):
            alloc.append_token(1)

    def test_free_returns_blocks(self):
        alloc = PagedKVAllocator(10, 16)
        alloc.admit(1, 10, 100)
        alloc.free(1)
        assert alloc.free_blocks == 10
        alloc.admit(1, 10, 100)  # the freed id is no longer admitted

    def test_double_admit_raises(self):
        alloc = PagedKVAllocator(10, 16)
        alloc.admit(1, 10, 20)
        with pytest.raises(AllocationError, match="already admitted"):
            alloc.admit(1, 10, 20)

    def test_free_unknown_raises(self):
        with pytest.raises(AllocationError, match="not admitted"):
            PagedKVAllocator(10, 16).free(42)

    def test_overcommit_raises(self):
        alloc = PagedKVAllocator(4, 16)
        with pytest.raises(AllocationError, match="blocks"):
            alloc.admit(1, 10, 100)

    def test_internal_fragmentation(self):
        alloc = PagedKVAllocator(10, 16)
        alloc.admit(1, 17, 40)  # maps 2 blocks (32 tokens) for 17 tokens
        assert alloc.internal_fragmentation_tokens == 32 - 17
        for _ in range(15):
            alloc.append_token(1)
        assert alloc.internal_fragmentation_tokens == 0  # 32 of 32 used

    def test_used_tokens_tracks_contexts(self):
        alloc = PagedKVAllocator(20, 16)
        alloc.admit(1, 10, 40)
        alloc.admit(2, 20, 40)
        assert alloc.used_tokens == 30

    def test_validates_construction(self):
        with pytest.raises(ValueError):
            PagedKVAllocator(0, 16)
        with pytest.raises(ValueError):
            PagedKVAllocator(10, 0)

    def test_validates_admit_args(self):
        alloc = PagedKVAllocator(10, 16)
        with pytest.raises(ValueError):
            alloc.admit(1, 0, 10)
        with pytest.raises(ValueError):
            alloc.admit(1, 20, 10)


class TestContiguousAllocator:
    """Whole-context up-front reservation: the pool with 1-token blocks."""

    def test_reserves_full_context_up_front(self):
        alloc = _contiguous(100)
        alloc.admit(1, prompt_tokens=10, final_context_tokens=80)
        assert alloc.free_blocks == 20
        assert not alloc.can_admit(30)

    def test_earlier_oom_than_paged(self):
        """The Gaudi2/llama.cpp mechanism: same budget, fewer sequences."""
        paged = PagedKVAllocator(total_blocks=100 // 16, block_size=16)  # 96 tok
        contiguous = _contiguous(96)
        # Short prompts that will grow to 48: paged reserves 3 blocks each.
        paged.admit(1, 8, 48)
        paged.admit(2, 8, 48)
        contiguous.admit(1, 8, 48)
        contiguous.admit(2, 8, 48)
        assert paged.can_admit(48) == contiguous.can_admit(48) is False
        # But with ragged growth targets the contiguous allocator wastes
        # the full reservation while paged rounds to blocks only.
        assert contiguous.free_blocks == 0
        assert paged.free_blocks == 0

    def test_append_and_free(self):
        alloc = _contiguous(100)
        alloc.admit(1, 10, 12)
        alloc.append_token(1)
        alloc.append_token(1)
        with pytest.raises(AllocationError, match="reservation"):
            alloc.append_token(1)
        alloc.free(1)
        assert alloc.free_blocks == 100

    def test_used_vs_capacity(self):
        alloc = _contiguous(100)
        alloc.admit(1, 10, 50)
        assert alloc.used_tokens == 10
        assert alloc.capacity_tokens == 100

    def test_unknown_sequence_raises(self):
        alloc = _contiguous(100)
        with pytest.raises(AllocationError):
            alloc.append_token(9)
        with pytest.raises(AllocationError):
            alloc.context_tokens(9)

    def test_double_admit_raises(self):
        alloc = _contiguous(100)
        alloc.admit(1, 10, 20)
        with pytest.raises(AllocationError, match="already"):
            alloc.admit(1, 10, 20)


# ---------------------------------------------------------------------------
# Oracle: the pool with 1-token blocks against the whole-context allocator
# it replaced, kept here as the reference (its tracing hooks left out).


@dataclass
class _ContiguousSequence:
    reserved_tokens: int
    context_tokens: int


class _ContiguousReference:
    """Whole-context up-front reservation (llama.cpp / Gaudi2 / SambaFlow)."""

    def __init__(self, capacity_tokens: int) -> None:
        if capacity_tokens < 1:
            raise ValueError(f"capacity_tokens must be >= 1, got {capacity_tokens}")
        self._capacity = capacity_tokens
        self._reserved = 0
        self._sequences: dict[int, _ContiguousSequence] = {}

    @property
    def free_tokens(self) -> int:
        return self._capacity - self._reserved

    def can_admit(self, final_context_tokens: int) -> bool:
        return final_context_tokens <= self.free_tokens

    def admit(self, seq_id: int, prompt_tokens: int, final_context_tokens: int) -> None:
        if seq_id in self._sequences:
            raise AllocationError(f"sequence {seq_id} already admitted")
        if prompt_tokens < 1 or final_context_tokens < prompt_tokens:
            raise ValueError("need 1 <= prompt_tokens <= final_context_tokens")
        if final_context_tokens > self.free_tokens:
            raise AllocationError(
                f"sequence {seq_id} needs {final_context_tokens} tokens, "
                f"{self.free_tokens} free"
            )
        self._sequences[seq_id] = _ContiguousSequence(
            reserved_tokens=final_context_tokens, context_tokens=prompt_tokens
        )
        self._reserved += final_context_tokens

    def append_token(self, seq_id: int) -> None:
        seq = self._sequences.get(seq_id)
        if seq is None:
            raise AllocationError(f"sequence {seq_id} not admitted")
        if seq.context_tokens + 1 > seq.reserved_tokens:
            raise AllocationError(f"sequence {seq_id} grew past its reservation")
        seq.context_tokens += 1

    def free(self, seq_id: int) -> None:
        seq = self._sequences.pop(seq_id, None)
        if seq is None:
            raise AllocationError(f"sequence {seq_id} not admitted")
        self._reserved -= seq.reserved_tokens

    def context_tokens(self, seq_id: int) -> int:
        seq = self._sequences.get(seq_id)
        if seq is None:
            raise AllocationError(f"sequence {seq_id} not admitted")
        return seq.context_tokens

    @property
    def used_tokens(self) -> int:
        return sum(s.context_tokens for s in self._sequences.values())

    @property
    def capacity_tokens(self) -> int:
        return self._capacity


def _outcome(call):
    """``("ok", value)`` or ``("raise", exception type)``."""
    try:
        return "ok", call()
    except (AllocationError, ValueError) as exc:
        return "raise", type(exc)


class TestContiguousOracle:
    @pytest.mark.parametrize("capacity", [-1, 0, 1, 2])
    def test_construction_matches(self, capacity):
        assert _outcome(lambda: _contiguous(capacity).capacity_tokens) == _outcome(
            lambda: _ContiguousReference(capacity).capacity_tokens
        )

    @given(data=st.data(), capacity=st.integers(1, 64))
    @settings(max_examples=100, deadline=None, derandomize=True)
    def test_random_operations_match(self, data, capacity):
        """Seeded random admit/append/free/can_admit sequences, valid and
        invalid alike, give equal answers, equal exception types and equal
        occupancy after every operation."""
        pool, reference = _contiguous(capacity), _ContiguousReference(capacity)
        ids = st.integers(0, 3)
        for _ in range(data.draw(st.integers(1, 60), label="operations")):
            op = data.draw(
                st.sampled_from(["can_admit", "admit", "append", "free", "context"])
            )
            if op == "can_admit":
                tokens = data.draw(st.integers(0, capacity + 10))
                calls = [lambda a, t=tokens: a.can_admit(t)]
            elif op == "admit":
                seq = data.draw(ids)
                prompt = data.draw(st.integers(0, capacity // 2 + 2))
                final = prompt + data.draw(st.integers(-1, 6))
                calls = [lambda a, s=seq, p=prompt, f=final: a.admit(s, p, f)]
            elif op == "append":
                seq = data.draw(ids)
                repeat = data.draw(st.integers(1, 8))
                calls = [lambda a, s=seq: a.append_token(s)] * repeat
            elif op == "free":
                seq = data.draw(ids)
                calls = [lambda a, s=seq: a.free(s)]
            else:
                seq = data.draw(ids)
                calls = [lambda a, s=seq: a.context_tokens(s)]
            for call in calls:
                assert _outcome(lambda: call(pool)) == _outcome(lambda: call(reference))
            assert pool.used_tokens == reference.used_tokens
            assert pool.capacity_tokens == reference.capacity_tokens
            assert pool.free_blocks == reference.free_tokens
