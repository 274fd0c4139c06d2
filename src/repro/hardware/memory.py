"""Byte-accounting memory pools.

We do not model address-space fragmentation, only capacity: each pool tracks
named allocations so the CUDA layer can report exactly *what* filled a GPU
when an allocation fails (compute tensors vs. contexts vs. fusion buffers —
the distinction at the heart of the paper's Fig. 6a).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from repro.errors import HardwareError
from repro.utils.units import format_bytes


class PoolExhaustedError(HardwareError):
    """Allocation exceeded pool capacity."""

    def __init__(self, pool: "MemoryPool", requested: int):
        self.pool = pool
        self.requested = requested
        super().__init__(
            f"pool {pool.name!r}: cannot allocate {format_bytes(requested)} "
            f"({format_bytes(pool.free)} free of {format_bytes(pool.capacity)}; "
            f"largest consumers: {pool.top_consumers(3)})"
        )


@dataclass(frozen=True)
class MemoryBlock:
    """Handle for one live allocation."""

    block_id: int
    pool_name: str
    nbytes: int
    tag: str


class MemoryPool:
    """Capacity-limited allocator with per-tag accounting."""

    _ids = itertools.count()

    def __init__(self, name: str, capacity: int):
        if capacity <= 0:
            raise HardwareError(f"pool capacity must be positive, got {capacity}")
        self.name = name
        self.capacity = int(capacity)
        self._used = 0
        self._blocks: dict[int, MemoryBlock] = {}
        self.peak_used = 0
        self.alloc_count = 0
        self.oom_count = 0

    @property
    def used(self) -> int:
        return self._used

    @property
    def free(self) -> int:
        return self.capacity - self._used

    def alloc(self, nbytes: int, tag: str = "anon") -> MemoryBlock:
        if nbytes < 0:
            raise HardwareError(f"allocation size must be >= 0, got {nbytes}")
        if self._used + nbytes > self.capacity:
            self.oom_count += 1
            raise PoolExhaustedError(self, nbytes)
        block = MemoryBlock(next(self._ids), self.name, int(nbytes), tag)
        self._blocks[block.block_id] = block
        self._used += block.nbytes
        self.peak_used = max(self.peak_used, self._used)
        self.alloc_count += 1
        return block

    def free_block(self, block: MemoryBlock) -> None:
        live = self._blocks.pop(block.block_id, None)
        if live is None:
            raise HardwareError(
                f"double free or foreign block {block.block_id} in pool {self.name!r}"
            )
        self._used -= live.nbytes

    def used_by_tag(self) -> dict[str, int]:
        totals: dict[str, int] = {}
        for block in self._blocks.values():
            totals[block.tag] = totals.get(block.tag, 0) + block.nbytes
        return totals

    def top_consumers(self, n: int) -> str:
        totals = sorted(self.used_by_tag().items(), key=lambda kv: -kv[1])[:n]
        return ", ".join(f"{tag}={format_bytes(size)}" for tag, size in totals) or "none"

    def reset(self) -> None:
        """Drop all allocations (simulated process teardown)."""
        self._blocks.clear()
        self._used = 0

    def __repr__(self) -> str:
        return (
            f"<MemoryPool {self.name!r} used={format_bytes(self._used)}/"
            f"{format_bytes(self.capacity)}>"
        )
