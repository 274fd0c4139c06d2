"""MPI_Allgather: ring algorithm.

Used by Horovod's coordinator for the tensor-negotiation metadata exchange
and by the top-k sparse gradient exchange (each rank contributes its own
(index, value) payload; no in-network reduction is possible).
"""

from __future__ import annotations

from repro.comm.cost import FLOAT32_BYTES
from repro.mpi.collectives.base import (
    CollectivePlan,
    CollectiveTiming,
    RingSchedule,
    StepCoster,
    plan_timing,
)


def _ring_timing(
    coster: StepCoster,
    op: str,
    ranks: list[int],
    nbytes_per_rank: int,
    buffer_ids: dict[int, int] | None,
    dtype_bytes: int,
) -> CollectiveTiming:
    """One uniform ring without per-step reductions: each of p-1 steps
    moves every rank's ``nbytes_per_rank`` block one hop, at 0 bytes too."""

    def build() -> CollectivePlan:
        if len(ranks) <= 1:
            return CollectivePlan("ring")
        ring = RingSchedule.uniform(ranks, nbytes_per_rank)
        return CollectivePlan("ring", (("ring", ring, False),))

    return plan_timing(
        coster, op, ranks, nbytes_per_rank, build,
        buffer_ids=buffer_ids, dtype_bytes=dtype_bytes,
    )


def allgather_timing(
    coster: StepCoster,
    ranks: list[int],
    nbytes_per_rank: int,
    *,
    buffer_ids: dict[int, int] | None = None,
    dtype_bytes: int = FLOAT32_BYTES,
) -> CollectiveTiming:
    """Each rank contributes ``nbytes_per_rank``; all end with everything."""
    return _ring_timing(
        coster, "allgather", ranks, nbytes_per_rank, buffer_ids, dtype_bytes
    )
