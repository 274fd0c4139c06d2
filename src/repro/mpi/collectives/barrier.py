"""MPI_Barrier: dissemination algorithm (zero-byte control messages)."""

from __future__ import annotations

import math

from repro.mpi.collectives.base import (
    CollectivePlan,
    CollectiveTiming,
    StepCoster,
    pair_transfers,
    plan_timing,
)

#: control messages are a few bytes on the wire
_CONTROL_BYTES = 8


def barrier_timing(coster: StepCoster, ranks: list[int]) -> CollectiveTiming:
    """Time a dissemination barrier (8-byte control messages)."""

    def build() -> CollectivePlan:
        p = len(ranks)
        if p <= 1:
            return CollectivePlan("dissemination")
        steps = [
            pair_transfers(
                [(rank, ranks[(i + 2**k) % p]) for i, rank in enumerate(ranks)],
                _CONTROL_BYTES,
            )
            for k in range(math.ceil(math.log2(p)))
        ]
        return CollectivePlan("dissemination", (("rounds", steps, False),))

    return plan_timing(coster, "barrier", ranks, 0, build)
