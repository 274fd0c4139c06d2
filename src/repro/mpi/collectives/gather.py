"""MPI_Gather / MPI_Scatter / MPI_Alltoall timing.

Used by Horovod's coordinator (gather of readiness bitmaps) and available
for completeness of the MPI surface.
"""

from __future__ import annotations

from collections.abc import Callable

from repro.mpi.collectives.base import (
    CollectivePlan,
    CollectiveTiming,
    StepCoster,
    pair_transfers,
    plan_timing,
    root_first,
)


def _linear(
    coster: StepCoster,
    op: str,
    segment: str,
    ranks: list[int],
    nbytes_per_rank: int,
    root: int | None,
    pair: Callable[[int, int], tuple[int, int]],
) -> CollectiveTiming:
    """One step between the root and every other rank ``r``, each
    transfer's ``(src, dst)`` being ``pair(root, r)``."""

    def build() -> CollectivePlan:
        if len(ranks) <= 1 or nbytes_per_rank == 0:
            return CollectivePlan("linear")
        first, *others = root_first(ranks, root)
        step = pair_transfers([pair(first, r) for r in others], nbytes_per_rank)
        return CollectivePlan("linear", ((segment, [step], False),))

    return plan_timing(
        coster, op, ranks, nbytes_per_rank, build, variant=root
    )


def gather_timing(
    coster: StepCoster,
    ranks: list[int],
    nbytes_per_rank: int,
    *,
    root: int | None = None,
) -> CollectiveTiming:
    """All non-root ranks send their contribution to the root.

    Modelled as MPI's linear gather (correct for the small message sizes
    coordination uses): the root's ingest serializes arrivals from
    different nodes only at its own NIC/links, which the step engine
    captures by scheduling all sends in one step.
    """
    return _linear(
        coster, "gather", "ingest", ranks, nbytes_per_rank, root,
        lambda root, r: (r, root),
    )


def scatter_timing(
    coster: StepCoster,
    ranks: list[int],
    nbytes_per_rank: int,
    *,
    root: int | None = None,
) -> CollectiveTiming:
    """Root sends a distinct block to every other rank (linear scatter)."""
    return _linear(
        coster, "scatter", "egress", ranks, nbytes_per_rank, root,
        lambda root, r: (root, r),
    )


def alltoall_timing(
    coster: StepCoster,
    ranks: list[int],
    nbytes_per_pair: int,
) -> CollectiveTiming:
    """Pairwise-exchange alltoall: p-1 rounds, round k pairs rank i with
    rank (i + k) mod p."""

    def build() -> CollectivePlan:
        p = len(ranks)
        if p <= 1 or nbytes_per_pair == 0:
            return CollectivePlan("pairwise")
        steps = [
            pair_transfers(
                [(rank, ranks[(i + k) % p]) for i, rank in enumerate(ranks)],
                nbytes_per_pair,
            )
            for k in range(1, p)
        ]
        return CollectivePlan("pairwise", (("rounds", steps, False),))

    return plan_timing(coster, "alltoall", ranks, nbytes_per_pair, build)
