"""MPI_Reduce_scatter_block: ring algorithm.

The reduce-scatter half of the ring allreduce run standalone: p-1 ring
steps, each moving one rank's ``nbytes_per_rank`` shard while combining it
into the local partial.  Tensor parallelism uses it to turn replicated
activation gradients back into per-rank shards (the dual of the forward
activation allgather).
"""

from __future__ import annotations

from repro.comm.cost import FLOAT32_BYTES
from repro.mpi.collectives.allgather import _ring_timing
from repro.mpi.collectives.base import CollectiveTiming, StepCoster


def reduce_scatter_timing(
    coster: StepCoster,
    ranks: list[int],
    nbytes_per_rank: int,
    *,
    buffer_ids: dict[int, int] | None = None,
    dtype_bytes: int = FLOAT32_BYTES,
) -> CollectiveTiming:
    """Each rank starts with the full vector, ends with its reduced shard.

    Timed as the allgather's ring, without per-step reductions, as it
    always has been."""
    return _ring_timing(
        coster, "reduce_scatter", ranks, nbytes_per_rank, buffer_ids,
        dtype_bytes,
    )
