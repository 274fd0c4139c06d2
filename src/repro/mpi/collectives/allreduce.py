"""MPI_Allreduce algorithms.

Four algorithms, matching the MVAPICH2 algorithm family the paper's
workload exercises:

* ``ring`` — chunked ring (bandwidth-optimal: ``2n(p-1)/p`` bytes/rank);
* ``recursive_doubling`` — latency-optimal for small messages;
* ``reduce_scatter_allgather`` — Rabenseifner's algorithm;
* ``hierarchical`` — two-level: intra-node binomial reduce to a node
  leader, inter-node ring among leaders, intra-node binomial bcast.  This
  is the shape MVAPICH2-GDR and NCCL both use on NVLink-dense nodes, and
  the level at which the intra-node transport (IPC vs. host-staged) decides
  the paper's headline numbers.
"""

from __future__ import annotations

# allreduce_lower_bound is re-exported for legacy callers
from repro.comm.cost import FLOAT32_BYTES, allreduce_lower_bound  # noqa: F401
from repro.errors import MpiError
from repro.mpi.collectives.base import (
    CollectivePlan,
    CollectiveTiming,
    GroupSchedule,
    PairTransfer,
    RingSchedule,
    StepCoster,
    is_power_of_two,
    pair_transfers,
    plan_timing,
)
from repro.utils.units import KIB


def select_allreduce_algorithm(
    num_ranks: int,
    nbytes: int,
    *,
    nodes: int,
    override: str | None = None,
) -> str:
    """MVAPICH2-style size/topology heuristic."""
    if override is not None:
        return override
    if num_ranks <= 1:
        return "ring"
    if nbytes <= 32 * KIB and is_power_of_two(num_ranks):
        return "recursive_doubling"
    if nodes > 1:
        return "hierarchical"
    return "ring"


def _ring_phases(
    ranks: list[int], nbytes: int, prefix: str = ""
) -> tuple[tuple[str, RingSchedule, bool], ...]:
    """Chunked-ring phases: reduce-scatter, then allgather.

    Both walk the identical transfer grid (only ``reduce_after`` differs
    at run time), so they share one lazily-materialized
    :class:`RingSchedule`.
    """
    ring = RingSchedule.chunked(ranks, nbytes)
    return (
        (prefix + "reduce_scatter", ring, True),
        (prefix + "allgather", ring, False),
    )


def _exchange_steps(
    ranks: list[int], sizes: list[tuple[int, int]]
) -> list[list[PairTransfer]]:
    """One step per ``(distance, nbytes)``: every rank sends ``nbytes`` to
    the partner at index ``i XOR distance`` (power-of-two rank lists)."""
    return [
        pair_transfers([(rank, ranks[i ^ d]) for i, rank in enumerate(ranks)], n)
        for d, n in sizes
    ]


def _binomial_reduce_tree(g: int) -> list[list[tuple[int, int]]]:
    """Binomial-tree reduce onto index 0 of a ``g``-rank group: each
    depth's local ``(src, dst)`` pairs."""
    depths = []
    distance = 1
    while distance < g:
        depths.append(
            [(i + distance, i) for i in range(0, g - distance, 2 * distance)]
        )
        distance *= 2
    return depths


def _binomial_bcast_tree(g: int) -> list[list[tuple[int, int]]]:
    """Binomial-tree broadcast from index 0: the reduce's depths in
    reverse, every pair turned round."""
    return [
        [(dst, src) for src, dst in depth]
        for depth in reversed(_binomial_reduce_tree(g))
    ]


def _allreduce_plan(
    coster: StepCoster, ranks: list[int], nbytes: int, override: str | None
) -> CollectivePlan:
    p = len(ranks)
    groups = coster.node_groups(sorted(ranks))
    algorithm = select_allreduce_algorithm(
        p, nbytes, nodes=len(groups), override=override
    )
    if p <= 1 or nbytes == 0:
        return CollectivePlan(algorithm)
    if algorithm in ("recursive_doubling", "reduce_scatter_allgather") and \
            not is_power_of_two(p):
        algorithm = "ring"
    if algorithm == "ring":
        return CollectivePlan(algorithm, _ring_phases(ranks, nbytes))
    distances = [1 << k for k in range(p.bit_length() - 1)]
    if algorithm == "recursive_doubling":
        steps = _exchange_steps(ranks, [(d, nbytes) for d in distances])
        return CollectivePlan(algorithm, (("exchange", steps, True),))
    if algorithm == "reduce_scatter_allgather":
        # Rabenseifner: recursive-halving reduce-scatter, then
        # recursive-doubling allgather
        rs = _exchange_steps(
            ranks, [(d, max(nbytes // (p // d), 1)) for d in distances[::-1]]
        )
        ag = _exchange_steps(
            ranks, [(d, max(nbytes // p * d, 1)) for d in distances]
        )
        return CollectivePlan(
            algorithm, (("reduce_scatter", rs, True), ("allgather", ag, False))
        )
    if algorithm == "hierarchical":
        # intra-node phases run concurrently across nodes, around a ring
        # among the node leaders (each node's lowest rank)
        leaders = [g[0] for g in groups]
        intra_reduce, intra_bcast = (
            GroupSchedule(groups, tree, nbytes)
            for tree in (_binomial_reduce_tree, _binomial_bcast_tree)
        )
        inter = _ring_phases(leaders, nbytes, "inter_") if len(leaders) > 1 else ()
        return CollectivePlan(algorithm, (
            ("intra_reduce", intra_reduce, True),
            *inter,
            ("intra_bcast", intra_bcast, False),
        ))
    raise MpiError(f"unknown allreduce algorithm {algorithm!r}")


def allreduce_timing(
    coster: StepCoster,
    ranks: list[int],
    nbytes: int,
    *,
    buffer_ids: dict[int, int] | None = None,
    algorithm: str | None = None,
    dtype_bytes: int = FLOAT32_BYTES,
) -> CollectiveTiming:
    """Time one allreduce over ``ranks`` in the coster's execution mode.

    A zero-byte call reports the algorithm it selected; recursive
    doubling and reduce-scatter-allgather fall back to ``ring`` on a
    world whose size is not a power of two.
    """
    override = algorithm or coster.transport.config.allreduce_algorithm
    return plan_timing(
        coster, "allreduce", ranks, nbytes,
        lambda: _allreduce_plan(coster, ranks, nbytes, override),
        variant=override, buffer_ids=buffer_ids, dtype_bytes=dtype_bytes,
    )
