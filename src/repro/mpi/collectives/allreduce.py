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

from repro.comm.cost import (  # noqa: F401 - re-exported for legacy callers
    allreduce_lower_bound,
    ring_step_count,
)
from repro.comm.cost import FLOAT32_BYTES
from repro.errors import MpiError
from repro.mpi.collectives.base import (
    CollectiveTiming,
    PairTransfer,
    RingSchedule,
    StepCoster,
    is_power_of_two,
)
from repro.utils.folds import fold_sum
from repro.utils.units import KIB


def _bids_key(buffer_ids: dict[int, int] | None) -> tuple | None:
    return tuple(sorted(buffer_ids.items())) if buffer_ids else None


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


def _ring_steps(
    ranks: list[int],
    nbytes: int,
    buffer_ids: dict[int, int] | None,
    dtype_bytes: int = FLOAT32_BYTES,
) -> tuple[RingSchedule, RingSchedule]:
    """Chunked-ring schedules: (reduce-scatter steps, allgather steps).

    Both phases walk the identical transfer grid (only ``reduce_after``
    differs at run time), so they share one lazily-materialized
    :class:`RingSchedule`.
    """
    sched = RingSchedule.chunked(ranks, nbytes, buffer_ids, dtype_bytes)
    return sched, sched


def _recursive_doubling_steps(
    ranks: list[int],
    nbytes: int,
    buffer_ids: dict[int, int] | None,
    dtype_bytes: int = FLOAT32_BYTES,
) -> list[list[PairTransfer]]:
    p = len(ranks)
    if not is_power_of_two(p):
        raise MpiError(f"recursive doubling requires power-of-two ranks, got {p}")

    def bid(rank: int) -> int | None:
        return buffer_ids.get(rank) if buffer_ids else None

    steps = []
    distance = 1
    while distance < p:
        transfers = []
        for i, rank in enumerate(ranks):
            peer = ranks[i ^ distance]
            transfers.append(
                PairTransfer(rank, peer, nbytes, bid(rank), bid(peer),
                             dtype_bytes=dtype_bytes)
            )
        steps.append(transfers)
        distance *= 2
    return steps


def _halving_doubling_steps(
    ranks: list[int],
    nbytes: int,
    buffer_ids: dict[int, int] | None,
    dtype_bytes: int = FLOAT32_BYTES,
) -> tuple[list[list[PairTransfer]], list[list[PairTransfer]]]:
    """Rabenseifner: recursive-halving reduce-scatter + recursive-doubling
    allgather."""
    p = len(ranks)
    if not is_power_of_two(p):
        raise MpiError(f"reduce_scatter_allgather requires power-of-two ranks, got {p}")

    def bid(rank: int) -> int | None:
        return buffer_ids.get(rank) if buffer_ids else None

    rs_steps = []
    distance = p // 2
    size = nbytes // 2
    while distance >= 1:
        transfers = []
        for i, rank in enumerate(ranks):
            peer = ranks[i ^ distance]
            transfers.append(PairTransfer(rank, peer, max(size, 1), bid(rank), bid(peer),
                                          dtype_bytes=dtype_bytes))
        rs_steps.append(transfers)
        distance //= 2
        size //= 2
    ag_steps = []
    distance = 1
    size = nbytes // p
    while distance < p:
        transfers = []
        for i, rank in enumerate(ranks):
            peer = ranks[i ^ distance]
            transfers.append(PairTransfer(rank, peer, max(size, 1), bid(rank), bid(peer),
                                          dtype_bytes=dtype_bytes))
        ag_steps.append(transfers)
        distance *= 2
        size *= 2
    return rs_steps, ag_steps


def _binomial_reduce_steps(
    group: list[int],
    nbytes: int,
    buffer_ids: dict[int, int] | None,
    dtype_bytes: int = FLOAT32_BYTES,
) -> list[list[PairTransfer]]:
    """Binomial-tree reduce onto group[0]."""
    def bid(rank: int) -> int | None:
        return buffer_ids.get(rank) if buffer_ids else None

    g = len(group)
    steps = []
    distance = 1
    while distance < g:
        transfers = []
        for i in range(0, g, 2 * distance):
            j = i + distance
            if j < g:
                transfers.append(
                    PairTransfer(group[j], group[i], nbytes,
                                 bid(group[j]), bid(group[i]),
                                 dtype_bytes=dtype_bytes)
                )
        steps.append(transfers)
        distance *= 2
    return steps


def _binomial_bcast_steps(
    reduce_steps: list[list[PairTransfer]],
) -> list[list[PairTransfer]]:
    """Binomial-tree broadcast from group[0]: the reduce's steps in
    reverse, every transfer turned round."""
    return [
        [
            PairTransfer(t.dst, t.src, t.nbytes, t.dst_buffer, t.src_buffer,
                         dtype_bytes=t.dtype_bytes)
            for t in step
        ]
        for step in reversed(reduce_steps)
    ]


def _hierarchical_intra_steps(
    groups: list[list[int]],
    nbytes: int,
    buffer_ids: dict[int, int] | None,
    dtype_bytes: int = FLOAT32_BYTES,
) -> tuple[list[list[PairTransfer]], list[list[PairTransfer]]]:
    """Merged intra-node (reduce, bcast) schedules for all node groups.

    Intra-node phases run concurrently across nodes, so per-node binomial
    schedules merge step-by-step.  Each group's reduce is built once, its
    broadcast is derived from it, and both are indexed per depth.
    """
    reduce_per_group = [
        _binomial_reduce_steps(g, nbytes, buffer_ids, dtype_bytes) for g in groups
    ]
    bcast_per_group = [_binomial_bcast_steps(steps) for steps in reduce_per_group]

    def merge(per_group: list[list[list[PairTransfer]]]) -> list[list[PairTransfer]]:
        merged_steps = []
        for depth in range(max((len(s) for s in per_group), default=0)):
            merged: list[PairTransfer] = []
            for steps in per_group:
                if depth < len(steps):
                    merged.extend(steps[depth])
            if merged:
                merged_steps.append(merged)
        return merged_steps

    return merge(reduce_per_group), merge(bcast_per_group)


def allreduce_timing(
    coster: StepCoster,
    ranks: list[int],
    nbytes: int,
    *,
    buffer_ids: dict[int, int] | None = None,
    algorithm: str | None = None,
    dtype_bytes: int = FLOAT32_BYTES,
) -> CollectiveTiming:
    """Time one allreduce over ``ranks`` in the coster's execution mode."""
    p = len(ranks)
    transport = coster.transport
    node_of = {r: transport.ranks[r].node_id for r in ranks}
    nodes = len(set(node_of.values()))
    algorithm = select_allreduce_algorithm(
        p, nbytes, nodes=nodes, override=algorithm or transport.config.allreduce_algorithm
    )
    if p <= 1 or nbytes == 0:
        return CollectiveTiming("allreduce", algorithm, nbytes, p, 0.0, coster.mode)

    segments: dict[str, float] = {}
    memoized = coster.schedules.get
    rank_key = tuple(ranks)
    bid_key = _bids_key(buffer_ids)
    if algorithm == "ring":
        rs, ag = memoized(
            ("ring", rank_key, nbytes, bid_key, dtype_bytes),
            lambda: _ring_steps(ranks, nbytes, buffer_ids, dtype_bytes),
        )
        segments["reduce_scatter"] = coster.run_steps(rs, reduce_after=True)
        segments["allgather"] = coster.run_steps(ag, reduce_after=False)
    elif algorithm == "recursive_doubling":
        if not is_power_of_two(p):
            return allreduce_timing(
                coster, ranks, nbytes, buffer_ids=buffer_ids, algorithm="ring",
                dtype_bytes=dtype_bytes,
            )
        steps = memoized(
            ("rd", rank_key, nbytes, bid_key, dtype_bytes),
            lambda: _recursive_doubling_steps(ranks, nbytes, buffer_ids, dtype_bytes),
        )
        segments["exchange"] = coster.run_steps(steps, reduce_after=True)
    elif algorithm == "reduce_scatter_allgather":
        if not is_power_of_two(p):
            return allreduce_timing(
                coster, ranks, nbytes, buffer_ids=buffer_ids, algorithm="ring",
                dtype_bytes=dtype_bytes,
            )
        rs, ag = memoized(
            ("rsag", rank_key, nbytes, bid_key, dtype_bytes),
            lambda: _halving_doubling_steps(ranks, nbytes, buffer_ids, dtype_bytes),
        )
        segments["reduce_scatter"] = coster.run_steps(rs, reduce_after=True)
        segments["allgather"] = coster.run_steps(ag, reduce_after=False)
    elif algorithm == "hierarchical":
        by_node: dict[int, list[int]] = {}
        for r in ranks:
            by_node.setdefault(node_of[r], []).append(r)
        groups = [sorted(g) for _, g in sorted(by_node.items())]
        group_key = tuple(tuple(g) for g in groups)
        leaders = [g[0] for g in groups]
        intra_reduce, intra_bcast = memoized(
            ("hier-intra", group_key, nbytes, bid_key, dtype_bytes),
            lambda: _hierarchical_intra_steps(groups, nbytes, buffer_ids, dtype_bytes),
        )
        segments["intra_reduce"] = coster.run_steps(intra_reduce, reduce_after=True)
        if len(leaders) > 1:
            rs, ag = memoized(
                ("ring", tuple(leaders), nbytes, bid_key, dtype_bytes),
                lambda: _ring_steps(leaders, nbytes, buffer_ids, dtype_bytes),
            )
            segments["inter_reduce_scatter"] = coster.run_steps(rs, reduce_after=True)
            segments["inter_allgather"] = coster.run_steps(ag, reduce_after=False)
        segments["intra_bcast"] = coster.run_steps(intra_bcast, reduce_after=False)
    else:  # pragma: no cover - selection guards this
        raise MpiError(f"unknown allreduce algorithm {algorithm!r}")

    total = fold_sum(segments.values())
    return CollectiveTiming(
        "allreduce", algorithm, nbytes, p, total, coster.mode, segments
    )
