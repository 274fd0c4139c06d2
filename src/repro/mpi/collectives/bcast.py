"""MPI_Bcast: binomial tree, with a hierarchical variant across nodes.

Horovod uses broadcast once at startup to synchronize initial model
parameters (paper §III-A step 2), so absolute performance matters less
than for allreduce; the binomial tree is what MVAPICH2 uses for the
relevant message range.
"""

from __future__ import annotations

from repro.mpi.collectives.base import CollectiveTiming, PairTransfer, StepCoster
from repro.utils.folds import fold_sum


def _binomial_order(group: list[int]) -> list[list[PairTransfer]]:
    """Root = group[0]; standard binomial dissemination."""
    g = len(group)
    steps: list[list[PairTransfer]] = []
    have = 1  # first `have` entries already hold the data
    while have < g:
        transfers = []
        for i in range(min(have, g - have)):
            transfers.append(PairTransfer(group[i], group[have + i], 0))
        steps.append(transfers)
        have *= 2
    return steps


def bcast_timing(
    coster: StepCoster,
    ranks: list[int],
    nbytes: int,
    *,
    root: int | None = None,
    buffer_ids: dict[int, int] | None = None,
) -> CollectiveTiming:
    """Time a broadcast of ``nbytes`` from ``root`` (default: first rank)."""
    p = len(ranks)
    if p <= 1 or nbytes == 0:
        return CollectiveTiming("bcast", "binomial", nbytes, p, 0.0, coster.mode)
    root = ranks[0] if root is None else root
    ordered = [root] + [r for r in ranks if r != root]

    def bid(rank: int) -> int | None:
        return buffer_ids.get(rank) if buffer_ids else None

    transport = coster.transport
    node_of = {r: transport.ranks[r].node_id for r in ranks}
    nodes = sorted(set(node_of.values()))
    segments: dict[str, float] = {}
    if len(nodes) == 1:
        steps = [
            [
                PairTransfer(t.src, t.dst, nbytes, bid(t.src), bid(t.dst))
                for t in step
            ]
            for step in _binomial_order(ordered)
        ]
        segments["tree"] = coster.run_steps(steps)
    else:
        # Hierarchical: binomial among node leaders, then within each node.
        by_node: dict[int, list[int]] = {}
        for r in ordered:
            by_node.setdefault(node_of[r], []).append(r)
        # leader of root's node is the root itself (ordered puts it first)
        leader_list = [group[0] for _, group in sorted(
            by_node.items(), key=lambda kv: (kv[0] != node_of[root], kv[0])
        )]
        inter = [
            [PairTransfer(t.src, t.dst, nbytes, bid(t.src), bid(t.dst)) for t in step]
            for step in _binomial_order(leader_list)
        ]
        segments["inter_tree"] = coster.run_steps(inter)
        intra_steps: list[list[PairTransfer]] = []
        per_node_schedules = [
            _binomial_order(group) for group in by_node.values() if len(group) > 1
        ]
        depth = max((len(s) for s in per_node_schedules), default=0)
        for d in range(depth):
            merged = []
            for schedule in per_node_schedules:
                if d < len(schedule):
                    merged.extend(
                        PairTransfer(t.src, t.dst, nbytes, bid(t.src), bid(t.dst))
                        for t in schedule[d]
                    )
            if merged:
                intra_steps.append(merged)
        segments["intra_tree"] = coster.run_steps(intra_steps)
    total = fold_sum(segments.values())
    return CollectiveTiming(
        "bcast", "binomial", nbytes, p, total, coster.mode, segments
    )
