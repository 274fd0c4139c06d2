"""MPI_Bcast: binomial tree, with a hierarchical variant across nodes.

Horovod uses broadcast once at startup to synchronize initial model
parameters (paper §III-A step 2), so absolute performance matters less
than for allreduce; the binomial tree is what MVAPICH2 uses for the
relevant message range.
"""

from __future__ import annotations

from repro.mpi.collectives.base import CollectiveTiming, GroupSchedule, StepCoster
from repro.utils.folds import fold_sum


def _binomial_tree(g: int) -> list[list[tuple[int, int]]]:
    """Binomial dissemination from index 0: each depth's local
    ``(src, dst)`` pairs."""
    depths = []
    have = 1  # the first `have` indices already hold the data
    while have < g:
        depths.append([(i, have + i) for i in range(min(have, g - have))])
        have *= 2
    return depths


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

    def tree(groups: list[list[int]]) -> GroupSchedule:
        return GroupSchedule(groups, _binomial_tree, nbytes, buffer_ids)

    transport = coster.transport
    node_of = {r: transport.ranks[r].node_id for r in ranks}
    nodes = sorted(set(node_of.values()))
    segments: dict[str, float] = {}
    if len(nodes) == 1:
        segments["tree"] = coster.run_steps(tree([ordered]))
    else:
        # Hierarchical: binomial among node leaders, then within each node.
        by_node: dict[int, list[int]] = {}
        for r in ordered:
            by_node.setdefault(node_of[r], []).append(r)
        # leader of root's node is the root itself (ordered puts it first)
        leader_list = [group[0] for _, group in sorted(
            by_node.items(), key=lambda kv: (kv[0] != node_of[root], kv[0])
        )]
        # the leaders span nodes: materialized, so every step is walked
        segments["inter_tree"] = coster.run_steps(list(tree([leader_list])))
        segments["intra_tree"] = coster.run_steps(tree(list(by_node.values())))
    total = fold_sum(segments.values())
    return CollectiveTiming(
        "bcast", "binomial", nbytes, p, total, coster.mode, segments
    )
