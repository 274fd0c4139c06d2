"""MPI_Bcast: binomial tree, with a hierarchical variant across nodes.

Horovod uses broadcast once at startup to synchronize initial model
parameters (paper §III-A step 2), so absolute performance matters less
than for allreduce; the binomial tree is what MVAPICH2 uses for the
relevant message range.
"""

from __future__ import annotations

from repro.mpi.collectives.base import (
    CollectivePlan,
    CollectiveTiming,
    GroupSchedule,
    StepCoster,
    plan_timing,
    root_first,
)


def _binomial_tree(g: int) -> list[list[tuple[int, int]]]:
    """Binomial dissemination from index 0: each depth's local
    ``(src, dst)`` pairs."""
    depths = []
    have = 1  # the first `have` indices already hold the data
    while have < g:
        depths.append([(i, have + i) for i in range(min(have, g - have))])
        have *= 2
    return depths


def _bcast_plan(
    coster: StepCoster, ranks: list[int], nbytes: int, root: int | None
) -> CollectivePlan:
    if len(ranks) <= 1 or nbytes == 0:
        return CollectivePlan("binomial")
    ordered = root_first(ranks, root)

    def tree(groups: list[list[int]]) -> GroupSchedule:
        return GroupSchedule(groups, _binomial_tree, nbytes)

    # each group starts at its node's first rank in root-first order, so
    # the root leads its own node
    groups = coster.node_groups(ordered)
    if len(groups) == 1:
        return CollectivePlan("binomial", (("tree", tree(groups), False),))
    # Hierarchical: binomial among node leaders, root's node first and the
    # rest in node order (rank order, as ranks are node-major), then within
    # each node.  The leaders span nodes: materialized, so every step is
    # walked.
    leaders = [ordered[0]] + sorted(group[0] for group in groups[1:])
    return CollectivePlan("binomial", (
        ("inter_tree", list(tree([leaders])), False),
        ("intra_tree", tree(groups), False),
    ))


def bcast_timing(
    coster: StepCoster,
    ranks: list[int],
    nbytes: int,
    *,
    root: int | None = None,
    buffer_ids: dict[int, int] | None = None,
) -> CollectiveTiming:
    """Time a broadcast of ``nbytes`` from ``root`` (default: first rank)."""
    return plan_timing(
        coster, "bcast", ranks, nbytes,
        lambda: _bcast_plan(coster, ranks, nbytes, root),
        variant=root, buffer_ids=buffer_ids,
    )
