"""MPI_Reduce: binomial tree onto a root."""

from __future__ import annotations

from repro.mpi.collectives.allreduce import _binomial_reduce_tree
from repro.mpi.collectives.base import (
    CollectivePlan,
    CollectiveTiming,
    GroupSchedule,
    StepCoster,
    plan_timing,
    root_first,
)


def reduce_timing(
    coster: StepCoster,
    ranks: list[int],
    nbytes: int,
    *,
    root: int | None = None,
    buffer_ids: dict[int, int] | None = None,
) -> CollectiveTiming:
    """Time a binomial-tree reduce of ``nbytes`` onto ``root`` (default:
    first rank)."""

    def build() -> CollectivePlan:
        if len(ranks) <= 1 or nbytes == 0:
            return CollectivePlan("binomial")
        # one tree over every rank, widest distance first, materialized
        # so each step is walked
        steps = list(GroupSchedule(
            [root_first(ranks, root)], lambda g: _binomial_reduce_tree(g)[::-1],
            nbytes,
        ))
        return CollectivePlan("binomial", (("tree", steps, True),))

    return plan_timing(
        coster, "reduce", ranks, nbytes, build,
        variant=root, buffer_ids=buffer_ids,
    )
