"""Collective algorithm implementations (timing engines).

Each collective builds a plan (``base.CollectivePlan``: its algorithm and
ordered step-schedule phases), and ``base.plan_timing`` prices every plan,
either *analytically* (closed-form alpha-beta with staging-contention
correction) or *event-driven* (BSP-style: every algorithm step spawns its
transfer processes on the shared event engine and waits for all of them, so
link and staging-engine contention are simulated, not estimated).  Tests
cross-validate the two engines.
"""

from repro.mpi.collectives.base import CollectiveTiming, ExecutionMode, StepCoster
from repro.mpi.collectives.allreduce import (
    allreduce_timing,
    select_allreduce_algorithm,
)
from repro.mpi.collectives.bcast import bcast_timing
from repro.mpi.collectives.allgather import allgather_timing
from repro.mpi.collectives.reduce import reduce_timing
from repro.mpi.collectives.reduce_scatter import reduce_scatter_timing
from repro.mpi.collectives.barrier import barrier_timing
from repro.mpi.collectives.gather import (
    alltoall_timing,
    gather_timing,
    scatter_timing,
)

__all__ = [
    "CollectiveTiming",
    "ExecutionMode",
    "StepCoster",
    "allreduce_timing",
    "select_allreduce_algorithm",
    "bcast_timing",
    "allgather_timing",
    "reduce_timing",
    "reduce_scatter_timing",
    "barrier_timing",
    "gather_timing",
    "scatter_timing",
    "alltoall_timing",
]
