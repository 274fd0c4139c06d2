"""Backend registry: one factory seam for every communication backend.

``build_communicator`` is what the layers above (the step program, the
hybrid executor, the tuner, the CLI) call.  Each backend is a world
factory keyed by name; the world builds the one
:class:`~repro.mpi.comm.Communicator`, so algorithm-selection tables and
observers apply uniformly, and ``faults`` is threaded into *every*
backend's cost envelope.

World sizing is strict: a backend that needs a rank count gets it from
``num_ranks`` or ``world_spec`` explicitly — there is no silent fallback
to ``cluster.num_gpus`` (that fallback used to let an NCCL study quietly
simulate the wrong world when both were omitted).
"""

from __future__ import annotations

from repro.errors import ConfigError
from repro.comm.selection import SelectionTable
from repro.mpi.collectives import ExecutionMode


def resolve_world_size(world_spec, num_ranks, *, backend: str) -> int:
    """Explicit world sizing or a hard error — never a silent guess."""
    if num_ranks is not None:
        return num_ranks
    if world_spec is not None:
        return world_spec.num_ranks
    raise ConfigError(
        f"{backend!r} backend needs an explicit world size: pass num_ranks "
        f"or world_spec (refusing to fall back to cluster.num_gpus)"
    )


def _build_mpi(cluster, world_spec, num_ranks, mode, faults):
    from repro.mpi.comm import MpiWorld

    if world_spec is None:
        raise ConfigError("MPI backend requires a WorldSpec")
    return MpiWorld(cluster, world_spec, mode=mode, faults=faults)


def _build_nccl(cluster, world_spec, num_ranks, mode, faults):
    from repro.nccl.communicator import NcclWorld

    ranks = resolve_world_size(world_spec, num_ranks, backend="nccl")
    return NcclWorld(cluster, ranks, faults=faults)


def _build_hierarchical(cluster, world_spec, num_ranks, mode, faults):
    from repro.comm.hierarchical import HierarchicalWorld

    ranks = resolve_world_size(world_spec, num_ranks, backend="hierarchical")
    return HierarchicalWorld(cluster, ranks, faults=faults)


#: name -> factory(cluster, world_spec, num_ranks, mode, faults) -> world
_FACTORIES = {
    "mpi": _build_mpi,
    "nccl": _build_nccl,
    "hierarchical": _build_hierarchical,
}


def available_backends() -> list[str]:
    return sorted(_FACTORIES)


def build_communicator(
    cluster,
    backend: str,
    *,
    world_spec=None,
    num_ranks: int | None = None,
    mode: ExecutionMode = ExecutionMode.ANALYTIC,
    faults=None,
    table: SelectionTable | None = None,
):
    """Return ``(world, communicator)`` for the requested backend.

    MPI requires a :class:`~repro.mpi.process.WorldSpec` (visibility
    policy + MV2 config); NCCL and the hierarchical backend need an
    explicit rank count (``num_ranks`` or ``world_spec``).  ``faults`` (a
    :class:`~repro.faults.FaultInjector`) perturbs every backend: the MPI
    transport sees per-message verdicts, and the NCCL/hierarchical cost
    envelopes degrade their link classes and charge message-fault
    penalties through the same injector.

    ``table`` (a :class:`SelectionTable` built for ``backend``) routes the
    communicator's collectives; without one the communicator passes
    ``algorithm=None`` and each backend applies its own heuristic.
    """
    factory = _FACTORIES.get(backend)
    if factory is None:
        raise ConfigError(
            f"unknown backend {backend!r}; available: {available_backends()}"
        )
    if table is not None and table.backend != backend:
        raise ConfigError(
            f"selection table for {table.backend!r} cannot route the "
            f"{backend!r} backend"
        )
    world = factory(cluster, world_spec, num_ranks, mode, faults)
    return world, world.communicator(table=table)
