"""Communicator facade: functional semantics + simulated timing.

The simulation runs all ranks lock-step in one Python process (bulk-
synchronous SPMD): a collective call receives *every* rank's buffer at
once, performs the real numpy reduction (functional mode), and obtains the
operation's simulated duration from its world.

:class:`Communicator` is the one communicator of every backend.  A world
(:class:`MpiWorld`, :class:`~repro.nccl.NcclWorld`,
:class:`~repro.comm.hierarchical.HierarchicalWorld`) only prices
collectives: one ``price_<collective>(comm, ...)`` method each, with the
same signature in every world.

Profilers subscribe as observers — this is the seam ``hvprof`` hooks into.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence

import numpy as np

from repro.comm.selection import SelectionTable
from repro.cuda.memory import DeviceAllocation
from repro.errors import MpiError
from repro.hardware.cluster import Cluster
from repro.mpi.collectives import (
    CollectiveTiming,
    ExecutionMode,
    StepCoster,
    allgather_timing,
    allreduce_timing,
    alltoall_timing,
    barrier_timing,
    bcast_timing,
    gather_timing,
    reduce_scatter_timing,
    reduce_timing,
    scatter_timing,
)
from repro.mpi.datatypes import Datatype, ReduceOp
from repro.mpi.process import RankContext, WorldSpec, build_world
from repro.mpi.transports import TransportModel


@dataclass
class GpuBuffer:
    """A (possibly virtual) device buffer participating in collectives.

    ``buffer_id`` is the registration-cache / IPC identity: Horovod's fusion
    buffer keeps one id across training steps, which is what makes the
    registration cache effective.  ``data`` is present in functional mode
    and ``None`` in performance mode.
    """

    nbytes: int
    dtype: Datatype = Datatype.FLOAT32
    data: Optional[np.ndarray] = None
    name: str = ""
    buffer_id: int = field(default_factory=lambda: next(DeviceAllocation._ids))

    def __post_init__(self) -> None:
        if self.nbytes < 0:
            raise MpiError(f"buffer size must be >= 0, got {self.nbytes}")
        if self.data is not None:
            actual = self.data.size * self.data.itemsize
            if actual != self.nbytes:
                raise MpiError(
                    f"buffer {self.name!r}: data is {actual}B but nbytes={self.nbytes}"
                )

    @classmethod
    def from_array(cls, array: np.ndarray, name: str = "") -> "GpuBuffer":
        return cls(
            nbytes=array.size * array.itemsize,
            dtype=Datatype.from_numpy(array.dtype),
            data=array,
            name=name,
        )

    @classmethod
    def virtual(
        cls, nbytes: int, dtype: Datatype = Datatype.FLOAT32, name: str = ""
    ) -> "GpuBuffer":
        return cls(nbytes=nbytes, dtype=dtype, name=name)

    @property
    def elements(self) -> int:
        return self.nbytes // self.dtype.size


CollectiveObserver = Callable[[CollectiveTiming, str], None]


def apply_allreduce(
    buffers: Sequence[GpuBuffer], op: ReduceOp, *, average: bool = False
) -> None:
    """Functional-mode allreduce arithmetic."""
    datas = [b.data for b in buffers]
    if all(d is None for d in datas):
        return
    if any(d is None for d in datas):
        raise MpiError("mixed functional/virtual buffers in one allreduce")
    if average and op is not ReduceOp.SUM:
        raise MpiError("average=True requires ReduceOp.SUM")
    reduced = op.reduce([d for d in datas])
    if average:
        reduced = reduced / len(datas)
    for d in datas:
        np.copyto(d, reduced.astype(d.dtype, copy=False))


def apply_bcast(buffers: Sequence[GpuBuffer], root_index: int) -> None:
    """Functional-mode bcast."""
    root_data = buffers[root_index].data
    if root_data is None:
        return
    for i, b in enumerate(buffers):
        if i == root_index:
            continue
        if b.data is None:
            raise MpiError("mixed functional/virtual buffers in one bcast")
        np.copyto(b.data, root_data)


class MpiWorld:
    """Owns the ranks, transport model, and timing engine for one job.

    Prices every collective a :class:`Communicator` runs on it, including
    the MPI-only ones (reduce, gather, scatter, alltoall).  Every pricing
    method but the barrier's first opens a new MPI call scope on the
    transport.  An analytic world is built with the ring closed form
    attached (:func:`repro.sim.fastpath.enable_fastpath`).
    """

    backend_name = "mpi"
    error = MpiError

    def __init__(
        self,
        cluster: Cluster,
        spec: WorldSpec,
        *,
        mode: ExecutionMode = ExecutionMode.ANALYTIC,
        faults=None,
        retry=None,
    ):
        self.cluster = cluster
        self.spec = spec
        self.ranks: list[RankContext] = build_world(cluster, spec)
        self.transport = TransportModel(
            cluster, spec.config, self.ranks, faults=faults, retry=retry
        )
        self.coster = StepCoster(self.transport, mode)
        self.mode = mode
        self.faults = faults
        # imported here, so a wrapped enable_fastpath sees every session
        from repro.sim.fastpath import enable_fastpath

        enable_fastpath(self)

    @property
    def size(self) -> int:
        return len(self.ranks)

    def communicator(
        self, *, table: SelectionTable | None = None
    ) -> "Communicator":
        return Communicator(self, [r.rank for r in self.ranks], table=table)

    def regcache_stats(self) -> dict[str, float]:
        return self.transport.regcache_stats()

    # -- pricing ----------------------------------------------------------------
    def price_allreduce(self, comm, buffers, nbytes, algorithm):
        self.transport.begin_collective()
        return allreduce_timing(
            self.coster,
            comm.ranks,
            nbytes,
            buffer_ids=_buffer_ids(comm, buffers),
            algorithm=algorithm,
            dtype_bytes=buffers[0].dtype.size,
        )

    def price_bcast(self, comm, buffers, nbytes, root_index):
        self.transport.begin_collective()
        return bcast_timing(
            self.coster,
            comm.ranks,
            nbytes,
            root=comm.ranks[root_index],
            buffer_ids=_buffer_ids(comm, buffers),
        )

    def price_allgather(self, comm, buffers, nbytes):
        self.transport.begin_collective()
        return allgather_timing(
            self.coster,
            comm.ranks,
            nbytes,
            buffer_ids=_buffer_ids(comm, buffers),
            dtype_bytes=buffers[0].dtype.size,
        )

    def price_reduce_scatter(self, comm, buffers, nbytes):
        self.transport.begin_collective()
        return reduce_scatter_timing(
            self.coster,
            comm.ranks,
            nbytes,
            buffer_ids=_buffer_ids(comm, buffers),
            dtype_bytes=buffers[0].dtype.size,
        )

    def price_barrier(self, comm):
        return barrier_timing(self.coster, comm.ranks)

    def price_reduce(self, comm, buffers, nbytes, root_index):
        self.transport.begin_collective()
        return reduce_timing(
            self.coster,
            comm.ranks,
            nbytes,
            root=comm.ranks[root_index],
            buffer_ids=_buffer_ids(comm, buffers),
        )

    def price_gather(self, comm, buffers, nbytes, root_index):
        self.transport.begin_collective()
        return gather_timing(
            self.coster, comm.ranks, nbytes, root=comm.ranks[root_index]
        )

    def price_scatter(self, comm, buffers, nbytes, root_index):
        self.transport.begin_collective()
        return scatter_timing(
            self.coster, comm.ranks, nbytes, root=comm.ranks[root_index]
        )

    def price_alltoall(self, comm, nbytes_per_pair):
        self.transport.begin_collective()
        return alltoall_timing(self.coster, comm.ranks, nbytes_per_pair)


def _buffer_ids(comm, buffers: Sequence[GpuBuffer]) -> dict[int, int]:
    return {rank: buf.buffer_id for rank, buf in zip(comm.ranks, buffers)}


class Communicator:
    """Lock-step SPMD communicator over a subset of a world's ranks.

    The one communicator of every backend.  It validates buffers, performs
    the functional arithmetic, routes an allreduce without an explicit
    ``algorithm`` through its selection ``table`` (when it has one), and
    reports each timing to its observers; the world prices the collective.
    Errors are raised as the world's ``error`` class.
    """

    def __init__(
        self, world, ranks: Sequence[int], *, table: SelectionTable | None = None
    ):
        self.world = world
        self.ranks = list(ranks)
        self.table = table
        self.observers: list[CollectiveObserver] = []
        self.total_comm_time = 0.0
        self.op_count = 0

    @property
    def size(self) -> int:
        return len(self.ranks)

    def add_observer(self, observer: CollectiveObserver) -> None:
        self.observers.append(observer)

    def restrict(self, ranks: Sequence[int]) -> "Communicator":
        """Sub-communicator on a subset of this communicator's ranks
        (elastic ring shrink after a rank failure).  Observers and the
        table carry over."""
        missing = set(ranks) - set(self.ranks)
        if missing:
            raise self.world.error(
                f"cannot restrict to ranks {sorted(missing)} not in "
                f"communicator {self.ranks}"
            )
        if not ranks:
            raise self.world.error("cannot restrict a communicator to zero ranks")
        return self.reform(ranks)

    def reform(self, ranks: Sequence[int]) -> "Communicator":
        """Communicator over any subset of the *world's* ranks.

        Unlike :meth:`restrict`, the new membership need not be contained
        in this communicator's — an elastic re-grow re-admits a rank that
        was dropped earlier, as long as it is still in the world.
        Observers and the table carry over either way.
        """
        size = self.world.size
        unknown = {r for r in ranks if not 0 <= r < size}
        if unknown:
            raise self.world.error(
                f"cannot form a communicator on ranks {sorted(unknown)} "
                f"outside the {size}-rank world"
            )
        if not ranks:
            raise self.world.error("cannot form a communicator over zero ranks")
        sub = Communicator(self.world, ranks, table=self.table)
        sub.observers = list(self.observers)
        return sub

    # -- internal ------------------------------------------------------------
    def _validate(self, buffers: Sequence[GpuBuffer]) -> int:
        if len(buffers) != self.size:
            raise self.world.error(
                f"collective needs {self.size} buffers (one per rank), got {len(buffers)}"
            )
        sizes = {b.nbytes for b in buffers}
        if len(sizes) != 1:
            raise self.world.error(
                f"mismatched buffer sizes across ranks: {sorted(sizes)}"
            )
        return sizes.pop()

    def _notify(self, timing: CollectiveTiming) -> CollectiveTiming:
        self.total_comm_time += timing.time
        self.op_count += 1
        for observer in self.observers:
            observer(timing, self.world.backend_name)
        return timing

    # -- collectives --------------------------------------------------------------
    def allreduce(
        self,
        buffers: Sequence[GpuBuffer],
        op: ReduceOp = ReduceOp.SUM,
        *,
        average: bool = False,
        algorithm: str | None = None,
    ) -> CollectiveTiming:
        """Element-wise reduce across ranks; result replaces each buffer's data."""
        nbytes = self._validate(buffers)
        if algorithm is None and self.table is not None:
            algorithm = self.table.lookup(nbytes, self.size)
        apply_allreduce(buffers, op, average=average)
        return self._notify(
            self.world.price_allreduce(self, buffers, nbytes, algorithm)
        )

    def bcast(
        self, buffers: Sequence[GpuBuffer], *, root_index: int = 0
    ) -> CollectiveTiming:
        """Copy the root's data to all ranks."""
        nbytes = self._validate(buffers)
        apply_bcast(buffers, root_index)
        return self._notify(
            self.world.price_bcast(self, buffers, nbytes, root_index)
        )

    def allgather(
        self, buffers: Sequence[GpuBuffer]
    ) -> tuple[list[np.ndarray] | None, CollectiveTiming]:
        """Gather every rank's data to all ranks."""
        nbytes = self._validate(buffers)
        datas = [b.data for b in buffers]
        gathered = None
        if all(d is not None for d in datas):
            gathered = [d.copy() for d in datas]
        timing = self.world.price_allgather(self, buffers, nbytes)
        return gathered, self._notify(timing)

    def reduce_scatter(
        self, buffers: Sequence[GpuBuffer], op: ReduceOp = ReduceOp.SUM
    ) -> tuple[list[np.ndarray] | None, CollectiveTiming]:
        """Reduce every rank's full vector, scatter one shard per rank.

        Each buffer holds the full input; rank i ends with the i-th
        ``nbytes / size`` shard of the element-wise reduction (the
        reduce-scatter phase of the ring allreduce run standalone).
        """
        nbytes = self._validate(buffers)
        if self.size > 1 and nbytes % self.size:
            raise self.world.error(
                f"reduce_scatter needs nbytes divisible by {self.size} "
                f"ranks, got {nbytes}"
            )
        datas = [b.data for b in buffers]
        scattered = None
        if all(d is not None for d in datas):
            reduced = op.reduce([d for d in datas])
            if reduced.size % self.size == 0:
                scattered = [c.copy() for c in np.split(reduced, self.size)]
        timing = self.world.price_reduce_scatter(
            self, buffers, nbytes // self.size
        )
        return scattered, self._notify(timing)

    def barrier(self) -> CollectiveTiming:
        return self._notify(self.world.price_barrier(self))

    def reduce(
        self,
        buffers: Sequence[GpuBuffer],
        op: ReduceOp = ReduceOp.SUM,
        *,
        root_index: int = 0,
    ) -> CollectiveTiming:
        nbytes = self._validate(buffers)
        datas = [b.data for b in buffers]
        if all(d is not None for d in datas):
            reduced = op.reduce([d for d in datas])
            np.copyto(buffers[root_index].data, reduced)
        return self._notify(
            self.world.price_reduce(self, buffers, nbytes, root_index)
        )

    def gather(
        self, buffers: Sequence[GpuBuffer], *, root_index: int = 0
    ) -> tuple[list[np.ndarray] | None, CollectiveTiming]:
        """Collect every rank's buffer at the root."""
        nbytes = self._validate(buffers)
        datas = [b.data for b in buffers]
        gathered = [d.copy() for d in datas] if all(
            d is not None for d in datas
        ) else None
        timing = self.world.price_gather(self, buffers, nbytes, root_index)
        return gathered, self._notify(timing)

    def scatter(
        self,
        blocks: Sequence[np.ndarray] | None,
        buffers: Sequence[GpuBuffer],
        *,
        root_index: int = 0,
    ) -> CollectiveTiming:
        """Distribute the root's per-rank blocks into each rank's buffer."""
        nbytes = self._validate(buffers)
        if blocks is not None:
            if len(blocks) != self.size:
                raise self.world.error(
                    f"scatter needs {self.size} blocks, got {len(blocks)}"
                )
            for block, buf in zip(blocks, buffers):
                if buf.data is not None:
                    np.copyto(buf.data, block)
        return self._notify(
            self.world.price_scatter(self, buffers, nbytes, root_index)
        )

    def alltoall(self, nbytes_per_pair: int) -> CollectiveTiming:
        """Timing-only alltoall (no DL-training use; completeness of the
        MPI surface for protocol studies)."""
        return self._notify(self.world.price_alltoall(self, nbytes_per_pair))
