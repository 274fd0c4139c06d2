"""Communicator facade: functional semantics + simulated timing.

The simulation runs all ranks lock-step in one Python process (bulk-
synchronous SPMD): a collective call receives *every* rank's buffer at
once, as one :class:`GpuBuffers` value (a size, a dtype, one buffer id per
rank and, in functional mode, one array per rank), performs the real
numpy reduction (functional mode), and obtains the operation's simulated
duration from its world.

:class:`Communicator` is the one communicator of every backend.  A world
(:class:`MpiWorld`, :class:`~repro.nccl.NcclWorld`,
:class:`~repro.comm.hierarchical.HierarchicalWorld`) only prices
collectives: one ``price_<collective>(comm, buffers, ...)`` method each,
with the same signature in every world.

Profilers subscribe as observers — this is the seam ``hvprof`` hooks into.
"""

from __future__ import annotations

import itertools
from typing import Callable, Sequence

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


class GpuBuffers:
    """One collective call's (possibly virtual) device buffers, one per rank.

    Every rank's buffer holds ``nbytes`` bytes of ``dtype``.  ``ids`` is
    each rank's registration-cache / IPC identity, in communicator order:
    Horovod's fusion buffer keeps its ids across training steps, which is
    what makes the registration cache effective.  ``datas`` is one array
    per rank in functional mode and ``None`` in performance mode.  A
    value is built once per call and only read after that.
    """

    __slots__ = ("nbytes", "dtype", "ids", "datas", "name")

    def __init__(
        self,
        nbytes: int,
        ids: Sequence[int],
        *,
        dtype: Datatype = Datatype.FLOAT32,
        datas: Sequence[np.ndarray] | None = None,
        name: str = "",
    ):
        if nbytes < 0:
            raise MpiError(f"buffer size must be >= 0, got {nbytes}")
        ids = tuple(ids)
        if datas is not None:
            if len(datas) != len(ids):
                raise MpiError(
                    f"buffers {name!r}: {len(datas)} arrays for {len(ids)} ids"
                )
            for data in datas:
                if data is None:
                    raise MpiError("mixed functional/virtual buffers in one call")
                actual = data.size * data.itemsize
                if actual != nbytes:
                    raise MpiError(
                        f"buffer {name!r}: data is {actual}B but nbytes={nbytes}"
                    )
        self.nbytes = nbytes
        self.dtype = dtype
        self.ids = ids
        self.datas = datas
        self.name = name

    @classmethod
    def virtual(
        cls,
        nbytes: int,
        count: int,
        dtype: Datatype = Datatype.FLOAT32,
        name: str = "",
    ) -> "GpuBuffers":
        """``count`` buffers without data, each with a fresh id."""
        return cls(nbytes, fresh_ids(count), dtype=dtype, name=name)

    @classmethod
    def from_arrays(
        cls, arrays: Sequence[np.ndarray], name: str = ""
    ) -> "GpuBuffers":
        """One buffer per array, each with a fresh id; every array must
        hold as many bytes as the first, whose dtype they all take."""
        first = arrays[0]
        return cls(
            first.size * first.itemsize,
            fresh_ids(len(arrays)),
            dtype=Datatype.from_numpy(first.dtype),
            datas=list(arrays),
            name=name,
        )


def fresh_ids(count: int) -> tuple[int, ...]:
    """``count`` new buffer ids, minted in order from the one device
    allocation counter."""
    return tuple(itertools.islice(DeviceAllocation._ids, count))


CollectiveObserver = Callable[[CollectiveTiming, str], None]


def apply_allreduce(
    buffers: GpuBuffers, op: ReduceOp, *, average: bool = False
) -> None:
    """Functional-mode allreduce arithmetic."""
    datas = buffers.datas
    if datas is None:
        return
    if average and op is not ReduceOp.SUM:
        raise MpiError("average=True requires ReduceOp.SUM")
    reduced = op.reduce(datas)
    if average:
        reduced = reduced / len(datas)
    for d in datas:
        np.copyto(d, reduced.astype(d.dtype, copy=False))


def apply_bcast(buffers: GpuBuffers, root_index: int) -> None:
    """Functional-mode bcast."""
    datas = buffers.datas
    if datas is None:
        return
    root_data = datas[root_index]
    for i, data in enumerate(datas):
        if i != root_index:
            np.copyto(data, root_data)


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
    def price_allreduce(self, comm, buffers, algorithm):
        self.transport.begin_collective()
        return allreduce_timing(
            self.coster,
            comm.ranks,
            buffers.nbytes,
            buffer_ids=_buffer_ids(comm, buffers),
            algorithm=algorithm,
            dtype_bytes=buffers.dtype.size,
        )

    def price_bcast(self, comm, buffers, root_index):
        self.transport.begin_collective()
        return bcast_timing(
            self.coster,
            comm.ranks,
            buffers.nbytes,
            root=comm.ranks[root_index],
            buffer_ids=_buffer_ids(comm, buffers),
        )

    def price_allgather(self, comm, buffers):
        self.transport.begin_collective()
        return allgather_timing(
            self.coster,
            comm.ranks,
            buffers.nbytes,
            buffer_ids=_buffer_ids(comm, buffers),
            dtype_bytes=buffers.dtype.size,
        )

    def price_reduce_scatter(self, comm, buffers):
        self.transport.begin_collective()
        return reduce_scatter_timing(
            self.coster,
            comm.ranks,
            buffers.nbytes // comm.size,
            buffer_ids=_buffer_ids(comm, buffers),
            dtype_bytes=buffers.dtype.size,
        )

    def price_barrier(self, comm):
        return barrier_timing(self.coster, comm.ranks)

    def price_reduce(self, comm, buffers, root_index):
        self.transport.begin_collective()
        return reduce_timing(
            self.coster,
            comm.ranks,
            buffers.nbytes,
            root=comm.ranks[root_index],
            buffer_ids=_buffer_ids(comm, buffers),
        )

    def price_gather(self, comm, buffers, root_index):
        self.transport.begin_collective()
        return gather_timing(
            self.coster, comm.ranks, buffers.nbytes, root=comm.ranks[root_index]
        )

    def price_scatter(self, comm, buffers, root_index):
        self.transport.begin_collective()
        return scatter_timing(
            self.coster, comm.ranks, buffers.nbytes, root=comm.ranks[root_index]
        )

    def price_alltoall(self, comm, nbytes_per_pair):
        self.transport.begin_collective()
        return alltoall_timing(self.coster, comm.ranks, nbytes_per_pair)


def _buffer_ids(comm, buffers: GpuBuffers) -> dict[int, int]:
    """The call's binding of each rank to its buffer id."""
    return dict(zip(comm.ranks, buffers.ids))


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
    def _validate(self, buffers: GpuBuffers) -> None:
        if len(buffers.ids) != self.size:
            raise self.world.error(
                f"collective needs {self.size} buffers (one per rank), "
                f"got {len(buffers.ids)}"
            )

    def _notify(self, timing: CollectiveTiming) -> CollectiveTiming:
        self.total_comm_time += timing.time
        self.op_count += 1
        for observer in self.observers:
            observer(timing, self.world.backend_name)
        return timing

    # -- collectives --------------------------------------------------------------
    def allreduce(
        self,
        buffers: GpuBuffers,
        op: ReduceOp = ReduceOp.SUM,
        *,
        average: bool = False,
        algorithm: str | None = None,
    ) -> CollectiveTiming:
        """Element-wise reduce across ranks; result replaces each buffer's data."""
        self._validate(buffers)
        if algorithm is None and self.table is not None:
            algorithm = self.table.lookup(buffers.nbytes, self.size)
        apply_allreduce(buffers, op, average=average)
        return self._notify(self.world.price_allreduce(self, buffers, algorithm))

    def bcast(self, buffers: GpuBuffers, *, root_index: int = 0) -> CollectiveTiming:
        """Copy the root's data to all ranks."""
        self._validate(buffers)
        apply_bcast(buffers, root_index)
        return self._notify(self.world.price_bcast(self, buffers, root_index))

    def allgather(
        self, buffers: GpuBuffers
    ) -> tuple[list[np.ndarray] | None, CollectiveTiming]:
        """Gather every rank's data to all ranks."""
        self._validate(buffers)
        datas = buffers.datas
        gathered = None if datas is None else [d.copy() for d in datas]
        timing = self.world.price_allgather(self, buffers)
        return gathered, self._notify(timing)

    def reduce_scatter(
        self, buffers: GpuBuffers, op: ReduceOp = ReduceOp.SUM
    ) -> tuple[list[np.ndarray] | None, CollectiveTiming]:
        """Reduce every rank's full vector, scatter one shard per rank.

        Each buffer holds the full input; rank i ends with the i-th
        ``nbytes / size`` shard of the element-wise reduction (the
        reduce-scatter phase of the ring allreduce run standalone).
        """
        self._validate(buffers)
        nbytes = buffers.nbytes
        if self.size > 1 and nbytes % self.size:
            raise self.world.error(
                f"reduce_scatter needs nbytes divisible by {self.size} "
                f"ranks, got {nbytes}"
            )
        scattered = None
        if buffers.datas is not None:
            reduced = op.reduce(buffers.datas)
            if reduced.size % self.size == 0:
                scattered = [c.copy() for c in np.split(reduced, self.size)]
        timing = self.world.price_reduce_scatter(self, buffers)
        return scattered, self._notify(timing)

    def barrier(self) -> CollectiveTiming:
        return self._notify(self.world.price_barrier(self))

    def reduce(
        self,
        buffers: GpuBuffers,
        op: ReduceOp = ReduceOp.SUM,
        *,
        root_index: int = 0,
    ) -> CollectiveTiming:
        self._validate(buffers)
        datas = buffers.datas
        if datas is not None:
            np.copyto(datas[root_index], op.reduce(datas))
        return self._notify(self.world.price_reduce(self, buffers, root_index))

    def gather(
        self, buffers: GpuBuffers, *, root_index: int = 0
    ) -> tuple[list[np.ndarray] | None, CollectiveTiming]:
        """Collect every rank's buffer at the root."""
        self._validate(buffers)
        datas = buffers.datas
        gathered = None if datas is None else [d.copy() for d in datas]
        timing = self.world.price_gather(self, buffers, root_index)
        return gathered, self._notify(timing)

    def scatter(
        self,
        blocks: Sequence[np.ndarray] | None,
        buffers: GpuBuffers,
        *,
        root_index: int = 0,
    ) -> CollectiveTiming:
        """Distribute the root's per-rank blocks into each rank's buffer."""
        self._validate(buffers)
        if blocks is not None:
            if len(blocks) != self.size:
                raise self.world.error(
                    f"scatter needs {self.size} blocks, got {len(blocks)}"
                )
            if buffers.datas is not None:
                for block, data in zip(blocks, buffers.datas):
                    np.copyto(data, block)
        return self._notify(self.world.price_scatter(self, buffers, root_index))

    def alltoall(self, nbytes_per_pair: int) -> CollectiveTiming:
        """Timing-only alltoall (no DL-training use; completeness of the
        MPI surface for protocol studies)."""
        return self._notify(self.world.price_alltoall(self, nbytes_per_pair))
