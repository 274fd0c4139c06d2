"""The backend-agnostic communicator surface.

:class:`CollectiveOp` / :class:`Communicator` name the protocol every
backend implements (MPI, NCCL, hierarchical); :class:`RoutedCommunicator`
is the thin routing shell the rest of the stack talks to.  It

* consults the backend's active :class:`~repro.comm.selection.
  SelectionTable` (when one is installed) to pick the collective
  algorithm per (message size, world size) — and passes ``algorithm=None``
  otherwise, so default routing is bit-identical to the pre-refactor
  backends;
* records one :class:`~repro.comm.records.CommRecord` per executed
  collective via the backend's own observer seam, so *every* op —
  including ones issued on the underlying communicator directly — lands
  in the unified accounting stream;
* delegates everything else (restrict/reform, observers, the long tail of
  MPI-only collectives) to the wrapped backend communicator.
"""

from __future__ import annotations

from typing import Protocol, Sequence, runtime_checkable

from repro.comm.records import CommRecord
from repro.comm.selection import SelectionTable


@runtime_checkable
class CollectiveOp(Protocol):
    """Return type contract of every collective: a CollectiveTiming-like."""

    op: str
    algorithm: str
    nbytes: int
    time: float


@runtime_checkable
class Communicator(Protocol):
    """What every backend communicator must offer the layers above."""

    @property
    def size(self) -> int: ...  # pragma: no cover - protocol

    def add_observer(self, observer) -> None: ...  # pragma: no cover

    def allreduce(self, buffers, *args, **kwargs): ...  # pragma: no cover

    def bcast(self, buffers, *, root_index: int = 0): ...  # pragma: no cover

    def barrier(self): ...  # pragma: no cover

    def restrict(self, ranks: Sequence[int]): ...  # pragma: no cover

    def reform(self, ranks: Sequence[int]): ...  # pragma: no cover


class _Recorder:
    """The observer a :class:`RoutedCommunicator` attaches to its backend.

    It holds only the record list and the table digest, never the wrapper:
    a bound method would close the cycle wrapper → backend → observers →
    wrapper, and a dropped communicator would then wait for the cyclic
    collector instead of being freed by reference counting.
    """

    __slots__ = ("records", "table_digest")

    def __init__(self, records: list[CommRecord], table_digest: str | None):
        self.records = records
        self.table_digest = table_digest

    def __call__(self, timing, backend: str) -> None:
        self.records.append(
            CommRecord.from_timing(timing, backend, table_digest=self.table_digest)
        )


class RoutedCommunicator:
    """Table-routing, record-emitting wrapper over a backend communicator."""

    def __init__(self, inner, *, table: SelectionTable | None = None):
        self.inner = inner
        self.table = table
        self.records: list[CommRecord] = []
        # one recorder per wrapper: _rewrap strips it from a sub-communicator
        # by identity
        self._recorder = _Recorder(
            self.records, table.digest() if table is not None else None
        )
        inner.add_observer(self._recorder)

    # -- identity -----------------------------------------------------------
    @property
    def backend_name(self) -> str:
        return self.inner.world.backend_name

    @property
    def size(self) -> int:
        return self.inner.size

    @property
    def world(self):
        return self.inner.world

    @property
    def ranks(self):
        return self.inner.ranks

    @property
    def total_comm_time(self) -> float:
        return self.inner.total_comm_time

    @property
    def op_count(self) -> int:
        return self.inner.op_count

    # -- routed collectives -------------------------------------------------
    def _route(self, nbytes: int, algorithm: str | None) -> str | None:
        if algorithm is not None:
            return algorithm
        if self.table is None:
            return None
        return self.table.lookup(nbytes, self.size)

    def allreduce(self, buffers, *args, **kwargs):
        algorithm = kwargs.pop("algorithm", None)
        nbytes = max((b.nbytes for b in buffers), default=0)
        return self.inner.allreduce(
            buffers, *args, algorithm=self._route(nbytes, algorithm), **kwargs
        )

    def bcast(self, buffers, *, root_index: int = 0):
        return self.inner.bcast(buffers, root_index=root_index)

    def barrier(self):
        return self.inner.barrier()

    # -- elasticity ---------------------------------------------------------
    def _rewrap(self, sub) -> "RoutedCommunicator":
        # the sub-communicator inherited this wrapper's recorder observer;
        # strip it so the new wrapper's recorder is the only one attached
        sub.observers = [o for o in sub.observers if o is not self._recorder]
        return RoutedCommunicator(sub, table=self.table)

    def restrict(self, ranks: Sequence[int]) -> "RoutedCommunicator":
        return self._rewrap(self.inner.restrict(ranks))

    def reform(self, ranks: Sequence[int]) -> "RoutedCommunicator":
        return self._rewrap(self.inner.reform(ranks))

    # -- everything else (observer management, MPI-only collectives) --------
    def __getattr__(self, name):
        return getattr(self.inner, name)


def broadcast_weights(comm, nbytes: int):
    """Charge a weight (re-)broadcast over an existing communicator.

    Used by elastic re-grow: the regrown replica's state is cloned
    functionally, and this prices pushing it over the re-formed ring.
    Returns the backend's CollectiveTiming (zero-op on trivial worlds).
    """
    from repro.mpi.comm import GpuBuffer

    if comm.size <= 1 or nbytes <= 0:
        return None
    return comm.bcast([GpuBuffer.virtual(nbytes) for _ in range(comm.size)])
