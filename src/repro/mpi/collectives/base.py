"""Shared infrastructure for collective timing engines."""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field

from repro.comm.cost import FLOAT32_BYTES, reduce_time
from repro.cuda.kernels import KernelCostModel
from repro.errors import MpiError
from repro.mpi.transports import (
    STAGED_KINDS,
    TransferQuote,
    TransportKind,
    TransportModel,
)


class ExecutionMode(enum.Enum):
    """How collective time is obtained."""

    ANALYTIC = "analytic"
    EVENT = "event"


@dataclass
class CollectiveTiming:
    """Result of timing one collective operation."""

    op: str
    algorithm: str
    nbytes: int
    num_ranks: int
    time: float
    mode: ExecutionMode
    segments: dict[str, float] = field(default_factory=dict)

    def __repr__(self) -> str:
        return (
            f"<{self.op}[{self.algorithm}] n={self.nbytes}B p={self.num_ranks} "
            f"t={self.time * 1e3:.3f}ms ({self.mode.value})>"
        )


@dataclass(frozen=True)
class PairTransfer:
    """One point-to-point transfer inside an algorithm step.

    ``buffer_extent`` is the full size of the communication buffer this
    transfer's chunk belongs to: IB registration pins the whole buffer
    once per MPI call, not each chunk.

    ``dtype_bytes`` is the wire element width; reduction kernels process
    ``nbytes / dtype_bytes`` elements, so compressed (2-byte) payloads
    reduce twice as many elements per byte as fp32.
    """

    src: int
    dst: int
    nbytes: int
    src_buffer: int | None = None
    dst_buffer: int | None = None
    buffer_extent: int | None = None
    dtype_bytes: int = FLOAT32_BYTES


class RingSchedule:
    """Lazily materialized ring-phase step schedule.

    A ring phase touches only ~2p distinct transfers (p neighbour pairs x
    at most two chunk sizes) yet walks them across p-1 steps, so eagerly
    materializing the full ``p * (p-1)`` transfer grid dominates
    schedule-build time at high rank counts.  This sequence behaves like
    the list-of-steps it replaces — iteration and indexing materialize
    step lists on demand from a pool of shared frozen transfers — while
    exposing the compact descriptor the analytic fast path consumes
    directly (``repro.sim.fastpath`` computes ring makespans from the
    descriptor without ever materializing the grid).

    Chunk layout follows :func:`chunk_sizes`: the first ``rem`` chunks
    carry ``chunk_big`` bytes and the rest ``chunk_small``; step ``s``
    transfer ``i`` carries chunk ``(i - s) % p``.
    """

    is_ring_schedule = True

    __slots__ = (
        "ranks",
        "chunk_small",
        "chunk_big",
        "rem",
        "extent",
        "buffer_ids",
        "dtype_bytes",
        "_small",
        "_big",
        "_steps",
    )

    def __init__(
        self,
        ranks: list[int],
        *,
        chunk_small: int,
        chunk_big: int,
        rem: int,
        extent: int | None,
        buffer_ids: dict[int, int] | None,
        dtype_bytes: int = FLOAT32_BYTES,
    ):
        self.ranks = list(ranks)
        self.chunk_small = int(chunk_small)
        self.chunk_big = int(chunk_big)
        self.rem = int(rem)
        self.extent = extent
        self.buffer_ids = buffer_ids
        self.dtype_bytes = int(dtype_bytes)
        self._small: list[PairTransfer] | None = None
        self._big: list[PairTransfer] | None = None
        self._steps: list[list[PairTransfer]] | None = None

    @classmethod
    def chunked(
        cls,
        ranks: list[int],
        nbytes: int,
        buffer_ids: dict[int, int] | None,
        dtype_bytes: int = FLOAT32_BYTES,
    ) -> "RingSchedule":
        """Chunked allreduce ring: ``nbytes`` split near-equally over p."""
        base, rem = divmod(int(nbytes), max(len(ranks), 1))
        return cls(
            ranks,
            chunk_small=base,
            chunk_big=base + 1,
            rem=rem,
            extent=int(nbytes),
            buffer_ids=buffer_ids,
            dtype_bytes=dtype_bytes,
        )

    @classmethod
    def uniform(
        cls,
        ranks: list[int],
        nbytes: int,
        buffer_ids: dict[int, int] | None,
        dtype_bytes: int = FLOAT32_BYTES,
    ) -> "RingSchedule":
        """Allgather ring: every transfer carries the same ``nbytes``."""
        return cls(
            ranks,
            chunk_small=int(nbytes),
            chunk_big=int(nbytes),
            rem=0,
            extent=None,
            buffer_ids=buffer_ids,
            dtype_bytes=dtype_bytes,
        )

    def __len__(self) -> int:
        return max(len(self.ranks) - 1, 0)

    def _bid(self, rank: int) -> int | None:
        return self.buffer_ids.get(rank) if self.buffer_ids else None

    def pools(self) -> tuple[list[PairTransfer], list[PairTransfer]]:
        """The distinct transfers: (small-chunk pool, big-chunk pool)."""
        if self._small is None:
            ranks = self.ranks
            p = len(ranks)

            def build(nbytes: int) -> list[PairTransfer]:
                return [
                    PairTransfer(
                        src=rank,
                        dst=ranks[(i + 1) % p],
                        nbytes=nbytes,
                        src_buffer=self._bid(rank),
                        dst_buffer=self._bid(ranks[(i + 1) % p]),
                        buffer_extent=self.extent,
                        dtype_bytes=self.dtype_bytes,
                    )
                    for i, rank in enumerate(ranks)
                ]

            self._small = build(self.chunk_small)
            self._big = self._small if self.rem == 0 else build(self.chunk_big)
        return self._small, self._big

    def step(self, s: int) -> list[PairTransfer]:
        """Materialize one step's transfer list from the pools."""
        p = len(self.ranks)
        small, big = self.pools()
        rem = self.rem
        if rem == 0:
            return list(small)
        return [big[i] if (i - s) % p < rem else small[i] for i in range(p)]

    def _materialize(self) -> list[list[PairTransfer]]:
        if self._steps is None:
            self._steps = [self.step(s) for s in range(len(self))]
        return self._steps

    def __iter__(self):
        return iter(self._materialize())

    def __getitem__(self, index):
        return self._materialize()[index]


class StepCoster:
    """Times one BSP step (a set of concurrent transfers) in either mode.

    Analytic mode approximates contention: staged transfers sharing a node's
    staging engines serialize in ``ceil(k / engines)`` waves; everything
    else is assumed conflict-free (algorithms are designed that way).
    """

    def __init__(self, transport: TransportModel, mode: ExecutionMode):
        self.transport = transport
        self.mode = mode
        self.kernel_model = KernelCostModel(transport.cluster.spec.node.gpu)
        self.cpu = transport.cluster.spec.node.cpu
        # Optional repro.sim.fastpath.FastPathSession; when attached (via
        # enable_fastpath), analytic walks reuse memoized transfer quotes
        # and collapse warm ring phases into a closed form.
        self.fastpath = None

    # -- reduction compute costs ------------------------------------------------
    def gpu_reduce_time(self, nbytes: int, dtype_bytes: int = FLOAT32_BYTES) -> float:
        return self.kernel_model.device_reduce_time(nbytes, dtype_bytes)

    def host_reduce_time(self, nbytes: int, dtype_bytes: int = FLOAT32_BYTES) -> float:
        return reduce_time(nbytes, dtype_bytes, reduce_flops=self.cpu.reduce_flops)

    def reduce_time_for(
        self, kind: TransportKind, nbytes: int, dtype_bytes: int = FLOAT32_BYTES
    ) -> float:
        """Reduction executes where the data landed: host for staged paths."""
        if kind in STAGED_KINDS:
            return self.host_reduce_time(nbytes, dtype_bytes)
        return self.gpu_reduce_time(nbytes, dtype_bytes)

    def quote_reduce_time(self, q: TransferQuote, dtype_bytes: int) -> float:
        """:meth:`reduce_time_for` a quoted transfer, cached on the quote."""
        if q.reduce_s is None:
            q.reduce_s = self.reduce_time_for(q.kind, q.nbytes, dtype_bytes)
        return q.reduce_s

    # -- wire corruption (analytic path) -----------------------------------------
    def corruption_active(self) -> bool:
        """True when an attached injector has a live wire-corruption window.

        Checked against the cluster clock (constant during an analytic
        walk), so chaos plans use permanent windows for analytic runs —
        timed windows belong to the event-driven transport path.
        """
        faults = self.transport.faults
        return faults is not None and faults.wire_corruption_active(
            self.transport.cluster.env.now
        )

    def corruption_surcharge(
        self, src: int, dst: int, nbytes: int, t_plain: float
    ) -> float:
        """CRC-detected retransmit charge for one delivered transfer.

        Mirrors the event path's ladder: each corrupt delivery is caught
        by the receiver's CRC pass and retransmitted, charging the CRC
        scan plus a full re-send of the plain transfer.  Every attempt
        consumes exactly one roll of the injector's corruption stream, so
        the exact and fast engines stay bit-identical.  A transfer
        corrupted past the retry budget raises
        :class:`~repro.errors.MpiTimeoutError`, like a lost message.
        """
        from repro.comm.integrity import crc_check_time
        from repro.errors import MpiTimeoutError

        faults = self.transport.faults
        if faults is None or src == dst:
            return 0.0
        now = self.transport.cluster.env.now
        retry = self.transport.retry
        extra = 0.0
        corrupt = 0
        while faults.corruption_verdict(src, dst, now):
            corrupt += 1
            faults.record(
                "crc-detected", now, src=src, dst=dst,
                detail=f"{nbytes}B retransmit",
            )
            extra += crc_check_time(nbytes) + t_plain
            if corrupt > retry.max_retries:
                raise MpiTimeoutError(
                    f"message {src}->{dst} ({nbytes}B) corrupted "
                    f"{corrupt} time(s); retry budget "
                    f"({retry.max_retries}) exhausted"
                )
        return extra

    # -- step timing ---------------------------------------------------------------
    def step_time_analytic(
        self, transfers: list[PairTransfer], *, reduce_after: bool = False
    ) -> float:
        """Makespan of concurrent transfers under the contention model.

        The one analytic step walk: each transfer is quoted (memoized by an
        attached fast-path session, fresh otherwise) and applied, then
        charged its reduction and, under wire corruption, its CRC
        retransmits priced from the plain time it was just charged.
        """
        if not transfers:
            return 0.0
        transport = self.transport
        session = self.fastpath
        corrupting = self.corruption_active()
        quotes = []
        totals = []
        for t in transfers:
            if session is not None:
                q = session.quote(t)
            else:
                q = transport.quote(
                    t.src, t.dst, t.nbytes,
                    src_buffer=t.src_buffer, dst_buffer=t.dst_buffer,
                    buffer_extent=t.buffer_extent,
                )
            plain = (q.wire + q.staging) + transport.apply(q)
            total = plain
            if reduce_after:
                total += self.quote_reduce_time(q, t.dtype_bytes)
            if corrupting:
                total += self.corruption_surcharge(t.src, t.dst, t.nbytes, plain)
            quotes.append(q)
            totals.append(total)
        return self.makespan(quotes, totals)

    def makespan(self, quotes: list[TransferQuote], totals: list[float]) -> float:
        """Makespan of one step's transfers given each one's total time.

        Staged transfers sharing a source node serialize in
        ``ceil(k / staging_engines)`` waves of the slowest; everything else
        overlaps.
        """
        ranks = self.transport.ranks
        staged_by_node: dict[int, list[float]] = {}
        other_max = 0.0
        for q, total in zip(quotes, totals):
            if q.kind in STAGED_KINDS:
                staged_by_node.setdefault(ranks[q.src].node_id, []).append(total)
            else:
                other_max = max(other_max, total)
        engines = self.transport.cluster.spec.node.staging_engines
        staged_max = 0.0
        for times in staged_by_node.values():
            waves = math.ceil(len(times) / engines)
            staged_max = max(staged_max, waves * max(times))
        return max(other_max, staged_max)

    def step_proc(self, transfers: list[PairTransfer], *, reduce_after: bool = False):
        """Event-mode process executing one BSP step."""
        env = self.transport.cluster.env

        def one(t: PairTransfer):
            kind = yield env.process(
                self.transport.transfer_proc(
                    t.src, t.dst, t.nbytes,
                    src_buffer=t.src_buffer, dst_buffer=t.dst_buffer,
                    buffer_extent=t.buffer_extent,
                )
            )
            if reduce_after:
                yield env.timeout(
                    self.reduce_time_for(kind, t.nbytes, t.dtype_bytes))

        procs = [env.process(one(t)) for t in transfers]
        if procs:
            yield env.all_of(procs)

    def run_steps(
        self,
        steps: list[list[PairTransfer]],
        *,
        reduce_after: bool = False,
    ) -> float:
        """Time a full step schedule in the configured mode."""
        if self.mode is ExecutionMode.ANALYTIC:
            session = self.fastpath
            # under a live wire-corruption window every transfer must roll
            # the corruption stream, so no ring step is collapsed
            if (
                session is not None
                and session.collapsible(steps)
                and not self.corruption_active()
            ):
                return session.ring_time(self, steps, reduce_after=reduce_after)
            return sum(
                self.step_time_analytic(step, reduce_after=reduce_after)
                for step in steps
            )
        env = self.transport.cluster.env
        start = env.now

        def driver():
            for step in steps:
                yield env.process(self.step_proc(step, reduce_after=reduce_after))

        proc = env.process(driver())
        env.run(until=proc)
        return env.now - start


def chunk_sizes(nbytes: int, parts: int) -> list[int]:
    """Split ``nbytes`` into ``parts`` near-equal element-aligned chunks."""
    if parts < 1:
        raise MpiError(f"cannot split into {parts} parts")
    base, rem = divmod(int(nbytes), parts)
    return [base + (1 if i < rem else 0) for i in range(parts)]


def is_power_of_two(n: int) -> bool:
    return n > 0 and (n & (n - 1)) == 0
