"""Shared infrastructure for collective timing engines."""

from __future__ import annotations

import enum
import math
from collections.abc import Callable, Iterable
from dataclasses import dataclass, field
from typing import NamedTuple

from repro.comm.cost import FLOAT32_BYTES, ScheduleMemo, reduce_time
from repro.comm.integrity import crc_check_time
from repro.cuda.kernels import KernelCostModel
from repro.errors import MpiError, MpiTimeoutError
from repro.mpi.transports import (
    STAGED_KINDS,
    TransferQuote,
    TransportKind,
    TransportModel,
)
from repro.utils.folds import fold_sum


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


@dataclass(slots=True, unsafe_hash=True)
class PairTransfer:
    """One point-to-point transfer inside an algorithm step: pure shape.

    A slotted record, equal and hashed by value.  Not frozen: a frozen
    dataclass builds through ``object.__setattr__`` at about four times
    the cost, and a 4096-rank world builds tens of thousands.  Memoized
    plans share their transfers (:func:`plan_timing`), so nothing may
    assign to one after it is built.

    ``buffer_extent`` is the full size of the communication buffer this
    transfer's chunk belongs to: IB registration pins the whole buffer
    once per MPI call, not each chunk.  Which buffers the transfer moves
    and at what element width are the call's (:class:`CallBinding`).
    """

    src: int
    dst: int
    nbytes: int
    buffer_extent: int | None = None


class CallBinding(NamedTuple):
    """What one call binds to its shared plan when it is priced.

    ``buffer_ids`` maps each rank to its buffer id (``{}`` when the call
    has none; the transport gives a rank it does not name a per-rank
    id).  ``dtype_bytes``
    is the wire element width: reduction kernels process ``nbytes /
    dtype_bytes`` elements, so compressed (2-byte) payloads reduce twice
    as many elements per byte as fp32.  Only the quotes' buffer arguments
    and :meth:`StepCoster.reduction` read it.
    """

    buffer_ids: dict[int, int]
    dtype_bytes: int = FLOAT32_BYTES


def pair_transfers(
    pairs: Iterable[tuple[int, int]],
    nbytes: int,
    extent: int | None = None,
) -> list[PairTransfer]:
    """One step's transfers over ``(src, dst)`` rank pairs."""
    return [PairTransfer(src, dst, nbytes, extent) for src, dst in pairs]


class RingSchedule:
    """Lazily materialized ring-phase step schedule.

    A ring phase touches only ~2p distinct transfers (p neighbour pairs x
    at most two chunk sizes) yet walks them across p-1 steps, so eagerly
    materializing the full ``p * (p-1)`` transfer grid dominates
    schedule-build time at high rank counts.  This sequence behaves like
    the list-of-steps it replaces — iteration and indexing materialize
    step lists on demand from a pool of shared transfers — while
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
    ):
        self.ranks = list(ranks)
        self.chunk_small = int(chunk_small)
        self.chunk_big = int(chunk_big)
        self.rem = int(rem)
        self.extent = extent
        self._small: list[PairTransfer] | None = None
        self._big: list[PairTransfer] | None = None
        self._steps: list[list[PairTransfer]] | None = None

    @classmethod
    def chunked(cls, ranks: list[int], nbytes: int) -> "RingSchedule":
        """Chunked allreduce ring: ``nbytes`` split near-equally over p."""
        base, rem = divmod(int(nbytes), max(len(ranks), 1))
        return cls(
            ranks, chunk_small=base, chunk_big=base + 1, rem=rem,
            extent=int(nbytes),
        )

    @classmethod
    def uniform(cls, ranks: list[int], nbytes: int) -> "RingSchedule":
        """Allgather ring: every transfer carries the same ``nbytes``."""
        return cls(
            ranks, chunk_small=int(nbytes), chunk_big=int(nbytes), rem=0,
            extent=None,
        )

    def __len__(self) -> int:
        return max(len(self.ranks) - 1, 0)

    def pools(self) -> tuple[list[PairTransfer], list[PairTransfer]]:
        """The distinct transfers: (small-chunk pool, big-chunk pool)."""
        if self._small is None:
            ranks = self.ranks
            pairs = list(zip(ranks, ranks[1:] + ranks[:1]))

            self._small = pair_transfers(pairs, self.chunk_small, self.extent)
            self._big = self._small if self.rem == 0 else pair_transfers(
                pairs, self.chunk_big, self.extent
            )
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


class GroupSchedule:
    """Lazily materialized tree phases of node groups, run concurrently.

    Each group holds one node's ranks, and no two groups share a node.  A
    group of ``g`` ranks runs ``tree(g)``: for each depth, the local
    ``(src, dst)`` index pairs of its tree, none empty.  ``depths`` keeps
    them per group size.  Step ``d`` merges every group's depth-``d``
    transfers, group by group in ``groups`` order, so the groups' trees
    run side by side across nodes.  Iteration and :meth:`step`
    materialize steps on demand; the node-group closed form
    (``repro.sim.fastpath``) reads the groups and local pairs directly
    and materializes only the groups it prices and the steps it walks.
    """

    is_group_schedule = True

    __slots__ = ("groups", "depths", "nbytes", "_steps")

    def __init__(
        self,
        groups: list[list[int]],
        tree: Callable[[int], list[list[tuple[int, int]]]],
        nbytes: int,
    ):
        self.groups = groups
        self.depths = {g: tree(g) for g in {len(group) for group in groups}}
        self.nbytes = nbytes
        self._steps: list[list[PairTransfer]] | None = None

    def __len__(self) -> int:
        return max(map(len, self.depths.values()), default=0)

    def transfers(self, group: list[int], d: int) -> list[PairTransfer]:
        """One group's depth-``d`` transfers."""
        return pair_transfers(
            [(group[i], group[j]) for i, j in self.depths[len(group)][d]],
            self.nbytes,
        )

    def step(self, d: int) -> list[PairTransfer]:
        """Materialize step ``d``: every group's depth-``d`` transfers."""
        merged: list[PairTransfer] = []
        for group in self.groups:
            if d < len(self.depths[len(group)]):
                merged.extend(self.transfers(group, d))
        return merged

    def _materialize(self) -> list[list[PairTransfer]]:
        if self._steps is None:
            self._steps = [self.step(d) for d in range(len(self))]
        return self._steps

    def __iter__(self):
        return iter(self._materialize())


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
        # (staged, nbytes, dtype_bytes) -> reduction seconds
        self._reductions: dict[tuple[bool, int, int], float] = {}
        # this world's collective plans, one per call key (plan_timing)
        self.schedules = ScheduleMemo()
        # rank list -> its node groups (node_groups)
        self._groups: dict[tuple[int, ...], list[list[int]]] = {}
        # the repro.sim.fastpath.FastPathSession that MpiWorld attaches
        # to an analytic coster (None under the walk oracle): analytic
        # walks collapse warm ring phases and same-shaped node groups
        self.fastpath = None

    def node_groups(self, ranks: list[int]) -> list[list[int]]:
        """``Cluster.node_groups(ranks)``, resolved once per rank list in
        this world: every plan over the same ranks shares one groups
        value, and the node-group closed form keeps its settled verdicts
        per groups value."""
        key = tuple(ranks)
        groups = self._groups.get(key)
        if groups is None:
            groups = self._groups[key] = self.transport.cluster.node_groups(key)
        return groups

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

    def reduction(
        self, kind: TransportKind, nbytes: int, dtype_bytes: int
    ) -> float:
        """:meth:`reduce_time_for`, priced once per ``(staged, nbytes,
        dtype_bytes)``: whether the kind is staged is all it reads of it."""
        key = (kind in STAGED_KINDS, nbytes, dtype_bytes)
        seconds = self._reductions.get(key)
        if seconds is None:
            seconds = self._reductions[key] = self.reduce_time_for(
                kind, nbytes, dtype_bytes
            )
        return seconds

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
        consumes exactly one roll of the injector's corruption stream, and
        no ring step collapses under a live window, so the closed form
        and the walk oracle stay bit-identical.  A transfer
        corrupted past the retry budget raises
        :class:`~repro.errors.MpiTimeoutError`, like a lost message.
        """
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
        self,
        transfers: list[PairTransfer],
        binding: CallBinding = CallBinding({}),
        *,
        reduce_after: bool = False,
    ) -> float:
        """Makespan of concurrent transfers under the contention model.

        The one analytic step walk, with or without a session: each
        transfer is quoted and applied, then charged its reduction and,
        under wire corruption, its CRC retransmits priced from the plain
        time it was just charged (:meth:`price`).
        """
        if not transfers:
            return 0.0
        if self.fastpath is not None:
            self.fastpath.exact_transfers += len(transfers)
        return self.makespan(
            *self.price(transfers, binding, reduce_after=reduce_after)
        )

    def price(
        self,
        transfers: list[PairTransfer],
        binding: CallBinding,
        *,
        reduce_after: bool = False,
    ) -> tuple[list[TransferQuote], list[float]]:
        """Quote and apply each transfer in order: its quote and its total
        seconds, reduction and CRC retransmits included.  The node-group
        closed form prices its representative groups here."""
        transport = self.transport
        corrupting = self.corruption_active()
        ids, dtype_bytes = binding
        quotes = []
        totals = []
        for t in transfers:
            src, dst = t.src, t.dst
            q = transport.quote(
                src, dst, t.nbytes,
                src_buffer=ids.get(src), dst_buffer=ids.get(dst),
                buffer_extent=t.buffer_extent,
            )
            plain = (q.wire + q.staging) + transport.apply(q)
            total = plain
            if reduce_after:
                total += self.reduction(q.kind, q.nbytes, dtype_bytes)
            if corrupting:
                total += self.corruption_surcharge(src, dst, t.nbytes, plain)
            quotes.append(q)
            totals.append(total)
        return quotes, totals

    def makespan(self, quotes: list[TransferQuote], totals: list[float]) -> float:
        """Makespan of one step's quoted transfers given each one's total
        time (:meth:`wave_makespan`)."""
        ranks = self.transport.ranks
        return self.wave_makespan(
            [ranks[q.src].node_id if q.staged else None for q in quotes], totals
        )

    def wave_makespan(self, nodes: list[int | None], totals: list[float]) -> float:
        """Makespan of one step's transfers given each one's total time
        and, for a staged transfer, its source node (None for any other).

        Staged transfers sharing a source node serialize in
        ``ceil(k / staging_engines)`` waves of the slowest; everything else
        overlaps.
        """
        staged_by_node: dict[int, list[float]] = {}
        other_max = 0.0
        for node, total in zip(nodes, totals):
            if node is None:
                # what max(other_max, total) selects, without the call
                if total > other_max:
                    other_max = total
            else:
                staged_by_node.setdefault(node, []).append(total)
        engines = self.transport.cluster.spec.node.staging_engines
        staged_max = 0.0
        for times in staged_by_node.values():
            waves = math.ceil(len(times) / engines)
            staged_max = max(staged_max, waves * max(times))
        return max(other_max, staged_max)

    def step_proc(
        self,
        transfers: list[PairTransfer],
        binding: CallBinding,
        *,
        reduce_after: bool = False,
    ):
        """Event-mode process executing one BSP step."""
        env = self.transport.cluster.env
        ids, dtype_bytes = binding

        def one(t: PairTransfer):
            kind = yield env.process(
                self.transport.transfer_proc(
                    t.src, t.dst, t.nbytes,
                    src_buffer=ids.get(t.src), dst_buffer=ids.get(t.dst),
                    buffer_extent=t.buffer_extent,
                )
            )
            if reduce_after:
                yield env.timeout(self.reduction(kind, t.nbytes, dtype_bytes))

        procs = [env.process(one(t)) for t in transfers]
        if procs:
            yield env.all_of(procs)

    def run_steps(
        self,
        steps: list[list[PairTransfer]],
        binding: CallBinding = CallBinding({}),
        *,
        reduce_after: bool = False,
    ) -> float:
        """Time a full step schedule in the configured mode, bound to one
        call (by default one without buffer ids, at fp32)."""
        if self.mode is ExecutionMode.ANALYTIC:
            session = self.fastpath
            # under a live wire-corruption window every transfer must roll
            # the corruption stream, so no step is collapsed
            if session is not None and not self.corruption_active():
                if session.collapsible(steps):
                    return session.ring_time(
                        self, steps, binding, reduce_after=reduce_after
                    )
                if getattr(steps, "is_group_schedule", False):
                    return session.group_time(
                        self, steps, binding, reduce_after=reduce_after
                    )
            # one left-to-right running total, like ring_time's: sum() of
            # floats is compensated from Python 3.12 on.  An empty
            # schedule times as the int 0.
            total = 0
            for step in steps:
                total += self.step_time_analytic(
                    step, binding, reduce_after=reduce_after
                )
            return total
        env = self.transport.cluster.env
        start = env.now

        def driver():
            for step in steps:
                yield env.process(
                    self.step_proc(step, binding, reduce_after=reduce_after)
                )

        proc = env.process(driver())
        env.run(until=proc)
        return env.now - start


class CollectivePlan(NamedTuple):
    """One collective shape's algorithm and ordered phases, each a
    ``(segment, schedule, reduce_after)`` triple.  Pure shape, shared by
    every call with the same key whatever its buffers and element width;
    a plan without phases times as 0.0."""

    algorithm: str
    phases: tuple[tuple[str, object, bool], ...] = ()


def plan_timing(
    coster: StepCoster,
    op: str,
    ranks: list[int],
    nbytes: int,
    build: Callable[[], CollectivePlan],
    *,
    variant: object = None,
    buffer_ids: dict[int, int] | None = None,
    dtype_bytes: int = FLOAT32_BYTES,
) -> CollectiveTiming:
    """Time one collective call by its plan: every collective prices here.

    The plan comes from the world's memo (``coster.schedules``) under its
    shape's key, ``(op, variant, tuple(ranks), nbytes)``, where
    ``variant`` is the algorithm override or the root.  ``build`` makes
    it on a miss and reads nothing else but the world.  The call's
    buffers and element width are bound to the plan as it is priced
    (:class:`CallBinding`), so calls that differ only in them share one
    plan.  The phases run in order; the time is the left-to-right total
    of their segments.
    """
    plan = coster.schedules.get((op, variant, tuple(ranks), nbytes), build)
    binding = CallBinding(buffer_ids or {}, dtype_bytes)
    segments = {
        segment: coster.run_steps(schedule, binding, reduce_after=reduce_after)
        for segment, schedule, reduce_after in plan.phases
    }
    time = fold_sum(segments.values()) if segments else 0.0
    return CollectiveTiming(
        op, plan.algorithm, nbytes, len(ranks), time, coster.mode, segments
    )


def root_first(ranks: list[int], root: int | None) -> list[int]:
    """``ranks`` with ``root`` (default: the first rank) moved to the front."""
    root = ranks[0] if root is None else root
    return [root] + [r for r in ranks if r != root]


def chunk_sizes(nbytes: int, parts: int) -> list[int]:
    """Split ``nbytes`` into ``parts`` near-equal element-aligned chunks."""
    if parts < 1:
        raise MpiError(f"cannot split into {parts} parts")
    base, rem = divmod(int(nbytes), parts)
    return [base + (1 if i < rem else 0) for i in range(parts)]


def is_power_of_two(n: int) -> bool:
    return n > 0 and (n & (n - 1)) == 0
