"""Ring and node-group closed forms for the analytic engine.

The scaling studies spend nearly all of their wall clock re-walking
collective step schedules: a 512-rank hierarchical allreduce costs the
same ~2p distinct point-to-point transfers across hundreds of BSP steps.
Echo-style replay applies: *reuse one computation instead of keeping a
second cost model in step with the first*.  Transfer costing is split in
two (``repro.mpi.transports``): ``TransportModel.quote`` prices what no
send changes (transport selection, path cost, staging, the fixed protocol
term) and ``TransportModel.apply`` performs the send's side effects and
returns its state-dependent protocol seconds.  Every step is walked
through ``StepCoster.step_time_analytic``, which quotes every transfer;
the session attached to every analytic world collapses warm ring phases
and prices the intra-node steps of node groups that share a shape from
one representative group per shape.

Correctness contract (the bit-identity guarantee the equivalence suite
pins against the walk oracle, :func:`walk_oracle`):

* Every walked transfer, with or without a session, takes its quote from
  ``TransportModel.quote`` and goes through the same ``apply``,
  reduction and corruption-surcharge code, so a run leaves the same
  protocol state and the same floats either way.
* Ring phases collapse into a closed form only once every remaining
  transfer is steady (``TransportModel.steady_row``: its next ``apply``
  opens no IPC pair and changes no registration).  A ring row is priced
  per price row (``PairGeometry.prices``), not per pair: pairs that
  share a row share its ``(kind, staged, wire, staging, protocol)``
  entry, one reduction and one total, and no quote is built.  The
  closed form then applies the collapsed steps' side effects in
  aggregate through the transport (``TransportModel.send_row``).
* A node-group step is priced from representatives only when every
  other group matches its shape's representative pair for pair (price
  row and CUDA IPC open state); the representatives are quoted and
  applied as the walk would, and the other groups' sends are applied in
  aggregate.  Every node is built from one ``NodeSpec`` and a world
  shares one MPI device mask per local rank (``build_world``), so within
  a node a pair's price row and IPC verdict depend only on the two
  ranks' local ranks: the check reads them once per local pair, and the
  open state per pair.  A match found with every compared CUDA IPC pair
  open is permanent, since price rows never change and an open pair
  stays open, so the session keeps it per node groups and step and
  checks no more; plans over the same ranks share one groups value
  (``StepCoster.node_groups``) and so one set of kept verdicts.

``repro.sim.fastpath`` never approximates; it only skips recomputing
what is provably unchanged.
"""

from __future__ import annotations

import contextlib
from typing import TYPE_CHECKING

import numpy as np

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.mpi.collectives.base import CallBinding, StepCoster
    from repro.mpi.transports import TransportModel


#: The walk oracle: while True, worlds are built without a session, so
#: every ring and node-group step is walked per transfer, and serving
#: draws its Poisson arrivals one at a time.  Both settings give the same
#: numbers; the equivalence suite, the goldens, ``bench_engine`` and the
#: chaos campaign's identity pass compare them.  Set it only through
#: :func:`walk_oracle`.  It is no config field, flag or environment
#: variable, and it enters no digest.
WALK_ORACLE = False


@contextlib.contextmanager
def walk_oracle(on: bool = True):
    """Run the block on the walk oracle (:data:`WALK_ORACLE`), or with
    ``on=False`` on the default engine."""
    global WALK_ORACLE
    saved = WALK_ORACLE
    WALK_ORACLE = on
    try:
        yield
    finally:
        WALK_ORACLE = saved


class FastPathSession:
    """The ring and node-group closed forms of one world's analytic
    coster, plus run statistics.

    One session is attached to a
    :class:`~repro.mpi.collectives.base.StepCoster` (``coster.fastpath``);
    outside a live wire-corruption window ``run_steps`` hands ring
    schedules of at least ``RING_MIN_RANKS`` ranks to :meth:`ring_time`
    and node-group schedules
    (:class:`~repro.mpi.collectives.base.GroupSchedule`) to
    :meth:`group_time`, and every other step walks exactly as without a
    session.
    """

    #: below this ring size the per-transfer walk is already cheap and the
    #: closed form's staged-contention preconditions rarely hold
    RING_MIN_RANKS = 8

    def __init__(self, transport: "TransportModel"):
        self.transport = transport
        #: transfers of collapsed ring steps
        self.ring_transfers = 0
        #: transfers of node-group steps priced from representative groups
        self.group_transfers = 0
        #: transfers walked through ``step_time_analytic``
        self.exact_transfers = 0
        # ring ranks -> (each pair's PairGeometry, sender to next rank; the
        # number of nodes the ranks span)
        self._rings: dict[tuple[int, ...], tuple[list, int]] = {}
        # id(node groups) -> (those groups, {the local pairs a step
        # compares, per group size: groups spared per size}): the settled
        # node-group verdicts, per groups value (plans over the same ranks
        # share one, ``StepCoster.node_groups``); holding the groups keeps
        # their id from being reused
        self._settled: dict[int, tuple[list, dict[tuple, dict[int, int]]]] = {}
        # (local rank, local rank) -> (id of the price row, CUDA IPC
        # verdict) of every same-node pair of those local ranks
        self._local_rows: dict[tuple[int, int], tuple[int, bool]] = {}

    @property
    def replayed_transfers(self) -> int:
        """Transfers priced without a walk: ring plus node-group steps."""
        return self.ring_transfers + self.group_transfers

    def stats(self) -> dict[str, int]:
        return {
            "replayed_transfers": self.replayed_transfers,
            "ring_transfers": self.ring_transfers,
            "group_transfers": self.group_transfers,
            "exact_transfers": self.exact_transfers,
        }

    # -- ring closed form --------------------------------------------------
    def collapsible(self, steps) -> bool:
        """True for a ring schedule large enough for :meth:`ring_time`."""
        return (
            getattr(steps, "is_ring_schedule", False)
            and len(steps.ranks) >= self.RING_MIN_RANKS
        )

    def ring_time(
        self,
        coster: "StepCoster",
        sched,
        binding: "CallBinding",
        *,
        reduce_after: bool = False,
    ) -> float:
        """Walk a ring phase, collapsing its tail into the closed form.

        Walks steps through the coster only while a transfer's next apply
        would still change protocol state (cold caches, first-in-call
        advertisements, an IPC pair to open); from the first step at
        which every distinct transfer is steady, the remaining steps
        reduce to a vectorized max over the ~2p per-pair totals plus
        aggregate side effects.  Sums steps in walk order, like the
        exact walk.
        """
        ring = self._ring(sched.ranks)
        total = 0.0
        for s in range(len(sched)):
            done = self._ring_tail(
                coster, sched, ring, s, binding, reduce_after, total
            )
            if done is not None:
                return done
            total += coster.step_time_analytic(
                sched.step(s), binding, reduce_after=reduce_after
            )
        return total

    def _ring(self, ranks: list[int]) -> tuple[list, int]:
        """The ring's pairs (each rank to the next) and the number of nodes
        its ranks span, resolved once per session."""
        key = tuple(ranks)
        ring = self._rings.get(key)
        if ring is None:
            transport = self.transport
            ring = self._rings[key] = (
                [
                    transport._pair(src, dst)
                    for src, dst in zip(ranks, ranks[1:] + ranks[:1])
                ],
                len(transport.cluster.node_groups(ranks)),
            )
        return ring

    def _ring_row(
        self,
        coster: "StepCoster",
        pairs: list,
        chunk: int,
        binding: "CallBinding",
        extent: int | None,
        reduce_after: bool,
    ) -> tuple[list, list[float]] | None:
        """Each ring pair's price entry and steady total at one chunk size,
        or None while some pair's next apply would change protocol state.

        ``TransportModel.steady_row`` reads the pairs' protocol state; the
        total and the reduction are priced once per run of pairs sharing
        an entry, so once for a ring whose pairs share one price row.
        """
        ids, dtype_bytes = binding
        entries = self.transport.steady_row(pairs, chunk, ids, extent)
        if None in entries:
            return None
        totals: list[float] = []
        last = total = None
        for entry in entries:
            if entry is not last:
                last = entry
                kind, _, wire, staging, protocol = entry
                total = (wire + staging) + protocol
                if reduce_after:
                    total += coster.reduction(kind, chunk, dtype_bytes)
            totals.append(total)
        return entries, totals

    def _ring_tail(
        self,
        coster: "StepCoster",
        sched,
        ring: tuple[list, int],
        s0: int,
        binding: "CallBinding",
        reduce_after: bool,
        total: float,
    ) -> float | None:
        """Closed-form remainder of a ring phase from step ``s0`` on.

        Returns the phase total (continuing the caller's running ``total``
        with the same accumulation order as the exact walk), or ``None``
        when the preconditions do not hold yet and step ``s0`` must be
        walked per-transfer.
        """
        pairs, nodes = ring
        rem, extent = sched.rem, sched.extent
        small_chunk, big_chunk = sched.chunk_small, sched.chunk_big
        small = self._ring_row(
            coster, pairs, small_chunk, binding, extent, reduce_after
        )
        if small is None:
            return None
        big = self._ring_row(
            coster, pairs, big_chunk, binding, extent, reduce_after
        ) if rem else small
        if big is None:
            return None
        (e_small, t_small), (e_big, t_big) = small, big

        p = len(pairs)
        if rem and any(a[0] is not b[0] for a, b in zip(e_small, e_big)):
            return None  # chunk classes straddle a transport threshold
        staged = [i for i, entry in enumerate(e_small) if entry[1]]
        if rem and staged and nodes < p:
            # staged transfers sharing a node serialize in engine waves,
            # and the rotating big/small chunk classes reshuffle each
            # step's wave membership — only the uniform ring (allgather:
            # rem == 0, identical transfer set every step) has a
            # step-invariant wave structure the closed form can price
            return None

        n_rem = (p - 1) - s0
        if rem:
            # at most one staged transfer per node: each step's makespan
            # is the plain max of its transfers' totals
            makespans, cnt_big = ring_tail_makespans(t_big, t_small, rem, s0)
            moved = [
                small_chunk * n_rem + (big_chunk - small_chunk) * c
                for c in cnt_big
            ]
        else:
            # uniform ring: every collapsed step prices identically
            sources: list[int | None] = [None] * p
            for i in staged:
                sources[i] = pairs[i].a.node_id
            makespans = [coster.wave_makespan(sources, t_small)] * n_rem
            moved = [small_chunk * n_rem] * p
        for m in makespans:
            total += m

        # aggregate side effects of the collapsed steps: every pair sends
        # n_rem times, of one kind in both chunk classes, and both classes
        # share buffers and extent
        transport = self.transport
        transport.send_row(
            pairs, e_small, n_rem, moved, binding.buffer_ids,
            small_chunk if extent is None else extent,
        )
        # staging charges accumulate per rank in walk order; replay the
        # per-rank add sequence literally (float += order is part of the
        # bit-identity contract)
        for s in range(s0, p - 1):
            for i in staged:
                entry = e_big[i] if (i - s) % p < rem else e_small[i]
                pair = pairs[i]
                transport.charge_staging(pair.a.rank, pair.b.rank, entry[3])
        self.ring_transfers += n_rem * p
        return total

    # -- node-group closed form --------------------------------------------
    def group_time(
        self,
        coster: "StepCoster",
        sched,
        binding: "CallBinding",
        *,
        reduce_after: bool = False,
    ) -> float:
        """Time a node-group schedule, pricing one representative group
        per shape wherever a step allows it and walking any other step.

        Sums steps in walk order from the int 0, like the exact walk.
        Under a ``LinkFault`` (``cluster.live_links``) a quote is priced
        afresh each time, so every step is walked and no settled verdict
        is read.
        """
        live = self.transport.cluster.live_links
        verdicts = None if live else self._verdicts(sched.groups)
        total = 0
        for d in range(len(sched)):
            makespan = None if live else self._group_step(
                coster, sched, d, binding, reduce_after, verdicts
            )
            if makespan is None:
                makespan = coster.step_time_analytic(
                    sched.step(d), binding, reduce_after=reduce_after
                )
            total += makespan
        return total

    def _group_step(
        self,
        coster: "StepCoster",
        sched,
        d: int,
        binding: "CallBinding",
        reduce_after: bool,
        verdicts: dict[tuple, dict[int, int]],
    ) -> float | None:
        """Makespan of node-group step ``d`` from one representative group
        per size, or ``None``, with nothing applied, when a group differs
        from its representative or no group is spared.

        The first group of each size in the step is its representative,
        and :meth:`_group_check` says whether every other group matches
        it.  A verdict reached with every compared CUDA IPC pair open is
        settled: price rows never change and an open pair stays open, so
        ``verdicts`` (the settled verdicts of these groups) keeps it under
        the local pairs the step compares, and later steps comparing the
        same pairs skip the check.  Each node serializes only its own
        staged transfers and ``max`` only selects a value, so the step's
        makespan over the representatives is the walk's.  The
        representatives are quoted and applied as the walk would; the
        other groups' sends are applied in aggregate, group by group in
        walk order, through the transport: the IPC pairs they open
        (``open_ipc``), each rank's staging ``+=`` (``charge_staging``)
        and the transport stats.  A node group's transfers stay on its
        node, so they touch no HCA.
        """
        depths = sched.depths
        compared = tuple(
            (size, tuple(local[d]))
            for size, local in depths.items() if d < len(local)
        )
        spared = verdicts.get(compared)
        if spared is None:
            checked = self._group_check(sched, d)
            if checked is None:
                return None
            spared, settled = checked
            if not any(spared.values()):
                return None
            if settled:
                verdicts[compared] = spared

        transport = self.transport
        reps: dict[int, list[int]] = {}  # group size -> its representative
        for group in sched.groups:
            size = len(group)
            if size in spared and size not in reps:
                reps[size] = group
                if len(reps) == len(spared):
                    break
        quotes: list = []
        totals: list[float] = []
        # group size -> the representative's sends that open an IPC pair or
        # charge staging, with their local indices
        effects: dict[int, list] = {}
        for size, group in reps.items():
            local = depths[size][d]
            rq, rt = coster.price(
                sched.transfers(group, d), binding, reduce_after=reduce_after
            )
            quotes += rq
            totals += rt
            for q in rq:
                transport.record_sends(q, spared[size])
            todo = [
                (i, j, q) for (i, j), q in zip(local, rq)
                if q.opens_ipc or q.staged
            ]
            if todo:
                effects[size] = todo
            self.group_transfers += (1 + spared[size]) * len(local)
        if effects:
            for group in sched.groups:
                size = len(group)
                todo = effects.get(size)
                if todo is None or group is reps[size]:
                    continue
                for i, j, q in todo:
                    src, dst = group[i], group[j]
                    if q.opens_ipc:
                        transport.open_ipc(src, dst)
                    if q.staged:
                        transport.charge_staging(src, dst, q.staging)
        return coster.makespan(quotes, totals)

    def _verdicts(self, groups: list) -> dict[tuple, dict[int, int]]:
        """The settled verdicts kept for the groups value ``groups``."""
        held = self._settled.get(id(groups))
        if held is None or held[0] is not groups:
            held = self._settled[id(groups)] = (groups, {})
        return held[1]

    def _group_check(self, sched, d: int) -> tuple[dict[int, int], bool] | None:
        """The groups each representative spares at step ``d`` (every
        size in the step, zero included) and whether no compared CUDA IPC
        pair is closed; None when a group differs from its
        representative.

        A group matches its size's representative pair for pair: the same
        price-table row (``PairGeometry.prices``) and, for a CUDA IPC
        capable pair, the same open state, so each of its transfers costs
        what the representative's does.  The row and the IPC verdict are
        read per local pair (:meth:`_local_row`), the open state per
        pair.  Reads protocol state only.
        """
        opened = self.transport._ipc_pairs
        gpn = self.transport.cluster.gpus_per_node
        rows = self._local_rows
        depths = sched.depths
        # group size -> its representative's (price row id, IPC open) per pair
        shapes: dict[int, list] = {}
        spared: dict[int, int] = {}
        settled = True
        for group in sched.groups:
            size = len(group)
            local = depths[size]
            if d >= len(local):
                continue
            shape = []
            for i, j in local[d]:
                src, dst = group[i], group[j]
                row, ipc = (
                    rows.get((src % gpn, dst % gpn)) or self._local_row(src, dst)
                )
                is_open = ipc and (min(src, dst), max(src, dst)) in opened
                if ipc and not is_open:
                    settled = False
                shape.append(row)
                shape.append(is_open)
            rep = shapes.setdefault(size, shape)
            if rep is shape:
                spared[size] = 0
            elif shape == rep:
                spared[size] += 1
            else:
                return None
        return spared, settled

    def _local_row(self, src: int, dst: int) -> tuple[int, bool]:
        """The price row id and CUDA IPC verdict of the same-node pair
        ``(src, dst)``, kept under its local ranks.

        Every node is built from one ``NodeSpec`` and a world shares one
        MPI device mask per local rank (``build_world``), so on one node
        the pair's route class, and with it its price row, and its IPC
        verdict depend only on the two local ranks: every node's pair of
        those local ranks has the same row and verdict.
        """
        pair = self.transport._pair(src, dst)
        gpn = self.transport.cluster.gpus_per_node
        row = self._local_rows[(src % gpn, dst % gpn)] = (
            id(pair.prices), pair.ipc
        )
        return row


def _window_max(doubled: np.ndarray, width: int, starts: np.ndarray) -> np.ndarray:
    """``max(doubled[j : j + width])`` for each ``j`` in ``starts``.

    A sparse table: after ``k`` rounds ``table[j]`` is the max of the
    ``2**k`` values from ``j``, and each window is the max of two
    overlapping spans.  ``starts + width`` must not pass ``len(doubled)``.
    """
    table = doubled
    span = 1
    while 2 * span <= width:
        table = np.maximum(table[:-span], table[span:])
        span *= 2
    return np.maximum(table[starts], table[starts + (width - span)])


def ring_tail_makespans(
    t_big: list[float], t_small: list[float], rem: int, s0: int
) -> tuple[list[float], list[int]]:
    """Makespans of chunked-ring steps ``s0 .. p-2`` and each pair's
    big-chunk step count, for ``0 < rem < p``.

    Step ``s`` sends a big chunk on the pairs ``[s, s+rem)`` and a small
    one on ``[s+rem, s+p)`` (indices mod ``p``), so its makespan is the
    larger of two cyclic sliding-window maxima: of ``t_big`` over the
    first window and of ``t_small`` over the second.  ``max`` only
    selects a value, so this is exactly the max over the step's totals,
    in O(p log p) instead of a ``(p-1-s0) x p`` matrix.  The per-pair
    counts come from a difference array over the same windows.
    """
    p = len(t_big)
    starts = np.arange(s0, p - 1)
    big = np.array(t_big + t_big, dtype=np.float64)
    small = np.array(t_small + t_small, dtype=np.float64)
    makespans = np.maximum(
        _window_max(big, rem, starts),
        _window_max(small, p - rem, (starts + rem) % p),
    )
    diff = np.zeros(2 * p + 1, dtype=np.int64)
    diff[starts] += 1
    diff[starts + rem] -= 1
    covered = np.cumsum(diff[: 2 * p])
    return makespans.tolist(), (covered[:p] + covered[p:]).tolist()


def enable_fastpath(world) -> FastPathSession | None:
    """Attach the ring closed form to an MPI world's analytic coster.

    :class:`~repro.mpi.comm.MpiWorld` calls this as it is built.  Returns
    the session (idempotent: an attached session is returned as is), or
    ``None`` in event mode (only analytic walks collapse rings) and under
    the walk oracle.
    """
    from repro.mpi.collectives.base import ExecutionMode

    coster = world.coster
    if coster.mode is not ExecutionMode.ANALYTIC or WALK_ORACLE:
        return None
    if coster.fastpath is None:
        coster.fastpath = FastPathSession(world.transport)
    return coster.fastpath
