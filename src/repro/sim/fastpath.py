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
  transfer is steady (``TransportModel.steady_protocol``: its next
  ``apply`` opens no IPC pair and changes no registration); the closed
  form then applies the collapsed steps' side effects in aggregate.
* A node-group step is priced from representatives only when every
  other group matches its shape's representative pair for pair (price
  row and CUDA IPC open state); the representatives are quoted and
  applied as the walk would, and the other groups' sends are applied in
  aggregate.

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
        total = 0.0
        for s in range(len(sched)):
            done = self._ring_tail(coster, sched, s, binding, reduce_after, total)
            if done is not None:
                return done
            total += coster.step_time_analytic(
                sched.step(s), binding, reduce_after=reduce_after
            )
        return total

    def _ring_row(
        self,
        coster: "StepCoster",
        sched,
        chunk: int,
        binding: "CallBinding",
        reduce_after: bool,
    ) -> tuple[list, list[float]] | None:
        """Quotes and steady totals of every ring pair at one chunk size,
        or None while some pair's next apply would change protocol state."""
        transport = self.transport
        ranks = sched.ranks
        p = len(ranks)
        ids, dtype_bytes = binding
        quotes = []
        totals = []
        for i in range(p):
            src = ranks[i]
            dst = ranks[(i + 1) % p]
            q = transport.quote(
                src, dst, chunk,
                src_buffer=ids.get(src), dst_buffer=ids.get(dst),
                buffer_extent=sched.extent,
            )
            protocol = transport.steady_protocol(q)
            if protocol is None:
                return None
            total = (q.wire + q.staging) + protocol
            if reduce_after:
                total += coster.reduction(q.kind, chunk, dtype_bytes)
            quotes.append(q)
            totals.append(total)
        return quotes, totals

    def _ring_tail(
        self,
        coster: "StepCoster",
        sched,
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
        rem = sched.rem
        small = self._ring_row(
            coster, sched, sched.chunk_small, binding, reduce_after
        )
        if small is None:
            return None
        big = (
            self._ring_row(coster, sched, sched.chunk_big, binding, reduce_after)
            if rem else small
        )
        if big is None:
            return None
        (q_small, t_small), (q_big, t_big) = small, big

        transport = self.transport
        ranks = sched.ranks
        p = len(ranks)
        if rem and any(q_small[i].kind is not q_big[i].kind for i in range(p)):
            return None  # chunk classes straddle a transport threshold
        staged = [i for i in range(p) if q_small[i].staged]
        if rem and staged and len(transport.cluster.node_groups(ranks)) < p:
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
        else:
            # uniform ring: every collapsed step prices identically
            makespans = [coster.makespan(q_small, t_small)] * n_rem
            cnt_big = [0] * p
        for m in makespans:
            total += m

        # aggregate side effects of the collapsed steps -------------------
        for i in range(p):
            cb = cnt_big[i]
            if cb:
                transport.record_sends(q_big[i], cb)
            if cb < n_rem:
                transport.record_sends(q_small[i], n_rem - cb)
        # every collapsed step repeats one sequence of warm acquires (src
        # then dst, pairs ascending; both chunk classes share buffers and
        # extent): running it once leaves the per-call hit counts and the
        # LRU order that all of them would
        for q in q_small:
            if q.src_cache is not None:
                transport.acquire_registrations(q)
        # staging charges accumulate per rank in walk order; replay the
        # per-rank add sequence literally (float += order is part of the
        # bit-identity contract)
        for s in range(s0, p - 1):
            for i in staged:
                q = q_big[i] if (i - s) % p < rem else q_small[i]
                transport.charge_staging(q.src, q.dst, q.staging)
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
        afresh each time, so every step is walked.
        """
        live = self.transport.cluster.live_links
        total = 0
        for d in range(len(sched)):
            makespan = None if live else self._group_step(
                coster, sched, d, binding, reduce_after
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
    ) -> float | None:
        """Makespan of node-group step ``d`` from one representative group
        per size, or ``None``, with nothing applied, when a group differs
        from its representative or no group is spared.

        The first group of each size in the step is its representative.
        Every other group must match it pair for pair: the same price-table
        row (``PairGeometry.prices``) and, for a CUDA IPC capable pair,
        the same open state, so each of its transfers costs what the
        representative's does.  Each node serializes only its own staged
        transfers and ``max`` only selects a value, so the step's makespan
        over the representatives is the walk's.  The representatives are
        quoted and applied as the walk would; the other groups' sends are
        applied in aggregate, group by group in walk order, through the
        transport: the IPC pairs they open (``open_ipc``), each rank's
        staging ``+=`` (``charge_staging``) and the transport stats.  A
        node group's transfers stay on its node, so they touch no HCA.
        """
        transport = self.transport
        pairs = transport._pairs
        opened = transport._ipc_pairs
        depths = sched.depths
        # group size -> its representative's (price row id, IPC open) per pair
        shapes: dict[int, list] = {}
        priced = spared = 0
        for group in sched.groups:
            local = depths[len(group)]
            if d >= len(local):
                continue
            shape = []
            for i, j in local[d]:
                src, dst = group[i], group[j]
                pair = pairs.get((src, dst)) or transport._pair(src, dst)
                shape.append(id(pair.prices))
                shape.append(
                    pair.ipc and (min(src, dst), max(src, dst)) in opened
                )
            rep = shapes.setdefault(len(group), shape)
            if rep is shape:
                priced += len(local[d])
            elif shape == rep:
                spared += len(local[d])
            else:
                return None
        if not spared:
            return None

        quotes: list = []
        totals: list[float] = []
        # group size -> its representative's quotes, and the pairs whose
        # send opens an IPC pair or charges staging
        rep_quotes: dict[int, list] = {}
        effects: dict[int, list] = {}
        sends = dict.fromkeys(shapes, 0)  # group size -> groups spared
        for group in sched.groups:
            size = len(group)
            local = depths[size]
            if d >= len(local):
                continue
            todo = effects.get(size)
            if todo is None:
                rq, rt = coster.price(
                    sched.transfers(group, d), binding,
                    reduce_after=reduce_after,
                )
                quotes += rq
                totals += rt
                rep_quotes[size] = rq
                effects[size] = [
                    (i, j, q) for (i, j), q in zip(local[d], rq)
                    if q.opens_ipc or q.staged
                ]
                continue
            sends[size] += 1
            for i, j, q in todo:
                src, dst = group[i], group[j]
                if q.opens_ipc:
                    transport.open_ipc(src, dst)
                if q.staged:
                    transport.charge_staging(src, dst, q.staging)
        for size, count in sends.items():
            for q in rep_quotes[size]:
                transport.record_sends(q, count)
        self.group_transfers += priced + spared
        return coster.makespan(quotes, totals)


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
