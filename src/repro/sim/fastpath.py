"""Memoized transfer quotes and a ring closed form for the analytic engine.

The scaling studies spend nearly all of their wall clock re-walking
collective step schedules: a 512-rank hierarchical allreduce costs the
same ~2p distinct point-to-point transfers across hundreds of BSP steps.
Echo-style replay applies: *reuse one computation instead of keeping a
second cost model in step with the first*.  Transfer costing is split in
two (``repro.mpi.transports``): ``TransportModel.quote`` prices what no
send changes (transport selection, path cost, staging, the fixed protocol
term) and ``TransportModel.apply`` performs the send's side effects and
returns its state-dependent protocol seconds.  Both engine modes walk
steps through ``StepCoster.step_time_analytic``; exact mode quotes every
transfer afresh, fast mode takes the quote from this session's memo.

Correctness contract (the bit-identity guarantee the equivalence suite
pins):

* A quote never depends on registration-cache state, so a memo entry
  stays valid across cache hits, misses, evictions, poisoning and flushes
  — ``apply`` reads that state live.  Three guards remain: a quote that
  opens a CUDA IPC pair is never memoized; with a fault injector attached
  ``path_cost`` varies with simulated time, so the memo is pinned to the
  ``env.now`` it was filled at; :meth:`FastPathSession.invalidate`
  (whenever recovery changes the ring) empties it.
* Every walked transfer, its quote memoized or fresh, goes through the
  same ``apply``, reduction and corruption-surcharge code, so a run
  leaves the same protocol state and the same floats in either mode.
* Ring phases collapse into a closed form only once every remaining
  transfer is steady (``TransportModel.steady_protocol``: its next
  ``apply`` opens no IPC pair and changes no registration); the closed
  form then applies the collapsed steps' side effects in aggregate.

``repro.sim.fastpath`` never approximates; it only skips recomputing
what is provably unchanged.
"""

from __future__ import annotations

import enum
from typing import TYPE_CHECKING

import numpy as np

from repro.errors import ConfigError

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.mpi.collectives.base import PairTransfer, StepCoster
    from repro.mpi.transports import TransferQuote, TransportModel


class EngineMode(enum.Enum):
    """How the analytic engine executes collective schedules."""

    #: quote every transfer of every schedule step afresh
    EXACT = "exact"
    #: quote each distinct transfer once, collapse warm rings (bit-identical)
    FAST = "fast"


def coerce_engine_mode(mode: "EngineMode | str | None") -> EngineMode:
    """Accept the enum, its string value, or ``None`` (= exact)."""
    if mode is None:
        return EngineMode.EXACT
    if isinstance(mode, EngineMode):
        return mode
    try:
        return EngineMode(str(mode))
    except ValueError:
        raise ConfigError(
            f"engine mode must be 'exact' or 'fast', got {mode!r}"
        ) from None


class FastPathSession:
    """Per-world memo of transfer quotes, plus run statistics.

    One session is attached to a
    :class:`~repro.mpi.collectives.base.StepCoster` (``coster.fastpath``);
    its step walk takes quotes from :meth:`quote`, and ``run_steps``
    hands ring schedules of at least ``RING_MIN_RANKS`` ranks to
    :meth:`ring_time`.
    """

    #: memo safety valve — never-recurring keys (fresh per-step buffer ids
    #: of unfused tensors) would otherwise grow the table without bound
    MAX_ENTRIES = 1 << 18
    #: below this ring size the per-transfer walk is already cheap and the
    #: closed form's staged-contention preconditions rarely hold
    RING_MIN_RANKS = 8

    def __init__(self, transport: "TransportModel"):
        self.transport = transport
        self.memo: dict[tuple, "TransferQuote"] = {}
        self.replayed_transfers = 0
        self.exact_transfers = 0
        self.invalidations = 0
        self._time_varying = transport.cluster.fault_injector is not None
        self._now: float | None = None

    def invalidate(self) -> None:
        """Empty the memo (the ring changed: failure, blacklist, regrow)."""
        self.memo.clear()
        self.invalidations += 1

    def stats(self) -> dict[str, int]:
        return {
            "replayed_transfers": self.replayed_transfers,
            "exact_transfers": self.exact_transfers,
            "memo_entries": len(self.memo),
            "invalidations": self.invalidations,
        }

    # -- quotes ------------------------------------------------------------
    def quote(self, t: "PairTransfer") -> "TransferQuote":
        """The memoized quote of one schedule transfer."""
        key = (
            t.src,
            t.dst,
            t.nbytes,
            t.src_buffer,
            t.dst_buffer,
            t.buffer_extent,
            t.dtype_bytes,
        )
        q = self._memoized(key)
        if q is None:
            self.exact_transfers += 1
            return self._fresh(key)
        self.replayed_transfers += 1
        return q

    def _memoized(self, key: tuple) -> "TransferQuote | None":
        if self._time_varying:
            now = self.transport.cluster.env.now
            if now != self._now:
                self.memo.clear()
                self._now = now
        return self.memo.get(key)

    def _fresh(self, key: tuple) -> "TransferQuote":
        src, dst, nbytes, src_buffer, dst_buffer, extent, _ = key
        q = self.transport.quote(
            src, dst, nbytes, src_buffer=src_buffer, dst_buffer=dst_buffer,
            buffer_extent=extent,
        )
        if not q.opens_ipc:
            memo = self.memo
            if len(memo) >= self.MAX_ENTRIES:
                memo.clear()
            memo[key] = q
        return q

    # -- ring closed form --------------------------------------------------
    def collapsible(self, steps) -> bool:
        """True for a ring schedule large enough for :meth:`ring_time`."""
        return (
            getattr(steps, "is_ring_schedule", False)
            and len(steps.ranks) >= self.RING_MIN_RANKS
        )

    def ring_time(
        self, coster: "StepCoster", sched, *, reduce_after: bool = False
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
            done = self._ring_tail(coster, sched, s, reduce_after, total)
            if done is not None:
                return done
            total += coster.step_time_analytic(
                sched.step(s), reduce_after=reduce_after
            )
        return total

    def _ring_row(
        self, coster: "StepCoster", sched, chunk: int, reduce_after: bool
    ) -> tuple[list, list[float]] | None:
        """Quotes and steady totals of every ring pair at one chunk size,
        or None while some pair's next apply would change protocol state."""
        transport = self.transport
        ranks = sched.ranks
        p = len(ranks)
        bids = sched.buffer_ids
        quotes = []
        totals = []
        for i in range(p):
            src = ranks[i]
            dst = ranks[(i + 1) % p]
            key = (
                src,
                dst,
                chunk,
                bids.get(src) if bids else None,
                bids.get(dst) if bids else None,
                sched.extent,
                sched.dtype_bytes,
            )
            q = self._memoized(key) or self._fresh(key)
            protocol = transport.steady_protocol(q)
            if protocol is None:
                return None
            total = (q.wire + q.staging) + protocol
            if reduce_after:
                total += coster.quote_reduce_time(q, sched.dtype_bytes)
            quotes.append(q)
            totals.append(total)
        return quotes, totals

    def _ring_tail(
        self,
        coster: "StepCoster",
        sched,
        s0: int,
        reduce_after: bool,
        total: float,
    ) -> float | None:
        """Closed-form remainder of a ring phase from step ``s0`` on.

        Returns the phase total (continuing the caller's running ``total``
        with the same accumulation order as the exact walk), or ``None``
        when the preconditions do not hold yet and step ``s0`` must be
        walked per-transfer.
        """
        from repro.mpi.transports import STAGED_KINDS

        rem = sched.rem
        small = self._ring_row(coster, sched, sched.chunk_small, reduce_after)
        if small is None:
            return None
        big = (
            self._ring_row(coster, sched, sched.chunk_big, reduce_after)
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
        staged = [i for i in range(p) if q_small[i].kind in STAGED_KINDS]
        if rem and staged and len({transport.ranks[r].node_id for r in ranks}) < p:
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
            idx = np.arange(p)
            s_arr = np.arange(s0, p - 1)
            is_big = ((idx[None, :] - s_arr[:, None]) % p) < rem
            makespans = np.where(
                is_big,
                np.array(t_big, dtype=np.float64)[None, :],
                np.array(t_small, dtype=np.float64)[None, :],
            ).max(axis=1).tolist()
            cnt_big = is_big.sum(axis=0).tolist()
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
                transport.charge_staging(
                    q_big[i] if (i - s) % p < rem else q_small[i]
                )
        self.replayed_transfers += n_rem * p
        return total


def enable_fastpath(world) -> FastPathSession | None:
    """Attach a fast-path session to a backend world's analytic coster.

    Returns the session (idempotent — an already-attached session is
    returned as-is), or ``None`` when the backend exposes no
    :class:`~repro.mpi.collectives.base.StepCoster` (closed-form backends
    cost collectives without schedule walks and need no fast path) or the
    coster runs in event mode (quotes are memoized only for analytic walks).
    """
    from repro.mpi.collectives.base import ExecutionMode

    coster = getattr(world, "coster", None)
    transport = getattr(world, "transport", None)
    if coster is None or transport is None:
        return None
    if coster.mode is not ExecutionMode.ANALYTIC:
        return None
    existing = getattr(coster, "fastpath", None)
    if existing is not None:
        return existing
    session = FastPathSession(transport)
    coster.fastpath = session
    return session


def fastpath_stats(world) -> dict[str, int] | None:
    """The fast-path statistics of a world's attached session, if any.

    ``None`` when no session is attached — a closed-form backend, event
    mode, or an exact-mode run.  Diagnostics only: the counters depend on
    memo warmth, so reports that must be byte-identical across cold/warm
    runs (scaling points, planner output) never embed them.
    """
    session = getattr(getattr(world, "coster", None), "fastpath", None)
    if session is None:
        return None
    return session.stats()
