"""CUDA-aware transport selection and cost model.

This module decides *how* bytes move between two ranks and what that costs —
the layer the paper's MPI-Opt design changes.  Four GPU-to-GPU transports:

``CUDA_IPC``
    Direct device-to-device copy over NVLink/X-Bus after mapping the peer
    buffer with CUDA IPC.  Requires (a) ``MV2_CUDA_IPC`` on, (b) *mutual*
    MPI-layer visibility of the two devices, (c) message size above the IPC
    rendezvous threshold.  This is the fast path the paper restores.

``HOST_STAGED``
    The fallback when IPC is unavailable: sender ``cudaMemcpy``s chunks
    D2H into the pageable shared-memory region, receiver copies H2D.
    Pageable-copy bandwidth plus per-chunk synchronization makes this the
    dominant cost of the paper's "default" configuration.

``SMP_EAGER``
    Small intra-node messages always use the shared-memory eager path
    (double copy, cheap at small sizes) — IPC would not amortize.  This is
    why the paper's Table I shows ~0 improvement below 16 MB.

``GDR_RDMA``
    Inter-node zero-copy: rendezvous handshake + (cacheable) registration,
    then GPUDirect RDMA at wire speed.  ``IB_EAGER`` covers small messages.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

from repro.cuda.runtime import IPC_OPEN_OVERHEAD_S
from repro.errors import MpiError, MpiTimeoutError
from repro.faults.plan import RetryPolicy
from repro.hardware.cluster import Cluster
from repro.hardware.node import DeviceRef
from repro.mpi.env import Mv2Config
from repro.mpi.process import RankContext
from repro.net.infiniband import IbTransferModel
from repro.net.regcache import RegistrationCache
from repro.sim.resources import Resource
from repro.utils.units import MIB


class TransportKind(enum.Enum):
    SELF = "self"
    CUDA_IPC = "cuda-ipc"
    HOST_STAGED = "host-staged"
    SMP_EAGER = "smp-eager"
    GDR_RDMA = "gdr-rdma"
    IB_EAGER = "ib-eager"
    STAGED_INTER = "staged-inter"  # inter-node with GDR disabled

    # members are singletons compared by identity, so hash them by identity
    # too: the stats dicts and STAGED_KINDS then skip the Python-level
    # Enum.__hash__.  Identity hashes differ between processes, so no set
    # of kinds may ever be iterated into an output.
    __hash__ = object.__hash__


# the members ``quote`` and ``apply`` test, as module globals: reading one
# costs a fraction of an Enum class-attribute read
_SELF = TransportKind.SELF
_CUDA_IPC = TransportKind.CUDA_IPC
_GDR_RDMA = TransportKind.GDR_RDMA
_IB_EAGER = TransportKind.IB_EAGER
_STAGED_INTER = TransportKind.STAGED_INTER


#: intra-node messages at or below this always take the SMP eager path
SMP_EAGER_THRESHOLD = 64 * 1024

#: IPC rendezvous is only attempted above this size (handle-open and
#: synchronization costs do not amortize below it).  At 4 ranks, the ring
#: chunks of >=16 MB fused buffers sit at >=4 MiB and take the IPC path,
#: while chunks of smaller messages fall back to staging — which is why
#: Table I shows gains only in the >=16 MB bins.
CUDA_IPC_THRESHOLD = 4 * MIB

#: transports whose copies run on a node's staging engines: their copy time
#: is charged to both endpoints, the analytic step walk serializes them in
#: engine waves, and a reduction after them runs on the host
STAGED_KINDS = frozenset(
    (TransportKind.HOST_STAGED, TransportKind.SMP_EAGER, TransportKind.STAGED_INTER)
)


@dataclass
class CostBreakdown:
    """Per-transfer cost decomposition (seconds)."""

    kind: TransportKind
    wire: float = 0.0  # link traversal at bottleneck bandwidth
    staging: float = 0.0  # pageable-copy + chunk-sync cost
    protocol: float = 0.0  # handshakes, registration, IPC setup
    nbytes: int = 0

    @property
    def total(self) -> float:
        return self.wire + self.staging + self.protocol


@dataclass
class TransportStats:
    """Aggregate byte/transfer counters per transport kind."""

    bytes_moved: dict[TransportKind, int] = field(
        default_factory=lambda: {k: 0 for k in TransportKind}
    )
    transfers: dict[TransportKind, int] = field(
        default_factory=lambda: {k: 0 for k in TransportKind}
    )


class TransferQuote:
    """The part of one transfer's cost that no protocol state changes.

    :meth:`TransportModel.quote` builds it without side effects and
    :meth:`TransportModel.apply` sends it: ``apply`` performs the
    transfer's side effects and returns its protocol seconds, so the
    transfer costs ``(wire + staging) + apply(q)``.  ``protocol`` is the
    fixed part of that term: the queue or IPC synchronization (plus
    ``IPC_OPEN_OVERHEAD_S`` when ``opens_ipc``), the eager copy, or the
    rendezvous handshake (plus per-chunk registration when the sender's
    cache is disabled).  A rendezvous also names the registration caches
    and buffers it touches (``src_cache``/``src_buf`` on the sender's HCA,
    ``dst_cache``/``dst_buf`` for a GDR receiver, both at ``extent``);
    ``ib`` is the sender's HCA for IB kinds.  ``staged`` says whether the
    kind is one of :data:`STAGED_KINDS`.  Every slot is set once, from
    the constructor's arguments in slot order.  The ring closed form
    prices its steady sends from price entries
    (:meth:`TransportModel.steady_row`) and builds none.
    """

    __slots__ = (
        "kind", "staged", "src", "dst", "nbytes", "wire", "staging",
        "protocol", "opens_ipc", "ib", "src_cache", "src_buf", "dst_cache",
        "dst_buf", "extent",
    )

    def __init__(
        self, kind: TransportKind, staged: bool, src: int, dst: int,
        nbytes: int, wire: float, staging: float, protocol: float,
        opens_ipc: bool, ib: IbTransferModel | None,
        src_cache: RegistrationCache | None, src_buf: int | None,
        dst_cache: RegistrationCache | None, dst_buf: int | None,
        extent: int,
    ):
        self.kind = kind
        self.staged = staged
        self.src = src
        self.dst = dst
        self.nbytes = nbytes
        self.wire = wire
        self.staging = staging
        self.protocol = protocol
        self.opens_ipc = opens_ipc
        self.ib = ib
        self.src_cache = src_cache
        self.src_buf = src_buf
        self.dst_cache = dst_cache
        self.dst_buf = dst_buf
        self.extent = extent


class PairGeometry:
    """What never changes about one ordered rank pair of a world.

    Both ranks, whether they share a node, the CUDA IPC verdict, the
    sender's HCA and the receiver's registration cache, and ``prices``:
    the price-table entries of the pair's class, keyed by ``nbytes`` and
    shared with every pair of that class (see
    :meth:`TransportModel._price`).
    """

    __slots__ = ("a", "b", "same_node", "ipc", "ib", "dst_cache", "prices")

    def __init__(self, transport: "TransportModel", src: int, dst: int):
        a, b = self.a, self.b = transport.ranks[src], transport.ranks[dst]
        self.same_node = a.node_id == b.node_id
        self.ipc = transport.can_ipc(a, b)
        self.ib = transport._ib[a.node_id]
        self.dst_cache = transport._ib[b.node_id].reg_cache
        shape = (
            transport.cluster.route_class(a.device_ref, b.device_ref),
            self.ipc, src == dst,
        )
        self.prices = transport._prices.setdefault(shape, {})


class TransportModel:
    """Selects and costs transports for one MPI world."""

    def __init__(
        self,
        cluster: Cluster,
        config: Mv2Config,
        ranks: list[RankContext],
        *,
        faults=None,
        retry: RetryPolicy | None = None,
    ):
        self.cluster = cluster
        self.config = config
        self.faults = faults
        self.retry = retry or RetryPolicy()
        if faults is not None:
            cluster.apply_fault_injector(faults)
        self.ranks = {r.rank: r for r in ranks}
        env = cluster.env
        node_ids = sorted({r.node_id for r in ranks})
        self._ib: dict[int, IbTransferModel] = {
            nid: IbTransferModel(
                RegistrationCache(
                    enabled=config.registration_cache,
                    max_entries=config.reg_cache_entries,
                )
            )
            for nid in node_ids
        }
        self._staging: dict[int, Resource] = {
            nid: Resource(
                env,
                capacity=cluster.spec.node.staging_engines,
                name=f"n{nid}:staging",
            )
            for nid in node_ids
        }
        self._ipc_pairs: set[tuple[int, int]] = set()
        # the registration caches acquired through since the last
        # begin_collective: no other cache's call scope holds anything
        self._scoped: set[RegistrationCache] = set()
        # ordered (src, dst) -> PairGeometry, filled on the pair's first use
        self._pairs: dict[tuple[int, int], PairGeometry] = {}
        # (route class, IPC verdict, src == dst) -> {nbytes: (kind, staged,
        # wire, staging, protocol)}: the price table quote reads
        self._prices: dict[tuple, dict[int, tuple]] = {}
        self.stats = TransportStats()
        # Seconds each rank spends driving pageable staging copies; these
        # copies are synchronous w.r.t. the GPU stream, so the scaling study
        # charges them against compute (the default path's hidden tax).
        self.staged_seconds: dict[int, float] = {r.rank: 0.0 for r in ranks}

    def begin_collective(self) -> None:
        """Open a new MPI-call scope on every HCA's registration state.

        Only an acquire adds to a call scope, and every acquire on this
        world's caches goes through :meth:`acquire_registrations` or
        :meth:`send_row`, which note the cache; so resetting the caches
        noted since the last call resets every scope that holds anything.
        The resets are independent, so their order is immaterial.
        """
        scoped = self._scoped
        for cache in scoped:
            cache.begin_transaction()
        scoped.clear()

    # -- selection -----------------------------------------------------------
    def can_ipc(self, a: RankContext, b: RankContext) -> bool:
        """Mutual-visibility IPC test (the crux of the paper's §III-C)."""
        if a.node_id != b.node_id or a.rank == b.rank:
            return False
        if not self.config.cuda_ipc_enabled:
            return False
        return a.mpi_sees(b.physical_device) and b.mpi_sees(a.physical_device)

    def select(self, src: int, dst: int, nbytes: int) -> TransportKind:
        return self._select(self._pair(src, dst), src, dst, nbytes)

    def _select(
        self, pair: PairGeometry, src: int, dst: int, nbytes: int
    ) -> TransportKind:
        if src == dst:
            return TransportKind.SELF
        if pair.same_node:
            if nbytes <= SMP_EAGER_THRESHOLD:
                return TransportKind.SMP_EAGER
            if nbytes >= CUDA_IPC_THRESHOLD and pair.ipc:
                return TransportKind.CUDA_IPC
            return TransportKind.HOST_STAGED
        if nbytes <= self.config.eager_threshold:
            return TransportKind.IB_EAGER
        if self.config.gdr_enabled:
            return TransportKind.GDR_RDMA
        return TransportKind.STAGED_INTER

    # -- helper geometry -------------------------------------------------------
    def _pair(self, src: int, dst: int) -> PairGeometry:
        """The ordered pair's :class:`PairGeometry`, resolved once."""
        pair = self._pairs.get((src, dst))
        if pair is None:
            pair = self._pairs[(src, dst)] = PairGeometry(self, src, dst)
        return pair

    def _cpu_of(self, rank: RankContext) -> DeviceRef:
        return self.cluster.staging_cpu(rank.device_ref)

    def _staged_time(self, a: RankContext, b: RankContext, nbytes: int) -> float:
        """Chunk-pipelined D2H + H2D staging through pageable host memory."""
        spec = self.cluster.spec.node
        chunks = max(1, -(-nbytes // self.config.smp_chunk_bytes))
        # Two pageable copies pipeline; steady-state throughput is bounded by
        # the slower stage (both are pageable-copy bound, not NVLink bound).
        per_byte = 1.0 / spec.pageable_copy_bandwidth
        pipeline_fill = min(nbytes, self.config.smp_chunk_bytes) * per_byte
        return (
            chunks * self.config.smp_chunk_overhead_s
            + nbytes * per_byte
            + pipeline_fill
        )

    # -- analytic costs -----------------------------------------------------------
    def quote(
        self,
        src: int,
        dst: int,
        nbytes: int,
        *,
        src_buffer: int | None = None,
        dst_buffer: int | None = None,
        buffer_extent: int | None = None,
    ) -> TransferQuote:
        """Price one message from what no send changes.

        ``quote`` changes no protocol state: opening an IPC pair,
        acquiring registrations and counting sends are :meth:`apply`'s.
        Registration-cache state never enters a quote; only
        ``opens_ipc`` reads protocol state.  Every walked transfer is
        quoted here, and no quote outlives its step; the ring closed form
        prices its rows through :meth:`steady_row` and builds no quote.

        What the transfer's shape fixes comes from the world's price
        table (see :meth:`_price`); the sender's HCA, the caches, buffers
        and extent a rendezvous touches, and ``opens_ipc`` are the
        transfer's own.  Under a ``LinkFault`` (``cluster.live_links``,
        read at every quote) link state varies with simulated time, so
        the quote is priced afresh and the table left alone.
        """
        pair = self._pairs.get((src, dst)) or self._pair(src, dst)
        if self.cluster.live_links:
            entry = self._price(pair, src, dst, nbytes)
        else:
            entry = pair.prices.get(nbytes)
            if entry is None:
                entry = pair.prices[nbytes] = self._price(pair, src, dst, nbytes)
        kind, staged, wire, staging, protocol = entry
        opens_ipc = False
        ib = src_cache = src_buf = dst_cache = dst_buf = None
        extent = nbytes
        if kind is _GDR_RDMA or kind is _STAGED_INTER:
            ib = pair.ib
            src_cache = ib.reg_cache
            src_buf = src_buffer if src_buffer is not None else -src - 1
            if buffer_extent is not None:
                extent = buffer_extent
            if kind is _GDR_RDMA:
                # receiver's buffer is advertised once per call (CTS
                # carries the rkey) through its own HCA's cache
                dst_cache = pair.dst_cache
                dst_buf = dst_buffer if dst_buffer is not None else -dst - 1
        elif kind is _IB_EAGER:
            ib = pair.ib
        elif kind is _CUDA_IPC:
            opens_ipc = (min(src, dst), max(src, dst)) not in self._ipc_pairs
            if opens_ipc:
                # first use maps the peer buffer, then IPC rendezvous sync
                protocol = IPC_OPEN_OVERHEAD_S + 3.0e-6
        return TransferQuote(
            kind, staged, src, dst, nbytes, wire, staging, protocol, opens_ipc,
            ib, src_cache, src_buf, dst_cache, dst_buf, extent,
        )

    def _price(
        self, pair: PairGeometry, src: int, dst: int, nbytes: int
    ) -> tuple[TransportKind, bool, float, float, float]:
        """``(kind, staged, wire, staging, protocol)`` of ``nbytes`` over
        ``pair``, priced from scratch.

        :meth:`quote` stores it per shape: the pair's
        :meth:`~repro.hardware.cluster.Cluster.route_class`, its CUDA IPC
        verdict, whether ``src == dst``, and ``nbytes``.  The route class
        fixes the wire because the fabric is uniform, and the protocol
        term because the HCAs are too: every :class:`IbTransferModel` of
        a world has the default
        :class:`~repro.net.infiniband.IbProtocolCosts` and a
        :class:`RegistrationCache` built from the one :class:`Mv2Config`.
        An IPC price holds the protocol of an open pair; ``quote`` adds
        ``IPC_OPEN_OVERHEAD_S`` while its own pair is not yet open,
        whichever pair filled the entry.
        """
        kind = self._select(pair, src, dst, nbytes)
        if kind is TransportKind.SELF:
            return kind, False, 0.0, 0.0, 0.0
        spec = self.cluster.spec.node
        route = pair.a.device_ref, pair.b.device_ref
        wire = staging = 0.0
        if kind is TransportKind.SMP_EAGER:
            protocol = 2.0e-6  # shared-memory queue post/poll
            staging = 2 * nbytes / spec.pageable_copy_bandwidth
        elif kind is TransportKind.CUDA_IPC:
            protocol = 3.0e-6  # IPC rendezvous sync on an open pair
            wire = max(
                self.cluster.path_cost(*route, nbytes),
                nbytes / self.config.cuda_ipc_bandwidth,
            )
        elif kind is TransportKind.HOST_STAGED:
            protocol = 2.5e-6
            staging = self._staged_time(pair.a, pair.b, nbytes)
        elif kind is TransportKind.IB_EAGER:
            protocol = pair.ib.eager_overhead(nbytes)
            # small D2H copy into the bounce buffer, then the wire
            staging = nbytes / spec.pageable_copy_bandwidth
            wire = self.cluster.path_cost(*route, nbytes)
        elif kind is TransportKind.GDR_RDMA:
            protocol = pair.ib.rendezvous_overhead(nbytes)
            wire = self.cluster.path_cost(*route, nbytes)
        elif kind is TransportKind.STAGED_INTER:
            protocol = pair.ib.rendezvous_overhead(nbytes)
            staging = 2 * nbytes / spec.pageable_copy_bandwidth
            wire = self.cluster.path_cost(
                self._cpu_of(pair.a), self._cpu_of(pair.b), nbytes
            )
        else:  # pragma: no cover - enum is exhaustive
            raise MpiError(f"unhandled transport {kind}")
        return kind, kind in STAGED_KINDS, wire, staging, protocol

    def apply(self, q: TransferQuote) -> float:
        """Send a quoted transfer: perform its side effects (registration
        acquires, IPC pair open, eager/rendezvous counters, staging
        charges, transport stats) and return its protocol seconds."""
        if q.kind is _SELF:
            return 0.0
        protocol = q.protocol
        if q.src_cache is not None:
            protocol = self.acquire_registrations(q)
        elif q.opens_ipc:
            self.open_ipc(q.src, q.dst)
        if q.staged:
            self.charge_staging(q.src, q.dst, q.staging)
        self.record_sends(q, 1)
        return protocol

    def acquire_registrations(self, q: TransferQuote) -> float:
        """A rendezvous's protocol seconds after acquiring its sender
        registration (cache enabled) and then its receiver's."""
        protocol = q.protocol
        scoped = self._scoped
        if q.src_cache.enabled:
            scoped.add(q.src_cache)
            protocol += q.src_cache.acquire(q.src_buf, q.extent)
        if q.dst_cache is not None:
            scoped.add(q.dst_cache)
            protocol += q.dst_cache.acquire(q.dst_buf, q.extent)
        return protocol

    # -- rows of steady sends --------------------------------------------------
    def steady_row(
        self,
        pairs: list[PairGeometry],
        nbytes: int,
        buffer_ids: dict[int, int],
        extent: int | None,
    ) -> list[tuple | None]:
        """Each pair's price entry ``(kind, staged, wire, staging,
        protocol)`` for its next send of ``nbytes``, or None where that
        send's :meth:`apply` would open a CUDA IPC pair or change a
        registration.  Read-only; it builds no quote.

        ``buffer_ids`` and ``extent`` stand for :meth:`quote`'s buffer
        arguments.  The state rules: a CUDA IPC send is steady once its
        pair is open; a rendezvous once the sender's cache (if enabled)
        and, for GDR, the receiver's would acquire without a change
        (:meth:`RegistrationCache.peek`); any other send always.  A steady
        acquire charges 0.0, so a steady send's protocol seconds are its
        entry's, and ``(wire + staging) + protocol`` is the float
        ``(q.wire + q.staging) + apply(q)`` gives.

        Consecutive pairs of one price row (``PairGeometry.prices``) share
        its entry object, read once.  Under a ``LinkFault``
        (``cluster.live_links``) every pair is priced afresh and the table
        left alone, as :meth:`quote` does.
        """
        live = self.cluster.live_links
        opened = self._ipc_pairs
        ext = nbytes if extent is None else extent
        out: list[tuple | None] = []
        row = entry = None
        sender = receiver = ipc = False
        for pair in pairs:
            prices = pair.prices
            if live or prices is not row:
                row = prices
                entry = None if live else prices.get(nbytes)
                if entry is None:
                    entry = self._price(pair, pair.a.rank, pair.b.rank, nbytes)
                    if not live:
                        prices[nbytes] = entry
                kind = entry[0]
                sender = kind is _GDR_RDMA or kind is _STAGED_INTER
                receiver = kind is _GDR_RDMA
                ipc = kind is _CUDA_IPC
            if sender:
                src = pair.a.rank
                buf = buffer_ids.get(src)
                cache = pair.ib.reg_cache
                if cache.enabled and cache.peek(
                    -src - 1 if buf is None else buf, ext
                ) is None:
                    out.append(None)
                    continue
                if receiver:
                    dst = pair.b.rank
                    buf = buffer_ids.get(dst)
                    if pair.dst_cache.peek(
                        -dst - 1 if buf is None else buf, ext
                    ) is None:
                        out.append(None)
                        continue
            elif ipc:
                src, dst = pair.a.rank, pair.b.rank
                if (min(src, dst), max(src, dst)) not in opened:
                    out.append(None)
                    continue
            out.append(entry)
        return out

    def send_row(
        self,
        pairs: list[PairGeometry],
        entries: list[tuple],
        count: int,
        moved: list[int],
        buffer_ids: dict[int, int],
        extent: int,
    ) -> None:
        """Perform ``count`` steady sends over each pair at its
        :meth:`steady_row` entry, ``moved[i]`` bytes over ``pairs[i]`` in
        all: what those :meth:`apply` calls leave, but staging.

        The counters (transport stats, the sender HCA's eager or
        rendezvous sends, a disabled sender cache's per-chunk
        registrations) are added per pair in sums.  The acquires run once
        at ``extent``, sender then receiver, pairs in order: every steady
        send repeats that sequence of warm acquires, and one pass leaves
        the per-call hit counts and the LRU order all of them would.  A
        steady send opens no IPC pair; its staging charges are the
        caller's to replay in its own order (:meth:`charge_staging`).
        """
        transfers, bytes_moved = self.stats.transfers, self.stats.bytes_moved
        scoped = self._scoped
        for pair, entry, nbytes in zip(pairs, entries, moved):
            kind = entry[0]
            transfers[kind] += count
            bytes_moved[kind] += nbytes
            if kind is _GDR_RDMA or kind is _STAGED_INTER:
                ib = pair.ib
                ib.rndv_sends += count
                cache = ib.reg_cache
                if cache.enabled:
                    src = pair.a.rank
                    buf = buffer_ids.get(src)
                    scoped.add(cache)
                    cache.acquire(-src - 1 if buf is None else buf, extent)
                else:
                    cache.misses += count
                if kind is _GDR_RDMA:
                    dst = pair.b.rank
                    buf = buffer_ids.get(dst)
                    cache = pair.dst_cache
                    scoped.add(cache)
                    cache.acquire(-dst - 1 if buf is None else buf, extent)
            elif kind is _IB_EAGER:
                pair.ib.eager_sends += count

    def record_sends(self, q: TransferQuote, count: int) -> None:
        """Count ``count`` sends of ``q``: transport stats, the HCA's eager
        or rendezvous sends, and a disabled sender cache's per-chunk
        registrations."""
        self.stats.bytes_moved[q.kind] += q.nbytes * count
        self.stats.transfers[q.kind] += count
        if q.src_cache is not None:
            q.ib.rndv_sends += count
            if not q.src_cache.enabled:
                q.src_cache.misses += count
        elif q.ib is not None:
            q.ib.eager_sends += count

    def open_ipc(self, src: int, dst: int) -> None:
        """Open the CUDA IPC mapping between two ranks (either order)."""
        self._ipc_pairs.add((min(src, dst), max(src, dst)))

    def charge_staging(self, src: int, dst: int, staging: float) -> None:
        """Attribute a staged transfer's ``staging`` seconds to its two
        endpoints (sender drives the D2H half, receiver the H2D half)."""
        self.staged_seconds[src] += staging / 2
        self.staged_seconds[dst] += staging / 2

    def cost(
        self,
        src: int,
        dst: int,
        nbytes: int,
        *,
        src_buffer: int | None = None,
        dst_buffer: int | None = None,
        buffer_extent: int | None = None,
    ) -> CostBreakdown:
        """Uncontended cost of one message; mutates protocol state
        (registration caches, IPC pair setup) exactly as a real send would."""
        q = self.quote(
            src, dst, nbytes, src_buffer=src_buffer, dst_buffer=dst_buffer,
            buffer_extent=buffer_extent,
        )
        protocol = self.apply(q)
        return CostBreakdown(
            kind=q.kind, wire=q.wire, staging=q.staging, protocol=protocol,
            nbytes=nbytes,
        )

    def max_staged_seconds(self) -> float:
        """Busiest rank's cumulative staging time (the compute-blocking tax)."""
        return max(self.staged_seconds.values(), default=0.0)

    # -- event-driven transfer -----------------------------------------------------
    def transfer_proc(
        self,
        src: int,
        dst: int,
        nbytes: int,
        *,
        src_buffer: int | None = None,
        dst_buffer: int | None = None,
        buffer_extent: int | None = None,
    ):
        """Simulation process realizing the same cost with link contention.

        With a fault injector attached, every transmission attempt is
        subject to injected delay and loss.  A lost message costs the ack
        timeout to detect, then retransmits after exponential backoff;
        exhausting the retry budget raises
        :class:`~repro.errors.MpiTimeoutError` (surfaced, not a hang).
        """
        env_ = self.cluster.env
        if self.faults is not None:
            attempt = 0
            severed = False
            while True:
                verdict = self.faults.message_verdict(src, dst, env_.now)
                severed = verdict.severed
                if verdict.delay_s > 0:
                    yield env_.timeout(verdict.delay_s)
                if not verdict.drop:
                    if not self.faults.corruption_verdict(src, dst, env_.now):
                        break
                    # delivered but damaged: the CRC32 frame check catches
                    # it and the ladder retransmits, exactly like a loss —
                    # corruption can never reach the consumer undetected
                    from repro.comm.integrity import crc_check_time

                    yield env_.timeout(crc_check_time(nbytes))
                    self.faults.record(
                        "crc-detected", env_.now, src=src, dst=dst,
                        detail=f"{nbytes}B retransmit",
                    )
                attempt += 1
                if attempt > self.retry.max_retries:
                    cause = (
                        "path severed (partition/switch outage)"
                        if severed else "lost"
                    )
                    self.faults.record(
                        "msg-timeout", env_.now, src=src, dst=dst,
                        detail=f"{nbytes}B after {attempt} attempts"
                               + (" severed" if severed else ""),
                    )
                    raise MpiTimeoutError(
                        f"message {src}->{dst} ({nbytes}B) {cause} "
                        f"{attempt} time(s); retry budget "
                        f"({self.retry.max_retries}) exhausted"
                    )
                backoff = self.retry.backoff(attempt)
                self.faults.record(
                    "msg-retry", env_.now, src=src, dst=dst,
                    detail=f"attempt={attempt} backoff={backoff:g}s",
                )
                yield env_.timeout(self.retry.ack_timeout_s + backoff)
        a, b = self.ranks[src], self.ranks[dst]
        breakdown = self.cost(
            src, dst, nbytes, src_buffer=src_buffer, dst_buffer=dst_buffer,
            buffer_extent=buffer_extent,
        )
        kind = breakdown.kind
        env = self.cluster.env
        if breakdown.protocol:
            yield env.timeout(breakdown.protocol)
        if kind in STAGED_KINDS:
            staging = self._staging[a.node_id]
            yield staging.request()
            try:
                yield env.timeout(breakdown.staging)
            finally:
                staging.release()
            if kind is TransportKind.STAGED_INTER:
                yield env.process(
                    self.cluster.transfer(self._cpu_of(a), self._cpu_of(b), nbytes)
                )
            return kind
        if breakdown.staging:
            yield env.timeout(breakdown.staging)
        if kind in (TransportKind.CUDA_IPC, TransportKind.GDR_RDMA, TransportKind.IB_EAGER):
            # claim every hop of the route for the (possibly protocol-capped)
            # wire duration so contention is simulated
            yield from self.cluster.hold_route(
                self.cluster.route(a.device_ref, b.device_ref), breakdown.wire
            )
        return kind

    def drop_registrations(self, node_id: int | None = None) -> float:
        """Flush registration caches (fault recovery after an HCA reset or
        link flap); returns the total deregistration time charged."""
        time = 0.0
        for nid, ib in self._ib.items():
            if node_id is None or nid == node_id:
                time += ib.reg_cache.invalidate_all()
        if self.faults is not None:
            self.faults.record(
                "regcache-flush", self.cluster.env.now,
                detail="all nodes" if node_id is None else f"node {node_id}",
            )
        return time

    # -- reporting -------------------------------------------------------------------
    def regcache_stats(self) -> dict[str, float]:
        """Aggregated registration-cache statistics across all HCAs."""
        hits = sum(ib.reg_cache.hits for ib in self._ib.values())
        misses = sum(ib.reg_cache.misses for ib in self._ib.values())
        lookups = hits + misses
        return {
            "hits": hits,
            "misses": misses,
            "hit_rate": hits / lookups if lookups else 0.0,
        }
