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
from repro.perf import flags as perf_flags
from repro.sim.resources import Resource, try_acquire_all
from repro.utils.units import MIB


class TransportKind(enum.Enum):
    SELF = "self"
    CUDA_IPC = "cuda-ipc"
    HOST_STAGED = "host-staged"
    SMP_EAGER = "smp-eager"
    GDR_RDMA = "gdr-rdma"
    IB_EAGER = "ib-eager"
    STAGED_INTER = "staged-inter"  # inter-node with GDR disabled


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
    ``ib`` is the sender's HCA for IB kinds.  ``reduce_s`` caches the
    reduction time of a transfer that is followed by one.
    """

    __slots__ = (
        "kind", "src", "dst", "nbytes", "wire", "staging", "protocol",
        "opens_ipc", "ib", "src_cache", "src_buf", "dst_cache", "dst_buf",
        "extent", "reduce_s",
    )

    def __init__(self, kind: TransportKind, src: int, dst: int, nbytes: int):
        self.kind = kind
        self.src = src
        self.dst = dst
        self.nbytes = nbytes
        self.wire = 0.0
        self.staging = 0.0
        self.protocol = 0.0
        self.opens_ipc = False
        self.ib = None
        self.src_cache = None
        self.src_buf = None
        self.dst_cache = None
        self.dst_buf = None
        self.extent = nbytes
        self.reduce_s = None


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
        self.stats = TransportStats()
        # Seconds each rank spends driving pageable staging copies; these
        # copies are synchronous w.r.t. the GPU stream, so the scaling study
        # charges them against compute (the default path's hidden tax).
        self.staged_seconds: dict[int, float] = {r.rank: 0.0 for r in ranks}

    def begin_collective(self) -> None:
        """Open a new MPI-call scope on every HCA's registration state."""
        for ib in self._ib.values():
            ib.reg_cache.begin_transaction()

    # -- selection -----------------------------------------------------------
    def can_ipc(self, a: RankContext, b: RankContext) -> bool:
        """Mutual-visibility IPC test (the crux of the paper's §III-C)."""
        if a.node_id != b.node_id or a.rank == b.rank:
            return False
        if not self.config.cuda_ipc_enabled:
            return False
        return a.mpi_sees(b.physical_device) and b.mpi_sees(a.physical_device)

    def select(self, src: int, dst: int, nbytes: int) -> TransportKind:
        a, b = self.ranks[src], self.ranks[dst]
        if src == dst:
            return TransportKind.SELF
        if a.node_id == b.node_id:
            if nbytes <= SMP_EAGER_THRESHOLD:
                return TransportKind.SMP_EAGER
            if nbytes >= CUDA_IPC_THRESHOLD and self.can_ipc(a, b):
                return TransportKind.CUDA_IPC
            return TransportKind.HOST_STAGED
        if nbytes <= self.config.eager_threshold:
            return TransportKind.IB_EAGER
        if self.config.gdr_enabled:
            return TransportKind.GDR_RDMA
        return TransportKind.STAGED_INTER

    # -- helper geometry -------------------------------------------------------
    def _cpu_of(self, rank: RankContext) -> DeviceRef:
        node = self.cluster.nodes[rank.node_id]
        return node.cpu_refs[node.socket_of_gpu(rank.physical_device)]

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
        """Price one message from what no send changes; mutates nothing.

        Registration-cache state never enters a quote.  Only
        ``opens_ipc`` reads protocol state, and pairs never close, so a
        quote that does not open one stays valid while the transport's
        configuration, placement and link state do.
        """
        kind = self.select(src, dst, nbytes)
        q = TransferQuote(kind, src, dst, nbytes)
        if kind is TransportKind.SELF:
            return q
        a, b = self.ranks[src], self.ranks[dst]
        spec = self.cluster.spec.node
        if kind is TransportKind.SMP_EAGER:
            q.protocol = 2.0e-6  # shared-memory queue post/poll
            q.staging = 2 * nbytes / spec.pageable_copy_bandwidth
        elif kind is TransportKind.CUDA_IPC:
            q.opens_ipc = (min(src, dst), max(src, dst)) not in self._ipc_pairs
            # first use maps the peer buffer, then IPC rendezvous sync
            q.protocol = (IPC_OPEN_OVERHEAD_S if q.opens_ipc else 0.0) + 3.0e-6
            path = self.cluster.path_cost(a.device_ref, b.device_ref, nbytes)
            q.wire = max(path, nbytes / self.config.cuda_ipc_bandwidth)
        elif kind is TransportKind.HOST_STAGED:
            q.protocol = 2.5e-6
            q.staging = self._staged_time(a, b, nbytes)
        elif kind is TransportKind.IB_EAGER:
            q.ib = self._ib[a.node_id]
            q.protocol = q.ib.eager_overhead(nbytes)
            # small D2H copy into the bounce buffer, then the wire
            q.staging = nbytes / spec.pageable_copy_bandwidth
            q.wire = self.cluster.path_cost(a.device_ref, b.device_ref, nbytes)
        elif kind is TransportKind.GDR_RDMA or kind is TransportKind.STAGED_INTER:
            ib = q.ib = self._ib[a.node_id]
            q.protocol = ib.rendezvous_overhead(nbytes)
            q.src_cache = ib.reg_cache
            q.src_buf = src_buffer if src_buffer is not None else -src - 1
            if buffer_extent is not None:
                q.extent = buffer_extent
            if kind is TransportKind.GDR_RDMA:
                # receiver's buffer is advertised once per call (CTS
                # carries the rkey) through its own HCA's cache
                q.dst_cache = self._ib[b.node_id].reg_cache
                q.dst_buf = dst_buffer if dst_buffer is not None else -dst - 1
                q.wire = self.cluster.path_cost(a.device_ref, b.device_ref, nbytes)
            else:
                q.staging = 2 * nbytes / spec.pageable_copy_bandwidth
                q.wire = self.cluster.path_cost(
                    self._cpu_of(a), self._cpu_of(b), nbytes
                )
        else:  # pragma: no cover - enum is exhaustive
            raise MpiError(f"unhandled transport {kind}")
        return q

    def apply(self, q: TransferQuote) -> float:
        """Send a quoted transfer: perform its side effects (registration
        acquires, IPC pair open, eager/rendezvous counters, staging
        charges, transport stats) and return its protocol seconds."""
        if q.kind is TransportKind.SELF:
            return 0.0
        protocol = q.protocol
        if q.src_cache is not None:
            protocol = self.acquire_registrations(q)
        elif q.opens_ipc:
            self._ipc_pairs.add((min(q.src, q.dst), max(q.src, q.dst)))
        if q.kind in STAGED_KINDS:
            self.charge_staging(q)
        self.record_sends(q, 1)
        return protocol

    def acquire_registrations(self, q: TransferQuote) -> float:
        """A rendezvous's protocol seconds after acquiring its sender
        registration (cache enabled) and then its receiver's."""
        protocol = q.protocol
        if q.src_cache.enabled:
            protocol += q.src_cache.acquire(q.src_buf, q.extent)
        if q.dst_cache is not None:
            protocol += q.dst_cache.acquire(q.dst_buf, q.extent)
        return protocol

    def steady_protocol(self, q: TransferQuote) -> float | None:
        """What the next :meth:`apply` of ``q`` returns, if that apply opens
        no IPC pair and changes no registration; else None.  Read-only."""
        if q.opens_ipc:
            return None
        protocol = q.protocol
        if q.src_cache is None:
            return protocol
        if q.src_cache.enabled:
            charge = q.src_cache.peek(q.src_buf, q.extent)
            if charge is None:
                return None
            protocol += charge
        if q.dst_cache is not None:
            charge = q.dst_cache.peek(q.dst_buf, q.extent)
            if charge is None:
                return None
            protocol += charge
        return protocol

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

    def charge_staging(self, q: TransferQuote) -> None:
        """Attribute a staged transfer's copy time to its two endpoints
        (sender drives the D2H half, receiver the H2D half)."""
        self.staged_seconds[q.src] += q.staging / 2
        self.staged_seconds[q.dst] += q.staging / 2

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
        if kind in (TransportKind.HOST_STAGED, TransportKind.SMP_EAGER):
            staging = self._staging[a.node_id]
            yield staging.request()
            try:
                yield env.timeout(breakdown.staging)
            finally:
                staging.release()
            return kind
        if kind is TransportKind.STAGED_INTER:
            staging = self._staging[a.node_id]
            yield staging.request()
            try:
                yield env.timeout(breakdown.staging)
            finally:
                staging.release()
            yield env.process(
                self.cluster.transfer(self._cpu_of(a), self._cpu_of(b), nbytes)
            )
            return kind
        if breakdown.staging:
            yield env.timeout(breakdown.staging)
        if kind in (TransportKind.CUDA_IPC, TransportKind.GDR_RDMA, TransportKind.IB_EAGER):
            # claim every hop of the route for the (possibly protocol-capped)
            # wire duration so contention is simulated
            hops = self.cluster.route(a.device_ref, b.device_ref)
            channels = [link.channel(frm, to) for link, frm, to in hops]
            if perf_flags.link_fastpath and try_acquire_all(channels):
                # Uncontended-link fast path: no other flow shares any hop
                # right now, so the per-hop request/grant events collapse
                # into one timed event.  The channels stay held for the
                # wire duration, so any flow arriving meanwhile queues
                # exactly as it would on the slow path below.
                try:
                    yield env.timeout(breakdown.wire)
                    for link, _, _ in hops:
                        link.bytes_carried += nbytes
                        link.transfer_count += 1
                finally:
                    for channel in reversed(channels):
                        channel.release()
                return kind
            held = []
            try:
                for channel in channels:
                    yield channel.request()
                    held.append(channel)
                yield env.timeout(breakdown.wire)
                for link, _, _ in hops:
                    link.bytes_carried += nbytes
                    link.transfer_count += 1
            finally:
                for channel in reversed(held):
                    channel.release()
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
