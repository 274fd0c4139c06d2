"""NCCL world: ring/tree cost envelope behind the one communicator.

:class:`NcclWorld` prices the collectives a
:class:`~repro.mpi.comm.Communicator` runs on it, so Horovod swaps
backends under one allreduce call (`HOROVOD_GPU_ALLREDUCE=NCCL` vs MPI in
the paper's runs).

Fault injection is symmetric with the MPI backend: a
:class:`~repro.faults.FaultInjector` handed to :class:`NcclWorld` degrades
the cost envelope — link faults scale the NVLink/IB hop classes (bandwidth
and latency), and message faults charge their delay (plus one
deterministic chunk retransmission per drop) against the inter-node hops
of the ring.  The injector is consulted at the communicator's accumulated
comm-stream time, which is the envelope's analogue of the MPI transport's
per-transfer clock.
"""

from __future__ import annotations

import math

from repro.errors import NcclError
from repro.hardware.cluster import Cluster
from repro.hardware.links import LinkKind
from repro.mpi.collectives.base import CollectiveTiming, ExecutionMode
from repro.mpi.comm import Communicator
from repro.nccl.protocol import DEFAULT_PROTOCOL, NcclProtocol
from repro.nccl.rings import (
    build_ring,
    hop_fault_delay,
    ring_bandwidth,
    ring_hop_latency,
)


class NcclWorld:
    """NCCL job state: cluster + protocol; visibility policies do not apply.

    Prices allreduce (ring or double-binary tree), allgather, bcast and
    barrier with the NCCL cost envelope.
    """

    backend_name = "nccl"
    error = NcclError

    def __init__(
        self,
        cluster: Cluster,
        num_ranks: int,
        protocol: NcclProtocol = DEFAULT_PROTOCOL,
        *,
        faults=None,
    ):
        if num_ranks < 1:
            raise NcclError(f"num_ranks must be >= 1, got {num_ranks}")
        if num_ranks > cluster.num_gpus:
            raise NcclError(
                f"{num_ranks} ranks > {cluster.num_gpus} GPUs in cluster"
            )
        self.cluster = cluster
        self.protocol = protocol
        self.num_ranks = num_ranks
        self.faults = faults
        # (ranks, protocol) -> (ring bandwidth, hop latency), see _ring
        self._rings: dict[tuple, tuple[float, float]] = {}

    @property
    def size(self) -> int:
        return self.num_ranks

    def communicator(self, *, table=None) -> Communicator:
        return Communicator(self, range(self.num_ranks), table=table)

    # -- timing models ----------------------------------------------------------
    def _node_count(self, comm) -> int:
        return len(self.cluster.node_groups(comm.ranks))

    def _link_fault(self, kind: LinkKind, now: float) -> tuple[float, float]:
        faults = self.faults
        if faults is None:
            return 1.0, 0.0
        return faults.link_state(kind, now)

    def _ring(self, comm) -> tuple[float, float]:
        """``(ring_bandwidth, ring_hop_latency)`` over ``comm``'s ranks at
        its accumulated comm time, on one channel.

        Without a live link fault neither reads the clock, so both are
        memoized per ranks and protocol.
        """
        faults = self.faults
        now = comm.total_comm_time

        def ring() -> tuple[float, float]:
            return (
                ring_bandwidth(
                    self.cluster, comm.ranks, self.protocol,
                    faults=faults, now=now,
                ),
                ring_hop_latency(
                    self.cluster, comm.ranks, self.protocol,
                    faults=faults, now=now,
                ),
            )

        if faults is not None and faults.degrades_links:
            return ring()
        key = (tuple(comm.ranks), self.protocol)
        cached = self._rings.get(key)
        if cached is None:
            cached = self._rings[key] = ring()
        return cached

    def _message_delay(self, comm, nbytes: int) -> float:
        """Injected message-fault penalty over the ring's inter-node hops;
        a drop retransmits one chunk at the unfaulted IB bandwidth."""
        faults = self.faults
        if faults is None or len(comm.ranks) <= 1 or nbytes == 0:
            return 0.0
        cluster = self.cluster
        proto = self.protocol
        ring = build_ring(cluster, comm.ranks)
        p = len(ring)
        hops = []
        for i, rank in enumerate(ring):
            nxt = ring[(i + 1) % p]
            if cluster.gpu_ref(rank).node != cluster.gpu_ref(nxt).node:
                hops.append((rank, nxt))
        ib_bw = cluster.spec.ib.bandwidth * proto.ib_efficiency
        return hop_fault_delay(
            faults,
            hops,
            comm.total_comm_time,
            retransmit_s=proto.inter_step_latency_s + proto.chunk_bytes / ib_bw,
            hop_label=lambda src, dst: f"ring hop {src}->{dst} ({nbytes}B)",
            detail=f"{nbytes}B severed ring hop",
        )

    def _ring_allreduce_time(self, comm, nbytes: int) -> float:
        p = len(comm.ranks)
        proto = self.protocol
        if p <= 1 or nbytes == 0:
            return 0.0
        now = comm.total_comm_time
        if nbytes <= proto.ll_threshold:
            _, extra = self._link_fault(
                LinkKind.IB if self._node_count(comm) > 1 else LinkKind.NVLINK_P2P,
                now,
            )
            return (
                proto.ll_op_latency_s
                + math.log2(max(p, 2)) * (proto.intra_step_latency_s + extra)
                + self._message_delay(comm, nbytes)
            )
        bw, hop = self._ring(comm)
        steps = 2 * (p - 1)
        # chunk pipelining: latency per pipeline stage + bandwidth term
        fill = min(nbytes / p, proto.chunk_bytes) / bw if bw != float("inf") else 0.0
        return (
            steps * (hop + fill)
            + 2 * nbytes * (p - 1) / (p * bw)
            + self._message_delay(comm, nbytes)
        )

    def _tree_allreduce_time(self, comm, nbytes: int) -> float:
        """Double-binary-tree estimate: depth in nodes, full bandwidth."""
        p = len(comm.ranks)
        proto = self.protocol
        nodes = self._node_count(comm)
        if p <= 1 or nbytes == 0:
            return 0.0
        cluster = self.cluster
        now = comm.total_comm_time
        ib_factor, ib_extra = self._link_fault(LinkKind.IB, now)
        nv_factor, nv_extra = self._link_fault(LinkKind.NVLINK_P2P, now)
        ib_bw = cluster.spec.ib.bandwidth * proto.ib_efficiency * max(ib_factor, 1e-12)
        nv_bw = (
            cluster.spec.node.nvlink_gpu_gpu.bandwidth
            * proto.nvlink_efficiency
            * max(nv_factor, 1e-12)
        )
        depth = math.ceil(math.log2(max(nodes, 2))) + math.ceil(
            math.log2(max(p // max(nodes, 1), 2))
        )
        step_extra = ib_extra if nodes > 1 else nv_extra
        latency = 2 * depth * (proto.inter_step_latency_s + step_extra)
        # reduce + broadcast sweep: 2n over the bottleneck (IB when multi-node)
        bw = ib_bw if nodes > 1 else nv_bw
        return (
            latency
            + 2 * nbytes / bw
            + 2 * depth * (proto.chunk_bytes / bw)
            + self._message_delay(comm, nbytes)
        )

    def _allreduce_time(
        self, comm, nbytes: int, algorithm: str | None = None
    ) -> tuple[float, str]:
        """Auto-select ring vs tree, or honor an explicit override (the
        seam the ``repro.comm`` selection tables route through)."""
        if algorithm in ("ring", "nccl-ring"):
            return self._ring_allreduce_time(comm, nbytes), "nccl-ring"
        if algorithm in ("tree", "nccl-tree"):
            return self._tree_allreduce_time(comm, nbytes), "nccl-tree"
        if algorithm is not None:
            raise NcclError(
                f"unknown NCCL allreduce algorithm {algorithm!r}; "
                f"use 'nccl-ring' or 'nccl-tree'"
            )
        ring = self._ring_allreduce_time(comm, nbytes)
        if self._node_count(comm) >= self.protocol.tree_node_threshold:
            tree = self._tree_allreduce_time(comm, nbytes)
            if tree < ring:
                return tree, "nccl-tree"
        return ring, "nccl-ring"

    def _allgather_time(self, comm, nbytes_per_rank: int) -> float:
        """Ring allgather: each rank's block circulates p-1 hops.

        Same envelope family as the ring allreduce, with a single
        bandwidth sweep (``n(p-1)/B`` per rank) and no reduction term —
        sparse gradient payloads use this path.
        """
        p = len(comm.ranks)
        proto = self.protocol
        if p <= 1 or nbytes_per_rank == 0:
            return 0.0
        bw, hop = self._ring(comm)
        steps = p - 1
        fill = (
            min(nbytes_per_rank, proto.chunk_bytes) / bw
            if bw != float("inf")
            else 0.0
        )
        return (
            steps * (hop + fill)
            + nbytes_per_rank * (p - 1) / bw
            + self._message_delay(comm, nbytes_per_rank)
        )

    def _bcast_time(self, comm, nbytes: int) -> float:
        p = len(comm.ranks)
        proto = self.protocol
        if p <= 1 or nbytes == 0:
            return 0.0
        bw, hop = self._ring(comm)
        # pipelined ring broadcast: n/B + (p-1) pipeline stages
        return (
            nbytes / bw
            + (p - 1) * (hop + proto.chunk_bytes / bw)
            + self._message_delay(comm, nbytes)
        )

    # -- pricing ----------------------------------------------------------------
    def price_allreduce(self, comm, buffers, algorithm):
        time, algo = self._allreduce_time(comm, buffers.nbytes, algorithm)
        return _timing("allreduce", algo, comm, buffers.nbytes, time)

    def price_allgather(self, comm, buffers):
        time = self._allgather_time(comm, buffers.nbytes)
        return _timing("allgather", "nccl-ring", comm, buffers.nbytes, time)

    def price_bcast(self, comm, buffers, root_index):
        time = self._bcast_time(comm, buffers.nbytes)
        return _timing("bcast", "nccl-ring", comm, buffers.nbytes, time)

    def price_barrier(self, comm):
        p = len(comm.ranks)
        time = (
            math.ceil(math.log2(max(p, 2))) * self.protocol.inter_step_latency_s
            if p > 1
            else 0.0
        )
        return _timing("barrier", "nccl", comm, 0, time)


def _timing(op: str, algorithm: str, comm, nbytes: int, time: float):
    return CollectiveTiming(
        op, algorithm, nbytes, comm.size, time, ExecutionMode.ANALYTIC
    )
