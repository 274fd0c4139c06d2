"""The hierarchical two-level collective backend.

Composes the split Laanait et al. (arXiv:1909.11150) exploit on NVLink-dense
nodes: an intra-node NVLink reduce-scatter, an inter-node IB allreduce over
the per-GPU shards, and an intra-node broadcast (allgather of the reduced
shards).  Each node's g GPUs therefore drive the network with 1/g-sized
shards concurrently through the shared HCA, so the inter-node phase moves
``2n(nodes-1)/nodes`` bytes at IB rate while the full-message hops stay on
NVLink — which is why this backend beats a flat ring on multi-node worlds
once messages are bandwidth-bound (>= ~1 MB).

Analytic envelope only (like the NCCL backend): per-phase α-β terms using
the NCCL protocol constants for link efficiencies and step latencies.
:class:`HierarchicalWorld` only prices collectives; the
:class:`~repro.mpi.comm.Communicator` it builds does the functional
arithmetic, and the :class:`~repro.faults.FaultInjector` degrades the
NVLink/IB phases exactly as it does the other backends' cost envelopes.
"""

from __future__ import annotations

import math

from repro.errors import CommError
from repro.hardware.cluster import Cluster
from repro.hardware.links import LinkKind
from repro.mpi.collectives.base import CollectiveTiming, ExecutionMode
from repro.mpi.comm import Communicator
from repro.nccl.protocol import DEFAULT_PROTOCOL, NcclProtocol
from repro.nccl.rings import hop_fault_delay
from repro.utils.folds import fold_sum

#: the one algorithm this backend implements
ALGORITHM = "hier-2level"


class HierarchicalWorld:
    """Two-level backend job state: cluster + protocol envelope + faults.

    Prices allreduce, allgather, reduce_scatter, bcast and barrier as
    intra-node NVLink phases around an inter-node IB leader ring.
    """

    backend_name = "hierarchical"
    error = CommError

    def __init__(
        self,
        cluster: Cluster,
        num_ranks: int,
        protocol: NcclProtocol = DEFAULT_PROTOCOL,
        *,
        faults=None,
    ):
        if num_ranks < 1:
            raise CommError(f"num_ranks must be >= 1, got {num_ranks}")
        if num_ranks > cluster.num_gpus:
            raise CommError(
                f"{num_ranks} ranks > {cluster.num_gpus} GPUs in cluster"
            )
        self.cluster = cluster
        self.protocol = protocol
        self.num_ranks = num_ranks
        self.faults = faults

    @property
    def size(self) -> int:
        return self.num_ranks

    def communicator(self, *, table=None) -> Communicator:
        return Communicator(self, range(self.num_ranks), table=table)

    # -- topology -----------------------------------------------------------
    def _node_groups(self, comm) -> list[list[int]]:
        gpn = self.cluster.gpus_per_node
        by_node: dict[int, list[int]] = {}
        for r in sorted(comm.ranks):
            by_node.setdefault(r // gpn, []).append(r)
        return [g for _, g in sorted(by_node.items())]

    # -- link environment (fault-aware) -------------------------------------
    def _link_env(self, now: float) -> tuple[float, float, float, float]:
        """(nv_bw, nv_alpha, ib_bw, ib_alpha) at simulation time ``now``."""
        cluster = self.cluster
        proto = self.protocol
        nv_bw = cluster.spec.node.nvlink_gpu_gpu.bandwidth * proto.nvlink_efficiency
        ib_bw = cluster.spec.ib.bandwidth * proto.ib_efficiency
        nv_alpha = proto.intra_step_latency_s
        ib_alpha = proto.inter_step_latency_s
        faults = self.faults
        if faults is not None:
            nv_factor, nv_extra = faults.link_state(LinkKind.NVLINK_P2P, now)
            ib_factor, ib_extra = faults.link_state(LinkKind.IB, now)
            nv_bw = nv_bw * nv_factor if nv_factor > 0 else float("inf")
            ib_bw = ib_bw * ib_factor if ib_factor > 0 else float("inf")
            if nv_factor <= 0 or ib_factor <= 0:
                raise CommError("link fault zeroed bandwidth; cannot make progress")
            nv_alpha += nv_extra
            ib_alpha += ib_extra
        return nv_bw, nv_alpha, ib_bw, ib_alpha

    def _message_delay(self, groups: list[list[int]], now: float, ib_bw: float, ib_alpha: float) -> float:
        """Injected drop/delay penalty over the inter-node leader ring; a
        drop retransmits one chunk at the faulted IB rate."""
        faults = self.faults
        if faults is None or len(groups) <= 1:
            return 0.0
        leaders = [g[0] for g in groups]
        hops = [
            (src, leaders[(i + 1) % len(leaders)]) for i, src in enumerate(leaders)
        ]
        return hop_fault_delay(
            faults,
            hops,
            now,
            retransmit_s=ib_alpha + self.protocol.chunk_bytes / ib_bw,
            hop_label=lambda src, dst: f"leader-ring hop {src}->{dst}",
            detail="severed leader-ring hop",
        )

    # -- timing model -------------------------------------------------------
    def _allreduce_segments(self, comm, nbytes: int) -> dict[str, float]:
        groups = self._node_groups(comm)
        g = max(len(grp) for grp in groups)
        nodes = len(groups)
        nv_bw, nv_alpha, ib_bw, ib_alpha = self._link_env(comm.total_comm_time)
        segments: dict[str, float] = {}
        if g > 1:
            intra = (g - 1) * nv_alpha + (g - 1) / g * nbytes / nv_bw
            segments["intra_reduce_scatter"] = intra
        if nodes > 1:
            inter = (
                2 * (nodes - 1) * ib_alpha
                + 2 * nbytes * (nodes - 1) / (nodes * ib_bw)
            )
            inter += self._message_delay(groups, comm.total_comm_time, ib_bw, ib_alpha)
            segments["inter_allreduce"] = inter
        if g > 1:
            segments["intra_broadcast"] = (
                (g - 1) * nv_alpha + (g - 1) / g * nbytes / nv_bw
            )
        return segments

    def _allgather_segments(self, comm, nbytes_per_rank: int) -> dict[str, float]:
        """Two-level allgather: intra gather to the leader, leader-ring
        exchange over IB, then an intra broadcast of the remote portion."""
        groups = self._node_groups(comm)
        g = max(len(grp) for grp in groups)
        nodes = len(groups)
        nv_bw, nv_alpha, ib_bw, ib_alpha = self._link_env(comm.total_comm_time)
        segments: dict[str, float] = {}
        if g > 1:
            segments["intra_gather"] = (
                (g - 1) * nv_alpha + (g - 1) * nbytes_per_rank / nv_bw
            )
        if nodes > 1:
            inter = (
                (nodes - 1) * ib_alpha
                + (nodes - 1) * g * nbytes_per_rank / ib_bw
            )
            inter += self._message_delay(groups, comm.total_comm_time, ib_bw, ib_alpha)
            segments["inter_allgather"] = inter
            remote = (nodes - 1) * g * nbytes_per_rank
            if g > 1:
                segments["intra_broadcast"] = (
                    math.ceil(math.log2(g)) * nv_alpha + remote / nv_bw
                )
        return segments

    def _reduce_scatter_segments(self, comm, nbytes_per_rank: int) -> dict[str, float]:
        """Two-level reduce-scatter: the time-reverse of the allgather.

        Combine the remote portions node-locally, exchange reduced partials
        over the leader ring, then scatter each rank's shard off the leader
        — the same bytes as :meth:`_allgather_segments` traverse the same
        links in the opposite direction, so the envelope is symmetric (the
        standard allgather/reduce-scatter duality).
        """
        groups = self._node_groups(comm)
        g = max(len(grp) for grp in groups)
        nodes = len(groups)
        nv_bw, nv_alpha, ib_bw, ib_alpha = self._link_env(comm.total_comm_time)
        segments: dict[str, float] = {}
        if nodes > 1:
            remote = (nodes - 1) * g * nbytes_per_rank
            if g > 1:
                segments["intra_reduce"] = (
                    math.ceil(math.log2(g)) * nv_alpha + remote / nv_bw
                )
            inter = (
                (nodes - 1) * ib_alpha
                + (nodes - 1) * g * nbytes_per_rank / ib_bw
            )
            inter += self._message_delay(groups, comm.total_comm_time, ib_bw, ib_alpha)
            segments["inter_reduce_scatter"] = inter
        if g > 1:
            segments["intra_scatter"] = (
                (g - 1) * nv_alpha + (g - 1) * nbytes_per_rank / nv_bw
            )
        return segments

    def _bcast_segments(self, comm, nbytes: int) -> dict[str, float]:
        groups = self._node_groups(comm)
        g = max(len(grp) for grp in groups)
        nodes = len(groups)
        nv_bw, nv_alpha, ib_bw, ib_alpha = self._link_env(comm.total_comm_time)
        segments: dict[str, float] = {}
        if nodes > 1:
            # pipelined chain to the other node leaders over IB
            inter = (nodes - 1) * ib_alpha + nbytes / ib_bw
            inter += self._message_delay(groups, comm.total_comm_time, ib_bw, ib_alpha)
            segments["inter_broadcast"] = inter
        if g > 1:
            segments["intra_broadcast"] = (
                math.ceil(math.log2(g)) * nv_alpha + nbytes / nv_bw
            )
        return segments

    # -- pricing ------------------------------------------------------------
    def _timing(
        self, op: str, comm, nbytes: int, segments_of
    ) -> CollectiveTiming:
        segments = (
            segments_of(comm, nbytes) if comm.size > 1 and nbytes > 0 else {}
        )
        return CollectiveTiming(
            op,
            ALGORITHM,
            nbytes,
            comm.size,
            fold_sum(segments.values()),
            ExecutionMode.ANALYTIC,
            segments,
        )

    def price_allreduce(self, comm, buffers, nbytes, algorithm):
        if algorithm not in (None, ALGORITHM):
            raise CommError(
                f"hierarchical backend implements only {ALGORITHM!r}, "
                f"got {algorithm!r}"
            )
        return self._timing("allreduce", comm, nbytes, self._allreduce_segments)

    def price_allgather(self, comm, buffers, nbytes):
        return self._timing("allgather", comm, nbytes, self._allgather_segments)

    def price_reduce_scatter(self, comm, buffers, nbytes):
        return self._timing(
            "reduce_scatter", comm, nbytes, self._reduce_scatter_segments
        )

    def price_bcast(self, comm, buffers, nbytes, root_index):
        return self._timing("bcast", comm, nbytes, self._bcast_segments)

    def price_barrier(self, comm):
        p = comm.size
        _, _, _, ib_alpha = self._link_env(comm.total_comm_time)
        time = math.ceil(math.log2(max(p, 2))) * ib_alpha if p > 1 else 0.0
        return CollectiveTiming(
            "barrier", "hier", 0, p, time, ExecutionMode.ANALYTIC
        )
