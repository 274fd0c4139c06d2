"""NCCL ring construction over the simulated topology.

NCCL searches the PCI/NVLink graph for rings; on Lassen-like nodes the
natural ring follows local ordinals within each node and hops to the next
node once (GPU ids are node-major, so the identity order is already the
topology-aware ring).
"""

from __future__ import annotations

from repro.errors import MpiTimeoutError, NcclError
from repro.faults.plan import RetryPolicy
from repro.hardware.cluster import Cluster
from repro.hardware.links import LinkKind


def build_ring(cluster: Cluster, ranks: list[int]) -> list[int]:
    """Return the rank order of the (single logical) ring.

    Ranks must be node-contiguous (NCCL requires communicator-wide device
    discovery; our launcher allocates ranks node-major).
    """
    if not ranks:
        raise NcclError("cannot build a ring over zero ranks")
    return sorted(ranks)


def _hop_fault(faults, inter_node: bool, now: float) -> tuple[float, float]:
    """(bandwidth factor, extra latency) for one ring hop's link class.

    The NCCL cost envelope has no per-message transport, so injected link
    faults degrade the hop's class — IB for inter-node hops, the NVLink
    peer class within a node (the envelope's intra-hop approximation).
    """
    if faults is None:
        return 1.0, 0.0
    kind = LinkKind.IB if inter_node else LinkKind.NVLINK_P2P
    return faults.link_state(kind, now)


def ring_bandwidth(
    cluster: Cluster,
    ranks: list[int],
    protocol,
    *,
    faults=None,
    now: float = 0.0,
) -> float:
    """Steady-state per-rank ring bandwidth (bytes/s) of one channel.

    The ring's throughput is bounded by its slowest hop: NVLink hops within
    a node, one IB hop in and out of each node when the ring spans nodes.

    ``faults``/``now`` thread the :class:`~repro.faults.FaultInjector`
    into the envelope: active link faults scale the affected hop class'
    bandwidth before the slowest-hop reduction.
    """
    ring = build_ring(cluster, ranks)
    p = len(ring)
    if p == 1:
        return float("inf")
    slowest = float("inf")
    for i, rank in enumerate(ring):
        nxt = ring[(i + 1) % p]
        a, b = cluster.gpu_ref(rank), cluster.gpu_ref(nxt)
        raw = cluster.path_bandwidth(a, b)
        inter = a.node != b.node
        if inter:
            hop = raw * protocol.ib_efficiency
        else:
            hop = raw * protocol.nvlink_efficiency
        factor, _ = _hop_fault(faults, inter, now)
        if factor > 0:
            hop *= factor
        slowest = min(slowest, hop)
    return slowest


def ring_hop_latency(
    cluster: Cluster, ranks: list[int], protocol, *, faults=None, now: float = 0.0
) -> float:
    """Worst per-step latency across ring hops (fault-degraded when active)."""
    ring = build_ring(cluster, ranks)
    p = len(ring)
    if p == 1:
        return 0.0
    worst = 0.0
    for i, rank in enumerate(ring):
        nxt = ring[(i + 1) % p]
        a, b = cluster.gpu_ref(rank), cluster.gpu_ref(nxt)
        inter = a.node != b.node
        lat = (
            protocol.inter_step_latency_s
            if inter
            else protocol.intra_step_latency_s
        )
        _, extra = _hop_fault(faults, inter, now)
        worst = max(worst, lat + extra)
    return worst


def hop_fault_delay(
    faults, hops, now: float, *, retransmit_s: float, hop_label, detail: str
) -> float:
    """Injected message-fault penalty over an envelope's ``(src, dst)`` hops.

    Mirrors the MPI transport's per-message verdicts at envelope
    granularity: each hop is consulted once per collective, in order;
    delays accumulate, and a drop costs ``retransmit_s`` (one deterministic
    retransmission of a pipeline chunk).  A *severed* hop (partition /
    switch outage) can never succeed: the sender waits out the whole retry
    ladder, then the collective raises
    :class:`~repro.errors.MpiTimeoutError` naming ``hop_label(src, dst)``
    — surfaced, not a hang.
    """
    delay = 0.0
    for src, dst in hops:
        verdict = faults.message_verdict(src, dst, now)
        delay += verdict.delay_s
        if verdict.severed:
            retry = RetryPolicy()
            faults.record("msg-timeout", now, src=src, dst=dst, detail=detail)
            raise MpiTimeoutError(
                f"{hop_label(src, dst)} path severed "
                f"(partition/switch outage); retry budget "
                f"({retry.max_retries}) exhausted after "
                f"{retry.ladder_time():.6f}s"
            )
        if verdict.drop:
            delay += retransmit_s
    return delay
