"""SPMD collective implementations over the point-to-point fabric.

The production timing engines (:mod:`repro.mpi.collectives.allreduce`)
schedule BSP steps directly.  This module implements ring allreduce the
way an MPI library actually executes it — every rank runs its own process
issuing ``sendrecv`` calls — and serves two purposes:

* **validation**: the BSP engine's timing must agree with the true
  message-passing execution (tests cross-check them);
* **fidelity**: per-rank skew propagates naturally here (a late rank
  delays only the neighbours that wait on it, not the whole step).

Functional reduction is performed for real when ranks provide arrays.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from repro.errors import MpiError
from repro.mpi.collectives.base import chunk_sizes
from repro.mpi.datatypes import ReduceOp
from repro.mpi.p2p import P2PFabric


@dataclass
class SpmdResult:
    """Per-rank completion times of one SPMD collective."""

    finish_times: dict[int, float] = field(default_factory=dict)

    @property
    def makespan(self) -> float:
        return max(self.finish_times.values()) if self.finish_times else 0.0


def ring_allreduce_spmd(
    fabric: P2PFabric,
    ranks: list[int],
    nbytes: int,
    *,
    data: Optional[dict[int, np.ndarray]] = None,
    op: ReduceOp = ReduceOp.SUM,
    start_times: Optional[dict[int, float]] = None,
) -> SpmdResult:
    """Run a chunked ring allreduce as real per-rank processes.

    ``data`` maps rank -> local array (all same length); on completion every
    array holds the reduction.  ``start_times`` lets callers skew ranks
    (e.g. straggler studies).  Must be called on a fresh/quiet environment;
    this function drives ``env.run()``.
    """
    p = len(ranks)
    env = fabric.env
    result = SpmdResult()
    if p == 1:
        result.finish_times[ranks[0]] = env.now
        return result
    if data is not None:
        lengths = {arr.size for arr in data.values()}
        if len(lengths) != 1:
            raise MpiError("spmd allreduce arrays must share a length")
    elements = next(iter(data.values())).size if data else 0
    chunks_bytes = chunk_sizes(nbytes, p)
    chunk_elems = chunk_sizes(elements, p) if data else [0] * p
    elem_offsets = np.cumsum([0] + chunk_elems)

    # working copies so the reduction is done chunk-wise like real MPI
    work: dict[int, np.ndarray] = (
        {r: np.array(data[r], copy=True) for r in ranks} if data else {}
    )

    def chunk_view(rank: int, index: int) -> np.ndarray:
        return work[rank][elem_offsets[index]: elem_offsets[index + 1]]

    def rank_proc(i: int, rank: int):
        left = ranks[(i - 1) % p]
        right = ranks[(i + 1) % p]
        if start_times and start_times.get(rank, 0.0) > 0:
            yield env.timeout(start_times[rank])
        # phase 1: reduce-scatter
        for step in range(p - 1):
            send_index = (i - step) % p
            recv_index = (i - step - 1) % p
            send_kwargs = {"nbytes": chunks_bytes[send_index], "tag": step}
            recv_kwargs = {"nbytes": chunks_bytes[recv_index], "tag": step}
            if work:
                send_kwargs["data"] = chunk_view(rank, send_index)
                incoming = np.empty(chunk_elems[recv_index], dtype=np.float32)
                recv_kwargs["out"] = incoming
            yield from fabric.sendrecv(
                rank, dst=right, src=left,
                send_kwargs=send_kwargs, recv_kwargs=recv_kwargs,
            )
            if work:
                view = chunk_view(rank, recv_index)
                op.ufunc(view, incoming, out=view)
        # phase 2: allgather
        for step in range(p - 1):
            send_index = (i - step + 1) % p
            recv_index = (i - step) % p
            send_kwargs = {"nbytes": chunks_bytes[send_index], "tag": p + step}
            recv_kwargs = {"nbytes": chunks_bytes[recv_index], "tag": p + step}
            if work:
                send_kwargs["data"] = chunk_view(rank, send_index)
                incoming = np.empty(chunk_elems[recv_index], dtype=np.float32)
                recv_kwargs["out"] = incoming
            yield from fabric.sendrecv(
                rank, dst=right, src=left,
                send_kwargs=send_kwargs, recv_kwargs=recv_kwargs,
            )
            if work:
                chunk_view(rank, recv_index)[...] = incoming
        result.finish_times[rank] = env.now

    for i, rank in enumerate(ranks):
        env.process(rank_proc(i, rank), name=f"ring-rank{rank}")
    env.run()

    if data is not None:
        for rank in ranks:
            np.copyto(data[rank], work[rank])
    return result


def hierarchical_allreduce_spmd(
    fabric: P2PFabric,
    ranks: list[int],
    nbytes: int,
    *,
    data: Optional[dict[int, np.ndarray]] = None,
    op: ReduceOp = ReduceOp.SUM,
) -> SpmdResult:
    """Two-level allreduce as real per-rank processes.

    Phase 1: binomial reduce onto each node's leader (lowest rank on the
    node); phase 2: ring allreduce among leaders; phase 3: binomial
    broadcast within each node.  This is the production algorithm of
    :func:`repro.mpi.collectives.allreduce.allreduce_timing` executed as
    true message passing, used to validate the BSP scheduler.
    """
    env = fabric.env
    result = SpmdResult()
    p = len(ranks)
    if p == 1:
        result.finish_times[ranks[0]] = env.now
        return result
    groups = fabric.transport.cluster.node_groups(sorted(ranks))
    leaders = [g[0] for g in groups]
    work: dict[int, np.ndarray] = (
        {r: np.array(data[r], copy=True) for r in ranks} if data else {}
    )
    inter_done = env.event(name="inter-phase-done")

    def rank_proc(group: list[int], rank: int):
        position = group.index(rank)
        # phase 1: binomial reduce onto group[0]
        distance = 1
        while distance < len(group):
            if position % (2 * distance) == distance:
                peer = group[position - distance]
                kwargs = {"nbytes": nbytes, "tag": 1000 + distance}
                if work:
                    kwargs["data"] = work[rank]
                yield from fabric.send(rank, peer, **kwargs)
            elif position % (2 * distance) == 0 and position + distance < len(group):
                peer = group[position + distance]
                kwargs = {"nbytes": nbytes, "tag": 1000 + distance}
                incoming = None
                if work:
                    incoming = np.empty_like(work[rank])
                    kwargs["out"] = incoming
                yield from fabric.recv(rank, source=peer, **kwargs)
                if work is not None and incoming is not None:
                    op.ufunc(work[rank], incoming, out=work[rank])
            distance *= 2
        # phase 2: leaders ring-allreduce among themselves
        if rank == group[0]:
            if len(leaders) > 1:
                yield from _leader_ring(rank)
            if not inter_done.triggered:
                inter_done.succeed()
            else:
                yield env.timeout(0)
        else:
            yield inter_done
        # phase 3: binomial broadcast back down the same tree
        distance = 1
        while distance * 2 < len(group):
            distance *= 2
        while distance >= 1:
            if position % (2 * distance) == 0 and position + distance < len(group):
                peer = group[position + distance]
                kwargs = {"nbytes": nbytes, "tag": 2000 + distance}
                if work:
                    kwargs["data"] = work[rank]
                yield from fabric.send(rank, peer, **kwargs)
            elif position % (2 * distance) == distance:
                peer = group[position - distance]
                kwargs = {"nbytes": nbytes, "tag": 2000 + distance}
                if work:
                    kwargs["out"] = work[rank]
                yield from fabric.recv(rank, source=peer, **kwargs)
            distance //= 2
        result.finish_times[rank] = env.now

    def _leader_ring(rank: int):
        i = leaders.index(rank)
        n_leaders = len(leaders)
        left = leaders[(i - 1) % n_leaders]
        right = leaders[(i + 1) % n_leaders]
        chunks_bytes = chunk_sizes(nbytes, n_leaders)
        elements = work[rank].size if work else 0
        chunk_elems = chunk_sizes(elements, n_leaders)
        offsets = np.cumsum([0] + chunk_elems)

        def view(index: int) -> np.ndarray:
            return work[rank][offsets[index]: offsets[index + 1]]

        for step in range(n_leaders - 1):  # reduce-scatter
            send_index = (i - step) % n_leaders
            recv_index = (i - step - 1) % n_leaders
            send_kwargs = {"nbytes": chunks_bytes[send_index], "tag": 3000 + step}
            recv_kwargs = {"nbytes": chunks_bytes[recv_index], "tag": 3000 + step}
            incoming = None
            if work:
                send_kwargs["data"] = view(send_index)
                incoming = np.empty(chunk_elems[recv_index], dtype=np.float32)
                recv_kwargs["out"] = incoming
            yield from fabric.sendrecv(rank, dst=right, src=left,
                                       send_kwargs=send_kwargs,
                                       recv_kwargs=recv_kwargs)
            if incoming is not None:
                target = view(recv_index)
                op.ufunc(target, incoming, out=target)
        for step in range(n_leaders - 1):  # allgather
            send_index = (i - step + 1) % n_leaders
            recv_index = (i - step) % n_leaders
            send_kwargs = {"nbytes": chunks_bytes[send_index], "tag": 4000 + step}
            recv_kwargs = {"nbytes": chunks_bytes[recv_index], "tag": 4000 + step}
            incoming = None
            if work:
                send_kwargs["data"] = view(send_index)
                incoming = np.empty(chunk_elems[recv_index], dtype=np.float32)
                recv_kwargs["out"] = incoming
            yield from fabric.sendrecv(rank, dst=right, src=left,
                                       send_kwargs=send_kwargs,
                                       recv_kwargs=recv_kwargs)
            if incoming is not None:
                view(recv_index)[...] = incoming

    for group in groups:
        for rank in group:
            env.process(rank_proc(group, rank), name=f"hier-rank{rank}")
    env.run()

    if data is not None:
        for rank in ranks:
            np.copyto(data[rank], work[rank])
    return result
