"""The device-visibility mechanism (paper Figs. 6 and 7).

The conflict: Python DL frameworks aggressively create contexts on every
visible GPU (Fig. 6a, "overhead kernels"), so the recommended fix is
``CUDA_VISIBLE_DEVICES=local_rank`` — but that also blinds the MPI library,
disabling CUDA IPC (Fig. 6b).  The paper's proposal (Fig. 7): a separate
``MV2_VISIBLE_DEVICES`` consulted only by MVAPICH2, legal since CUDA 10.1
no longer requires peer devices to be visible for IPC opens.

This module provides diagnostics over that mechanism; the enforcement
itself lives in :func:`repro.mpi.process.build_world` and
:meth:`repro.mpi.transports.TransportModel.can_ipc`.
"""

from __future__ import annotations

from repro.hardware.cluster import Cluster
from repro.mpi.process import RankContext
from repro.mpi.transports import TransportModel
from repro.utils.tables import TextTable
from repro.utils.units import format_bytes


def visibility_table(ranks: list[RankContext]) -> str:
    """Render the Fig. 7 table: per-rank app vs. MPI device visibility."""
    table = TextTable(
        ["Rank", "GPU", "CUDA_VISIBLE_DEVICES", "MV2-effective devices"],
        title="Device visibility (paper Fig. 7)",
    )
    for r in ranks:
        table.add_row(r.rank, r.physical_device, str(r.app_mask), str(r.mpi_mask))
    return table.render()


def overhead_kernel_report(cluster: Cluster, ranks: list[RankContext]) -> str:
    """Per-GPU context memory: quantifies Fig. 6a's overhead kernels."""
    table = TextTable(
        ["GPU", "Contexts", "Context memory", "Free HBM"],
        title="Overhead-kernel footprint (paper Fig. 6a)",
    )
    node_ids = sorted({r.node_id for r in ranks})
    for node_id in node_ids:
        node = cluster.nodes[node_id]
        for ref in node.gpu_refs:
            pool = node.gpu_memory[ref]
            ctx_bytes = sum(
                size for tag, size in pool.used_by_tag().items()
                if tag.startswith("cuda-context")
            )
            contexts = sum(
                1 for tag in pool.used_by_tag() if tag.startswith("cuda-context")
            )
            table.add_row(
                str(ref), contexts, format_bytes(ctx_bytes), format_bytes(pool.free)
            )
    return table.render()


def ipc_matrix(transport: TransportModel, ranks: list[RankContext]) -> str:
    """Which intra-node rank pairs may use CUDA IPC under this config."""
    table = TextTable(
        ["Pair", "Same node", "IPC available"],
        title="CUDA IPC availability",
    )
    for a in ranks:
        for b in ranks:
            if a.rank >= b.rank:
                continue
            if a.node_id != b.node_id:
                continue
            table.add_row(
                f"{a.rank}<->{b.rank}", "yes", "yes" if transport.can_ipc(a, b) else "no"
            )
    return table.render()
