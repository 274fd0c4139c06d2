"""NCCL-like collective backend.

The comparison backend of the paper's Figs. 10–13.  NCCL manages its own
CUDA IPC handles and peer discovery, so — unlike the default MPI path — it
is *not* crippled by per-rank ``CUDA_VISIBLE_DEVICES`` (each process only
needs its own device visible; the paper's §III-C notes NCCL performs IPC
transfers regardless once CUDA >= 10.1).  That asymmetry is exactly why
default NCCL outscales default MVAPICH2-GDR in Fig. 10.
"""

from repro.nccl.protocol import NcclProtocol
from repro.nccl.rings import build_ring, ring_bandwidth
from repro.nccl.communicator import NcclWorld

__all__ = [
    "NcclProtocol",
    "build_ring",
    "ring_bandwidth",
    "NcclWorld",
]
