"""Collective helpers shared by the layers above the communicator."""

from __future__ import annotations


def broadcast_weights(comm, nbytes: int):
    """Charge a weight (re-)broadcast over an existing communicator.

    Used by elastic re-grow: the regrown replica's state is cloned
    functionally, and this prices pushing it over the re-formed ring.
    Returns the backend's CollectiveTiming (zero-op on trivial worlds).
    """
    from repro.mpi.comm import GpuBuffers

    if comm.size <= 1 or nbytes <= 0:
        return None
    return comm.bcast(GpuBuffers.virtual(nbytes, comm.size))
