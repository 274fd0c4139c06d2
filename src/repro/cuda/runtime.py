"""Simulated CUDA runtime and per-process contexts.

The paper's §III-C rests on two behaviours.  The first lives here; the
second has its version gate here and is applied by MPI:

* **Overhead kernels (Fig. 6a).**  Creating a context on a device consumes
  ``GpuSpec.context_overhead_bytes`` of HBM.  Undisciplined Python libraries
  "aggressively allocate GPU memory on all available devices" — modelled by
  :meth:`CudaContext.touch_all_visible`, which instantiates a context on
  every device in the process's mask.  With 4 processes per node each seeing
  4 GPUs, every GPU carries 4 contexts instead of 1.

* **The CUDA >= 10.1 IPC rule (Fig. 6b / §III-C).**  Before CUDA 10.1, a
  process could only open an IPC handle for a device *in its own visible
  set*, so ``CUDA_VISIBLE_DEVICES=local_rank`` forced MPI to stage through
  host memory.  :attr:`CudaVersion.supports_cross_visibility_ipc` names the
  version gate; ``repro.mpi.process._resolve_mpi_mask`` applies it to
  ``MV2_VISIBLE_DEVICES`` and ``repro.mpi.transports.TransportModel.can_ipc``
  gives each rank pair's verdict.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Optional

from repro.errors import CudaError, CudaInvalidDeviceError, CudaOutOfMemoryError
from repro.cuda.env import VisibilityMask
from repro.cuda.kernels import KernelCostModel
from repro.cuda.memory import DeviceAllocation
from repro.hardware.cluster import Cluster
from repro.hardware.memory import PoolExhaustedError
from repro.hardware.node import DeviceRef

#: one-time cost of cuIpcOpenMemHandle; MPI's transport charges it once
#: per rank pair, on the pair's first IPC transfer
IPC_OPEN_OVERHEAD_S = 35e-6


@dataclass(frozen=True, order=True)
class CudaVersion:
    """CUDA toolkit/driver version, e.g. ``CudaVersion(10, 2)``."""

    major: int
    minor: int = 0

    @classmethod
    def parse(cls, text: str) -> "CudaVersion":
        parts = text.strip().split(".")
        try:
            major = int(parts[0])
            minor = int(parts[1]) if len(parts) > 1 else 0
        except (ValueError, IndexError) as exc:
            raise CudaError(f"bad CUDA version string {text!r}") from exc
        return cls(major, minor)

    @property
    def supports_cross_visibility_ipc(self) -> bool:
        """CUDA >= 10.1: IPC works even if the peer device is masked out."""
        return (self.major, self.minor) >= (10, 1)

    def __str__(self) -> str:
        return f"{self.major}.{self.minor}"


#: the paper's software stack uses CUDA 10.2
DEFAULT_CUDA_VERSION = CudaVersion(10, 2)


def check_mask(mask: VisibilityMask, device_count: int) -> None:
    """Raise unless every device ``mask`` names exists on a node of
    ``device_count`` GPUs."""
    for physical in mask.physical:
        if physical >= device_count:
            raise CudaInvalidDeviceError(
                f"mask {mask} references physical device {physical}, node has "
                f"{device_count}"
            )


class CudaRuntime:
    """Node-level runtime: owns a node's physical devices."""

    def __init__(self, cluster: Cluster, node_id: int):
        self.cluster = cluster
        self.node = cluster.nodes[node_id]
        self.node_id = node_id
        self.kernel_model = KernelCostModel(cluster.spec.node.gpu)

    @property
    def physical_device_count(self) -> int:
        return len(self.node.gpu_refs)

    def physical_ref(self, physical: int) -> DeviceRef:
        if not 0 <= physical < self.physical_device_count:
            raise CudaInvalidDeviceError(
                f"physical device {physical} out of range on node {self.node_id}"
            )
        return self.node.gpu_refs[physical]

    def create_context(self, pid: int, mask: VisibilityMask) -> "CudaContext":
        check_mask(mask, self.physical_device_count)
        return CudaContext(self, pid, mask)

    def __repr__(self) -> str:
        return f"<CudaRuntime node={self.node_id}>"


class CudaContext:
    """Per-process view of a node's GPUs under a visibility mask."""

    _pids = itertools.count(1)

    def __init__(self, runtime: CudaRuntime, pid: int, mask: VisibilityMask):
        self.runtime = runtime
        self.pid = pid
        self.mask = mask
        self._current_logical: Optional[int] = 0 if mask.count else None
        # physical ordinal -> HBM block for this process's context
        self._context_blocks: dict[int, object] = {}
        self._live: set[DeviceAllocation] = set()

    # -- device selection --------------------------------------------------
    def set_device(self, logical: int) -> None:
        self.mask.to_physical(logical)  # validates
        self._current_logical = logical

    @property
    def current_physical(self) -> int:
        if self._current_logical is None:
            raise CudaInvalidDeviceError(
                f"process {self.pid} has no visible devices (mask={self.mask})"
            )
        return self.mask.to_physical(self._current_logical)

    # -- context creation (overhead kernels) --------------------------------
    def ensure_context(self, physical: int) -> None:
        """Create the CUDA context on a device, consuming HBM (Fig. 6a)."""
        if physical in self._context_blocks:
            return
        ref = self.runtime.physical_ref(physical)
        pool = self.runtime.node.gpu_memory[ref]
        try:
            block = pool.alloc(
                self.runtime.cluster.spec.node.gpu.context_overhead_bytes,
                tag=f"cuda-context:pid{self.pid}",
            )
        except PoolExhaustedError as exc:
            raise CudaOutOfMemoryError(str(exc)) from exc
        self._context_blocks[physical] = block

    def touch_all_visible(self) -> int:
        """Aggressive-library behaviour: spawn a context on *every* visible GPU.

        Returns the number of overhead contexts created.  This is what
        PyTorch/Horovod do absent ``CUDA_VISIBLE_DEVICES`` discipline and is
        the memory-pressure mechanism of the paper's Fig. 6a.
        """
        created = 0
        for physical in self.mask.physical:
            if physical not in self._context_blocks:
                self.ensure_context(physical)
                created += 1
        return created

    # -- memory --------------------------------------------------------------
    def malloc(self, nbytes: int, tag: str = "tensor") -> DeviceAllocation:
        physical = self.current_physical
        self.ensure_context(physical)
        ref = self.runtime.physical_ref(physical)
        pool = self.runtime.node.gpu_memory[ref]
        try:
            block = pool.alloc(nbytes, tag=f"{tag}:pid{self.pid}")
        except PoolExhaustedError as exc:
            raise CudaOutOfMemoryError(str(exc)) from exc
        alloc = DeviceAllocation(device=ref, nbytes=nbytes, tag=tag, block=block)
        self._live.add(alloc)
        return alloc

    def free(self, alloc: DeviceAllocation) -> None:
        if alloc.freed or alloc not in self._live:
            raise CudaError(f"invalid free of {alloc!r} by pid {self.pid}")
        pool = self.runtime.node.gpu_memory[alloc.device]
        pool.free_block(alloc.block)
        alloc.freed = True
        self._live.discard(alloc)

    # -- copies ------------------------------------------------------------------
    def memcpy_time(self, src: DeviceRef, dst: DeviceRef, nbytes: int) -> float:
        """Uncontended duration of a cudaMemcpy between two device refs."""
        return self.runtime.cluster.path_cost(src, dst, nbytes)

    # -- teardown -------------------------------------------------------------
    def destroy(self) -> None:
        """Release all live allocations and contexts (process exit)."""
        for alloc in list(self._live):
            self.free(alloc)
        for physical, block in self._context_blocks.items():
            ref = self.runtime.physical_ref(physical)
            self.runtime.node.gpu_memory[ref].free_block(block)
        self._context_blocks.clear()

    def __repr__(self) -> str:
        return f"<CudaContext pid={self.pid} mask={self.mask} node={self.runtime.node_id}>"
