"""Rank/process model and world construction.

One MPI rank drives one GPU (the paper's launch configuration: 4 ranks per
Lassen node).  Each rank has

* an *application* CUDA context restricted by whatever
  ``CUDA_VISIBLE_DEVICES`` policy is in force, and
* an *MPI-layer* device mask — normally inherited from the application, but
  overridable with the paper's proposed ``MV2_VISIBLE_DEVICES`` when the
  runtime supports cross-visibility IPC (CUDA >= 10.1).

Every node is built from one template, so a world checks the policy's
masks once per local rank and shares each mask among the ranks of that
local rank; the CUDA runtimes and contexts are built per node on first
touch (:class:`WorldCuda`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Protocol

from repro.cuda.env import VisibilityMask
from repro.cuda.runtime import (
    DEFAULT_CUDA_VERSION,
    CudaContext,
    CudaRuntime,
    CudaVersion,
    check_mask,
)
from repro.errors import ConfigError
from repro.hardware.cluster import Cluster
from repro.hardware.node import DeviceRef
from repro.mpi.env import Mv2Config


class DevicePolicy(Protocol):
    """Maps a local rank to its application-level visibility mask."""

    def app_mask(self, local_rank: int, gpus_per_node: int) -> VisibilityMask:
        """Return the CUDA_VISIBLE_DEVICES mask for this local rank."""
        ...  # pragma: no cover - protocol


@dataclass(frozen=True)
class SingletonDevicePolicy:
    """``CUDA_VISIBLE_DEVICES=local_rank`` — the recommended (but
    IPC-breaking) discipline from the paper's §III-C."""

    def app_mask(self, local_rank: int, gpus_per_node: int) -> VisibilityMask:
        return VisibilityMask.single(local_rank)


@dataclass(frozen=True)
class AllDevicesPolicy:
    """No restriction: every process sees every GPU (Fig. 6a behaviour)."""

    def app_mask(self, local_rank: int, gpus_per_node: int) -> VisibilityMask:
        return VisibilityMask.all_devices(gpus_per_node)


@dataclass
class RankContext:
    """Everything the communication layers need to know about one rank.

    ``app_ctx`` and ``runtime`` are read through the world's
    :class:`WorldCuda`, which builds the rank's node state on first read.
    """

    rank: int
    node_id: int
    local_rank: int
    device_ref: DeviceRef
    app_mask: VisibilityMask
    mpi_mask: VisibilityMask
    cuda: "WorldCuda"

    @property
    def app_ctx(self) -> CudaContext:
        return self.cuda.node_state(self.node_id)[1][self.local_rank]

    @property
    def runtime(self) -> CudaRuntime:
        return self.cuda.node_state(self.node_id)[0]

    @property
    def physical_device(self) -> int:
        return self.device_ref.index

    def mpi_sees(self, physical: int) -> bool:
        return self.mpi_mask.sees(physical)

    def __repr__(self) -> str:
        return (
            f"<Rank {self.rank} node={self.node_id} gpu={self.physical_device} "
            f"app_mask={self.app_mask} mpi_mask={self.mpi_mask}>"
        )


@dataclass(frozen=True)
class WorldSpec:
    """Inputs needed to instantiate a set of ranks on a cluster."""

    num_ranks: int
    policy: DevicePolicy
    config: Mv2Config
    cuda_version: CudaVersion = DEFAULT_CUDA_VERSION
    # Model the frameworks' aggressive context creation (Fig. 6a): every
    # process touches all of its visible devices at startup.
    touch_all_visible: bool = True


def _resolve_mpi_mask(
    app_mask: VisibilityMask,
    config: Mv2Config,
    cuda_version: CudaVersion,
    gpus_per_node: int,
) -> VisibilityMask:
    """Apply the MV2_VISIBLE_DEVICES override semantics.

    Before CUDA 10.1 the override is ineffective: even if MPI *sees* more
    devices, ``cuIpcOpenMemHandle`` fails for devices outside
    ``CUDA_VISIBLE_DEVICES``, so MVAPICH2 falls back to the application
    mask.  From 10.1 the override takes effect (the paper's §III-C).
    """
    if config.mv2_visible_devices is None:
        return app_mask
    if not cuda_version.supports_cross_visibility_ipc:
        return app_mask
    text = config.mv2_visible_devices
    if text == "all":
        return VisibilityMask.all_devices(gpus_per_node)
    return VisibilityMask.parse(text)


class WorldCuda:
    """One world's CUDA state on each node it spans, from one template.

    A node's :class:`~repro.cuda.runtime.CudaRuntime`, its ranks' contexts
    (pid ``rank + 1``, current device the rank's own GPU) and their
    Fig. 6a context blocks are built together, in rank order, by
    :meth:`place`: the first time one of the node's ranks reads
    ``app_ctx`` or ``runtime``, or anything reads the node's memory.  The
    cluster holds this object only weakly and it refers to no rank, so
    ranks, world and cluster form no reference cycle.
    """

    __slots__ = ("cluster", "spec", "app_masks", "_nodes", "__weakref__")

    def __init__(
        self, cluster: Cluster, spec: "WorldSpec", app_masks: list[VisibilityMask]
    ):
        self.cluster = cluster
        self.spec = spec
        #: the app mask of each local rank, shared by every node
        self.app_masks = app_masks
        nodes = -(-spec.num_ranks // cluster.gpus_per_node)
        # node id -> (runtime, contexts by local rank), once placed
        self._nodes: list[tuple[CudaRuntime, list[CudaContext]] | None] = [
            None
        ] * nodes

    def node_state(self, node_id: int) -> tuple[CudaRuntime, list[CudaContext]]:
        state = self._nodes[node_id]
        if state is None:
            # reading the node's memory places every world's pending state
            # on it, in registration order, this one's included
            self.cluster.nodes[node_id].gpu_memory
            state = self._nodes[node_id]
        return state

    def place(self, node_id: int) -> None:
        """Build the node's runtime and contexts, allocating their blocks."""
        if node_id >= len(self._nodes) or self._nodes[node_id] is not None:
            return
        spec = self.spec
        first = node_id * self.cluster.gpus_per_node
        runtime = CudaRuntime(self.cluster, node_id)
        contexts = []
        for local_rank, mask in enumerate(self.app_masks[: spec.num_ranks - first]):
            ctx = runtime.create_context(pid=first + local_rank + 1, mask=mask)
            # select the logical ordinal that maps to this rank's physical GPU
            ctx.set_device(mask.physical.index(local_rank))
            if spec.touch_all_visible:
                ctx.touch_all_visible()
            else:
                ctx.ensure_context(local_rank)
            contexts.append(ctx)
        self._nodes[node_id] = (runtime, contexts)


def build_world(cluster: Cluster, spec: WorldSpec) -> list[RankContext]:
    """Create one rank per GPU in MPI rank order (node-major).

    Each node's CUDA state is placed on first touch (:class:`WorldCuda`),
    except on node 0 and the nodes already built, which are placed here.
    Node 0 holds the most ranks, and a node not yet built holds only what
    pending worlds place, which node 0 holds too (every world starts
    there), so a bad mask or a full GPU raises from the build, at its
    first failing rank, never at a later first touch.
    """
    gpn = cluster.gpus_per_node
    if spec.num_ranks < 1:
        raise ConfigError(f"num_ranks must be >= 1, got {spec.num_ranks}")
    if spec.num_ranks > cluster.num_gpus:
        raise ConfigError(
            f"{spec.num_ranks} ranks > {cluster.num_gpus} GPUs in cluster"
        )
    app_masks: list[VisibilityMask] = []
    mpi_masks: list[VisibilityMask] = []
    for local_rank in range(min(gpn, spec.num_ranks)):
        app_mask = spec.policy.app_mask(local_rank, gpn)
        if not app_mask.sees(local_rank):
            raise ConfigError(
                f"policy mask {app_mask} for local rank {local_rank} hides its own GPU"
            )
        check_mask(app_mask, gpn)
        app_masks.append(app_mask)
        mpi_masks.append(
            _resolve_mpi_mask(app_mask, spec.config, spec.cuda_version, gpn)
        )
    cuda = WorldCuda(cluster, spec, app_masks)
    cluster.defer_cuda_state(cuda)
    for node_id in range(-(-spec.num_ranks // gpn)):
        if node_id == 0 or cluster.nodes.is_built(node_id):
            cuda.node_state(node_id)
    return [
        RankContext(
            rank=rank,
            node_id=rank // gpn,
            local_rank=rank % gpn,
            device_ref=cluster.gpu_ref(rank),
            app_mask=app_masks[rank % gpn],
            mpi_mask=mpi_masks[rank % gpn],
            cuda=cuda,
        )
        for rank in range(spec.num_ranks)
    ]
