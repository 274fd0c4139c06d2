"""Golden state of what a world leaves outside pricing.

Pricing reads route classes and price tables; these tests pin what a
world puts everywhere else, on MPI (default), MPI-Opt, the all-visible
workaround (Fig. 6a, with and without touching every visible device) and
NCCL worlds of 1, 8 and 64 ranks.  Each cluster has one node more than
its world needs, so a node without ranks is in every case.

Each case takes a snapshot three times: after the world is built, after
``HorovodEngine.allocate_fusion_buffers`` and after an 8 MiB event-mode
allreduce.  A snapshot holds, in this order:

* the ``overhead_kernel_report`` text over the world's ranks;
* each node's GPU and host pools: ``used``, ``used_by_tag()``,
  ``alloc_count`` and ``oom_count``;
* each rank's app mask, MPI mask and current device;
* every same-node ``can_ipc`` verdict, both orders.

The ``ranks-first`` cases read the last rank's context before anything
else, so the first read of a node's state comes from a rank rather than
from its memory; their digests equal the ``report-first`` ones.

The error cases pin that a policy mask hiding its own GPU, a mask naming
a GPU the node lacks and a GPU too full for the contexts raise from
``MpiWorld(...)`` itself.

The digests were recorded before node state was built on first touch.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, replace

import pytest

from repro.core import MPI_DEFAULT, MPI_OPT, NCCL_SCENARIO
from repro.core.scenarios import MPI_ALL_VISIBLE
from repro.core.visible_devices import overhead_kernel_report
from repro.cuda.env import VisibilityMask
from repro.errors import ConfigError, CudaInvalidDeviceError, CudaOutOfMemoryError
from repro.hardware import LASSEN, Cluster
from repro.hardware.node import DeviceKind, DeviceRef
from repro.horovod import HorovodConfig, HorovodEngine
from repro.mpi import MpiWorld, WorldSpec
from repro.mpi.collectives import ExecutionMode
from repro.mpi.comm import GpuBuffers
from repro.nccl.communicator import NcclWorld
from repro.sim import Environment
from repro.utils.units import GIB, MIB

RANK_COUNTS = (1, 8, 64)
#: name -> (scenario, touch_all_visible)
WORLDS = {
    "mpi": (MPI_DEFAULT, True),
    "mpi-opt": (MPI_OPT, True),
    "all-visible": (MPI_ALL_VISIBLE, True),
    "all-visible-untouched": (MPI_ALL_VISIBLE, False),
    "nccl": (NCCL_SCENARIO, True),
}


def _pool(pool) -> str:
    tags = sorted(pool.used_by_tag().items())
    return (
        f"{pool.name} used={pool.used} alloc={pool.alloc_count} "
        f"oom={pool.oom_count} {tags}"
    )


def _snapshot(cluster, world) -> list[str]:
    ranks = getattr(world, "ranks", [])
    lines = [overhead_kernel_report(cluster, ranks)] if ranks else []
    for node_id in range(cluster.num_nodes):
        node = cluster.nodes[node_id]
        lines.extend(_pool(node.gpu_memory[ref]) for ref in node.gpu_refs)
        lines.append(_pool(node.host_memory))
    for r in ranks:
        lines.append(
            f"rank {r.rank} app={r.app_ctx.mask} mpi={r.mpi_mask} "
            f"device={r.app_ctx.current_physical}"
        )
    for a in ranks:
        for b in ranks:
            if a.rank != b.rank and a.node_id == b.node_id:
                lines.append(
                    f"ipc {a.rank}->{b.rank} {world.transport.can_ipc(a, b)}"
                )
    return lines


def run_case(name: str, num_ranks: int, touch: str) -> str:
    scenario, touch_all = WORLDS[name]
    cluster = Cluster(Environment(), LASSEN, num_nodes=-(-num_ranks // 4) + 1)
    if scenario.backend == "nccl":
        world = NcclWorld(cluster, num_ranks)
    else:
        spec = WorldSpec(
            num_ranks=num_ranks, policy=scenario.policy, config=scenario.mv2,
            touch_all_visible=touch_all,
        )
        world = MpiWorld(cluster, spec, mode=ExecutionMode.EVENT)
        if touch == "ranks-first":
            world.ranks[-1].app_ctx
    comm = world.communicator()
    lines = ["built", *_snapshot(cluster, world)]
    engine = HorovodEngine(comm, HorovodConfig(fusion_threshold=64 * MIB))
    lines.append(f"fusion {engine.allocate_fusion_buffers()}")
    lines.extend(_snapshot(cluster, world))
    timing = comm.allreduce(
        GpuBuffers.virtual(8 * MIB, num_ranks)
    )
    lines.append(f"allreduce {timing.time.hex()}")
    lines.extend(_snapshot(cluster, world))
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()[:32]


CASES = [
    (name, n, touch)
    for name in WORLDS
    for n in RANK_COUNTS
    for touch in (
        ("report-first", "ranks-first") if name != "nccl" else ("report-first",)
    )
]

GOLDEN = {
    "all-visible-1": "cb5f196b2afc04a482e3fc6686fdabe4",
    "all-visible-8": "63fc11c1d0dbae11295677db4cebc19c",
    "all-visible-64": "7c3f34bb1f87fbc63158968d4e7d798f",
    "all-visible-untouched-1": "544e90423fc3bd78f99c9a24067fca81",
    "all-visible-untouched-8": "960253c692fcc075625851b91c0a7b7b",
    "all-visible-untouched-64": "845b33abd3b38b15dfab341547d1c6f2",
    "mpi-1": "6e11dc468687681a1e91b4fa6c6220a8",
    "mpi-8": "e5f7ccacf049a3d2e69b0cbf8fc332a2",
    "mpi-64": "2d8fe983778d47a4810e706cb6c9b1c7",
    "mpi-opt-1": "c3887db9e288da74e12966656180a72e",
    "mpi-opt-8": "385834c2f8210e0d26e70082c16909fa",
    "mpi-opt-64": "0a54602c2065a16ac5bf64557d92734d",
    "nccl-1": "9d70a45ceb5fc31ca608426722701e93",
    "nccl-8": "f2a4b6c1b3e4b8ada865d5c025f2c3c6",
    "nccl-64": "ef83c891ecb3ebda59c425b58b778a5c",
}


@pytest.mark.parametrize(
    "name,num_ranks,touch", CASES,
    ids=[f"{name}-{n}-{touch}" for name, n, touch in CASES],
)
def test_world_state_golden(name, num_ranks, touch):
    assert run_case(name, num_ranks, touch) == GOLDEN[f"{name}-{num_ranks}"]


@dataclass(frozen=True)
class _HidesOwnGpu:
    def app_mask(self, local_rank: int, gpus_per_node: int) -> VisibilityMask:
        return VisibilityMask.single((local_rank + 1) % gpus_per_node)


@dataclass(frozen=True)
class _NamesMissingGpu:
    def app_mask(self, local_rank: int, gpus_per_node: int) -> VisibilityMask:
        return VisibilityMask((local_rank, gpus_per_node + 3))


def _spec(num_ranks, policy, scenario=MPI_OPT) -> WorldSpec:
    return WorldSpec(num_ranks=num_ranks, policy=policy, config=scenario.mv2)


class TestBuildErrorsRaiseFromTheConstructor:
    def test_mask_hiding_its_own_gpu(self):
        cluster = Cluster(Environment(), LASSEN, num_nodes=2)
        with pytest.raises(ConfigError, match="hides its own GPU"):
            MpiWorld(cluster, _spec(8, _HidesOwnGpu()))

    def test_mask_naming_a_missing_gpu(self):
        cluster = Cluster(Environment(), LASSEN, num_nodes=2)
        with pytest.raises(CudaInvalidDeviceError, match="physical device 7"):
            MpiWorld(cluster, _spec(8, _NamesMissingGpu()))

    def test_contexts_overflow_a_small_gpu(self):
        # four all-visible contexts of 320 MiB do not fit 1 GiB of HBM
        gpu = replace(LASSEN.node.gpu, memory_bytes=1 * GIB)
        spec = replace(LASSEN, node=replace(LASSEN.node, gpu=gpu))
        cluster = Cluster(Environment(), spec, num_nodes=2)
        world_spec = _spec(8, MPI_ALL_VISIBLE.policy, MPI_ALL_VISIBLE)
        with pytest.raises(CudaOutOfMemoryError, match="n0:gpu0:hbm"):
            MpiWorld(cluster, world_spec)

    def test_context_on_an_already_full_gpu(self):
        cluster = Cluster(Environment(), LASSEN, num_nodes=3)
        full = cluster.gpu_memory(DeviceRef(1, DeviceKind.GPU, 2))
        full.alloc(full.capacity - 100 * MIB, tag="other-job")
        with pytest.raises(CudaOutOfMemoryError, match="n1:gpu2:hbm"):
            MpiWorld(cluster, _spec(12, MPI_OPT.policy))
        assert full.oom_count == 1
