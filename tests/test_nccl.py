"""Tests for the NCCL-like backend."""

import numpy as np
import pytest

from repro.errors import NcclError
from repro.hardware import LASSEN, Cluster
from repro.mpi.comm import GpuBuffers
from repro.nccl import NcclWorld, build_ring, ring_bandwidth
from repro.nccl.protocol import DEFAULT_PROTOCOL, NcclProtocol
from repro.sim import Environment
from repro.utils.units import KIB, MIB


def make_world(num_gpus):
    nodes = max(1, (num_gpus + 3) // 4)
    cluster = Cluster(Environment(), LASSEN, num_nodes=nodes)
    return NcclWorld(cluster, num_gpus)


class TestRings:
    def test_ring_order_is_node_major(self):
        cluster = Cluster(Environment(), LASSEN, num_nodes=2)
        assert build_ring(cluster, [3, 0, 5, 1]) == [0, 1, 3, 5]

    def test_intra_node_ring_bandwidth_is_nvlink_class(self):
        cluster = Cluster(Environment(), LASSEN, num_nodes=1)
        bw = ring_bandwidth(cluster, [0, 1, 2, 3], DEFAULT_PROTOCOL)
        # cross-socket hop (X-Bus) is the intra-node bottleneck
        assert bw == pytest.approx(
            LASSEN.node.xbus_cpu_cpu.bandwidth * DEFAULT_PROTOCOL.nvlink_efficiency
        )

    def test_multi_node_ring_bottlenecked_by_ib(self):
        cluster = Cluster(Environment(), LASSEN, num_nodes=2)
        bw = ring_bandwidth(cluster, list(range(8)), DEFAULT_PROTOCOL)
        assert bw == pytest.approx(
            LASSEN.ib.bandwidth * DEFAULT_PROTOCOL.ib_efficiency
        )

    def test_empty_ring_rejected(self):
        cluster = Cluster(Environment(), LASSEN, num_nodes=1)
        with pytest.raises(NcclError):
            build_ring(cluster, [])


class TestNcclAllreduce:
    def test_functional_semantics(self):
        world = make_world(4)
        comm = world.communicator()
        arrays = [np.full(256, float(r), dtype=np.float32) for r in range(4)]
        comm.allreduce(GpuBuffers.from_arrays(arrays), average=True)
        np.testing.assert_allclose(arrays[0], 1.5)

    def test_large_message_time_near_bandwidth_bound(self):
        world = make_world(4)
        comm = world.communicator()
        nbytes = 64 * MIB
        t = comm.allreduce(GpuBuffers.virtual(nbytes, 4))
        bw = ring_bandwidth(world.cluster, list(range(4)), DEFAULT_PROTOCOL)
        bound = 2 * nbytes * 3 / (4 * bw)
        assert t.time >= bound
        assert t.time < 3 * bound

    def test_small_message_latency_floor(self):
        world = make_world(4)
        comm = world.communicator()
        t = comm.allreduce(GpuBuffers.virtual(4 * KIB, 4))
        assert t.time >= DEFAULT_PROTOCOL.ll_op_latency_s

    def test_tree_engages_at_scale(self):
        world = make_world(64)  # 16 nodes >= tree threshold
        comm = world.communicator()
        t = comm.allreduce(GpuBuffers.virtual(64 * MIB, 64))
        assert t.algorithm in ("nccl-tree", "nccl-ring")
        # at 16 nodes the tree should win for bandwidth-bound sizes
        assert t.algorithm == "nccl-tree"

    def test_single_rank_free(self):
        world = make_world(1)
        comm = world.communicator()
        t = comm.allreduce(GpuBuffers.virtual(64 * MIB, 1))
        assert t.time == 0.0

    def test_observers_and_counters(self):
        world = make_world(4)
        comm = world.communicator()
        seen = []
        comm.add_observer(lambda timing, backend: seen.append(backend))
        comm.allreduce(GpuBuffers.virtual(1 * MIB, 4))
        assert seen == ["nccl"]
        assert comm.op_count == 1
        assert comm.total_comm_time > 0

    def test_bcast(self):
        world = make_world(4)
        comm = world.communicator()
        arrays = [np.full(64, float(r), dtype=np.float32) for r in range(4)]
        t = comm.bcast(GpuBuffers.from_arrays(arrays), root_index=1)
        np.testing.assert_allclose(arrays[3], 1.0)
        assert t.time > 0

    def test_barrier_positive_multirank(self):
        world = make_world(8)
        comm = world.communicator()
        assert comm.barrier().time > 0

    def test_too_many_ranks_rejected(self):
        cluster = Cluster(Environment(), LASSEN, num_nodes=1)
        with pytest.raises(NcclError):
            NcclWorld(cluster, 5)

    def test_mismatched_buffers_rejected(self):
        world = make_world(2)
        comm = world.communicator()
        with pytest.raises(NcclError):
            # buffers of different sizes cannot be built: one rank short
            comm.allreduce(GpuBuffers.virtual(10, 1))
