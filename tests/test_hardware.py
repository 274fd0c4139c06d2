"""Unit tests for hardware models: specs, memory pools, links, nodes, cluster."""

import math

import pytest

from repro.errors import ConfigError, HardwareError
from repro.hardware import (
    LASSEN,
    LONGHORN,
    POWER9,
    V100_16GB,
    Cluster,
    LinkKind,
    MemoryPool,
    PoolExhaustedError,
)
from repro.hardware.cluster import build_cluster
from repro.hardware.node import DeviceKind, Node
from repro.hardware.specs import GpuSpec, LinkSpec
from repro.sim import Environment
from repro.utils.units import GB, GIB, MIB


class TestSpecs:
    def test_v100_preset(self):
        assert V100_16GB.memory_bytes == 16 * GIB
        assert V100_16GB.peak_fp32_flops == pytest.approx(15.7e12)
        assert 0 < V100_16GB.sustained_efficiency <= 1

    def test_lassen_preset_shape(self):
        assert LASSEN.max_nodes == 792
        assert LASSEN.node.gpus_per_node == 4
        assert LASSEN.node.sockets == 2
        assert LONGHORN.max_nodes == 96

    def test_linkspec_transfer_time(self):
        spec = LinkSpec("test", latency_s=1e-6, bandwidth=10 * GB)
        assert spec.transfer_time(0) == pytest.approx(1e-6)
        assert spec.transfer_time(10 * GB) == pytest.approx(1.000001)

    def test_invalid_specs_rejected(self):
        with pytest.raises(ConfigError):
            GpuSpec("bad", memory_bytes=0, peak_fp32_flops=1, hbm_bandwidth=1)
        with pytest.raises(ConfigError):
            LinkSpec("bad", latency_s=-1, bandwidth=1)
        with pytest.raises(ConfigError):
            GpuSpec("bad", memory_bytes=1, peak_fp32_flops=1, hbm_bandwidth=1,
                    sustained_efficiency=1.5)


class TestMemoryPool:
    def test_alloc_free_accounting(self):
        pool = MemoryPool("test", 1000)
        a = pool.alloc(400, tag="weights")
        b = pool.alloc(500, tag="activations")
        assert pool.used == 900
        assert pool.free == 100
        pool.free_block(a)
        assert pool.used == 500
        pool.free_block(b)
        assert pool.used == 0
        assert pool.peak_used == 900

    def test_oom_raises_with_diagnostics(self):
        pool = MemoryPool("gpu0", 1000)
        pool.alloc(900, tag="context")
        with pytest.raises(PoolExhaustedError) as exc:
            pool.alloc(200, tag="tensor")
        assert "context" in str(exc.value)
        assert pool.oom_count == 1
        assert pool.used == 900  # failed alloc does not leak

    def test_double_free_rejected(self):
        pool = MemoryPool("test", 100)
        block = pool.alloc(10)
        pool.free_block(block)
        with pytest.raises(HardwareError):
            pool.free_block(block)

    def test_used_by_tag(self):
        pool = MemoryPool("test", 1000)
        pool.alloc(100, tag="a")
        pool.alloc(200, tag="a")
        pool.alloc(300, tag="b")
        assert pool.used_by_tag() == {"a": 300, "b": 300}

    def test_reset_clears_everything(self):
        pool = MemoryPool("test", 100)
        pool.alloc(60)
        pool.reset()
        assert pool.used == 0
        pool.alloc(100)  # fits again


class TestNode:
    @pytest.fixture
    def node(self):
        return Node(Environment(), 0, LASSEN.node)

    def test_device_inventory(self, node):
        assert len(node.gpu_refs) == 4
        assert len(node.cpu_refs) == 2
        assert node.socket_of_gpu(0) == 0
        assert node.socket_of_gpu(1) == 0
        assert node.socket_of_gpu(2) == 1
        assert node.socket_of_gpu(3) == 1

    def test_same_socket_gpus_direct_nvlink(self, node):
        route = node.route(node.gpu_refs[0], node.gpu_refs[1])
        assert len(route) == 1
        assert route[0].kind is LinkKind.NVLINK_P2P

    def test_cross_socket_gpus_route_through_cpus(self, node):
        route = node.route(node.gpu_refs[0], node.gpu_refs[2])
        kinds = [link.kind for link in route]
        assert kinds == [LinkKind.NVLINK_CPU, LinkKind.XBUS, LinkKind.NVLINK_CPU]

    def test_gpu_to_hca_route(self, node):
        route = node.route(node.gpu_refs[3], node.hca_ref)
        assert route[-1].kind is LinkKind.PCIE

    def test_route_to_self_is_empty(self, node):
        assert node.route(node.gpu_refs[0], node.gpu_refs[0]) == []

    def test_gpu_memory_pools_sized_to_spec(self, node):
        for ref in node.gpu_refs:
            assert node.gpu_memory[ref].capacity == 16 * GIB


class TestCluster:
    @pytest.fixture
    def cluster(self):
        return Cluster(Environment(), LASSEN, num_nodes=2)

    def test_gpu_ref_flat_mapping(self, cluster):
        assert cluster.num_gpus == 8
        ref = cluster.gpu_ref(5)
        assert ref.node == 1 and ref.index == 1
        with pytest.raises(HardwareError):
            cluster.gpu_ref(8)

    def test_intra_node_path_cheaper_than_inter_node(self, cluster):
        g0, g1, g4 = cluster.gpu_ref(0), cluster.gpu_ref(1), cluster.gpu_ref(4)
        intra = cluster.path_cost(g0, g1, 64 * MIB)
        inter = cluster.path_cost(g0, g4, 64 * MIB)
        assert intra < inter

    def test_inter_node_bottleneck_is_ib(self, cluster):
        g0, g4 = cluster.gpu_ref(0), cluster.gpu_ref(4)
        assert cluster.path_bandwidth(g0, g4) == pytest.approx(
            LASSEN.ib.bandwidth
        )

    def test_transfer_process_advances_clock(self):
        env = Environment()
        cluster = Cluster(env, LASSEN, num_nodes=1)
        g0, g1 = cluster.gpu_ref(0), cluster.gpu_ref(1)
        nbytes = 64 * MIB
        expected = cluster.path_cost(g0, g1, nbytes)

        p = env.process(cluster.transfer(g0, g1, nbytes))
        env.run()
        assert env.now == pytest.approx(expected)

    def test_concurrent_same_link_transfers_serialize(self):
        env = Environment()
        cluster = Cluster(env, LASSEN, num_nodes=1)
        g0, g1 = cluster.gpu_ref(0), cluster.gpu_ref(1)
        nbytes = 64 * MIB
        single = cluster.path_cost(g0, g1, nbytes)

        env.process(cluster.transfer(g0, g1, nbytes))
        env.process(cluster.transfer(g0, g1, nbytes))
        env.run()
        assert env.now == pytest.approx(2 * single)

    def test_opposite_directions_run_concurrently(self):
        env = Environment()
        cluster = Cluster(env, LASSEN, num_nodes=1)
        g0, g1 = cluster.gpu_ref(0), cluster.gpu_ref(1)
        nbytes = 64 * MIB
        single = cluster.path_cost(g0, g1, nbytes)

        env.process(cluster.transfer(g0, g1, nbytes))
        env.process(cluster.transfer(g1, g0, nbytes))
        env.run()
        assert env.now == pytest.approx(single)

    def test_too_many_nodes_rejected(self):
        with pytest.raises(HardwareError):
            Cluster(Environment(), LONGHORN, num_nodes=97)

    def test_build_cluster_rounds_up_nodes(self):
        cluster = build_cluster(LASSEN, num_gpus=6)
        assert cluster.num_nodes == 2

    def test_oversubscription_derates_ib(self):
        spec = LASSEN.__class__(
            name="tapered", node=LASSEN.node, max_nodes=4, ib=LASSEN.ib,
            oversubscription=2.0,
        )
        env = Environment()
        cluster = Cluster(env, spec, num_nodes=2)
        g0, g4 = cluster.gpu_ref(0), cluster.gpu_ref(4)
        assert cluster.path_bandwidth(g0, g4) == pytest.approx(LASSEN.ib.bandwidth / 2)

    def test_path_constants_fold_latencies_left_to_right(self, cluster):
        """``path_cost``'s live walk adds hop latencies in route order, so
        the stored constants must too: ``sum()`` is compensated from
        Python 3.12 on and rounds some inter-node routes differently.

        The constants are memoized per route class, which is sound only
        on a uniform fabric, so every GPU, CPU and HCA endpoint pair of
        each cluster below is checked against a walk of its own route:
        a node or uplink built from another spec would fail here."""
        from dataclasses import replace

        from repro.parallel.executor import dp_cluster_spec
        from repro.parallel.layout import ParallelLayout

        tapered = replace(LASSEN, name="tapered", oversubscription=2.0)
        specs = [
            tapered,
            # dp-group views of tp=2 (2 GPUs a node) and tp=4 (1 GPU)
            dp_cluster_spec(LASSEN, ParallelLayout(dp=6, tp=2)),
            dp_cluster_spec(LASSEN, ParallelLayout(dp=3, tp=4)),
        ]
        assert [s.node.gpus_per_node for s in specs] == [4, 2, 1]
        clusters = [
            cluster,
            Cluster(Environment(), LASSEN, num_nodes=3),
            *(Cluster(Environment(), spec, num_nodes=3) for spec in specs),
        ]
        rounded_apart = 0
        for c in clusters:
            ends = [
                ref
                for node in c.nodes
                for ref in (*node.gpu_refs, *node.cpu_refs, node.hca_ref)
            ]
            for src in ends:
                for dst in ends:
                    hops = c.route(src, dst)
                    alpha = 0.0
                    for link, _, _ in hops:
                        alpha += link.spec.latency_s
                    bottleneck = min(
                        (link.spec.bandwidth for link, _, _ in hops),
                        default=float("inf"),
                    )
                    got_alpha, got_bottleneck = c.path_constants(src, dst)
                    assert got_alpha.hex() == alpha.hex(), (c, src, dst)
                    assert got_bottleneck == bottleneck, (c, src, dst)
                    latencies = [link.spec.latency_s for link, _, _ in hops]
                    rounded_apart += alpha != math.fsum(latencies)
        # some route's fold differs from the correctly rounded sum, so the
        # comparison above tells a fold from a compensated sum
        assert rounded_apart

    def test_nodes_built_on_first_index(self, cluster):
        assert not cluster.nodes.is_built(1)
        last = cluster.nodes[-1]
        assert last.node_id == cluster.num_nodes - 1 == 1
        assert cluster.nodes[1] is last and cluster.nodes.is_built(1)
        assert [n.node_id for n in cluster.nodes] == [0, 1]
        with pytest.raises(IndexError):
            cluster.nodes[2]

    def test_node_groups(self, cluster):
        assert cluster.node_groups(range(8)) == [[0, 1, 2, 3], [4, 5, 6, 7]]
        # nodes in order of first appearance, ranks in their given order
        assert cluster.node_groups([6, 1, 4, 0, 7]) == [[6, 4, 7], [1, 0]]
        assert cluster.node_groups(sorted([6, 1, 4, 0, 7])) == \
            [[0, 1], [4, 6, 7]]
        assert cluster.node_groups([]) == []


class TestHardwareVariants:
    """Alternative node/system shapes: the model is not Lassen-specific."""

    def test_dgx1v_preset_shape(self):
        from repro.hardware.specs import DGX1V

        assert DGX1V.node.gpus_per_node == 8
        assert DGX1V.node.gpus_per_socket == 4
        node = Node(Environment(), 0, DGX1V.node)
        assert len(node.gpu_refs) == 8
        # same-socket peers direct, cross-socket via both CPUs
        assert len(node.route(node.gpu_refs[0], node.gpu_refs[3])) == 1
        kinds = [l.kind for l in node.route(node.gpu_refs[0], node.gpu_refs[4])]
        assert kinds == [LinkKind.NVLINK_CPU, LinkKind.XBUS, LinkKind.NVLINK_CPU]

    def test_dgx_staging_slower_than_lassen(self):
        """x86 pageable copies are slower than Power9's NVLink-attached
        memory — the staged path hurts more on DGX-class nodes."""
        from repro.hardware.specs import DGX1V

        assert (
            DGX1V.node.pageable_copy_bandwidth
            < LASSEN.node.pageable_copy_bandwidth
        )

    def test_single_socket_node(self):
        from dataclasses import replace

        spec = replace(LASSEN.node, sockets=1, gpus_per_node=4)
        node = Node(Environment(), 0, spec)
        assert len(node.cpu_refs) == 1
        # all four GPUs are same-socket peers
        assert len(node.route(node.gpu_refs[0], node.gpu_refs[3])) == 1

    def test_uneven_socket_split_rejected(self):
        from dataclasses import replace

        with pytest.raises(ConfigError):
            replace(LASSEN.node, gpus_per_node=5)

    def test_dgx_cluster_study_runs_end_to_end(self):
        from repro.core import MPI_OPT, ScalingStudy, StudyConfig
        from repro.hardware.specs import DGX1V

        config = StudyConfig(cluster=DGX1V, measure_steps=1, warmup_steps=1)
        point = ScalingStudy(MPI_OPT, config).run_point(16)  # 2 DGX nodes
        assert point.images_per_second > 0
