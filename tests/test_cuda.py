"""Unit tests for the simulated CUDA runtime: masks, contexts, memory,
copies and kernels."""

import pytest

from repro.cuda import CudaRuntime, CudaVersion, VisibilityMask
from repro.cuda.kernels import KernelCostModel, KernelLaunch
from repro.errors import ConfigError, CudaInvalidDeviceError, CudaOutOfMemoryError
from repro.hardware import LASSEN, Cluster, V100_16GB
from repro.sim import Environment
from repro.utils.units import GIB, MIB


@pytest.fixture
def cluster():
    return Cluster(Environment(), LASSEN, num_nodes=1)


@pytest.fixture
def runtime(cluster):
    return CudaRuntime(cluster, node_id=0)


class TestVisibilityMask:
    def test_parse_and_remap(self):
        mask = VisibilityMask.parse("2,0,3")
        assert mask.count == 3
        assert mask.to_physical(0) == 2
        assert mask.to_physical(1) == 0
        assert mask.sees(3)
        assert not mask.sees(1)

    def test_parse_empty(self):
        assert VisibilityMask.parse("").count == 0

    def test_duplicate_rejected(self):
        with pytest.raises(ConfigError):
            VisibilityMask.parse("0,0")

    def test_out_of_range_logical(self):
        mask = VisibilityMask.single(1)
        with pytest.raises(CudaInvalidDeviceError):
            mask.to_physical(1)

    def test_all_devices(self):
        assert VisibilityMask.all_devices(4).physical == (0, 1, 2, 3)

    def test_str_roundtrip(self):
        assert str(VisibilityMask.parse("3,1")) == "3,1"


class TestCudaVersion:
    def test_parse(self):
        assert CudaVersion.parse("10.2") == CudaVersion(10, 2)
        assert CudaVersion.parse("11") == CudaVersion(11, 0)

    def test_ipc_gate(self):
        assert not CudaVersion(10, 0).supports_cross_visibility_ipc
        assert CudaVersion(10, 1).supports_cross_visibility_ipc
        assert CudaVersion(11, 0).supports_cross_visibility_ipc

    def test_ordering(self):
        assert CudaVersion(10, 1) < CudaVersion(10, 2) < CudaVersion(11, 0)


class TestContextsAndMemory:
    def test_malloc_consumes_hbm(self, cluster, runtime):
        ctx = runtime.create_context(pid=1, mask=VisibilityMask.single(0))
        alloc = ctx.malloc(1 * GIB, tag="tensor")
        pool = cluster.gpu_memory(cluster.gpu_ref(0))
        overhead = LASSEN.node.gpu.context_overhead_bytes
        assert pool.used == 1 * GIB + overhead
        ctx.free(alloc)
        assert pool.used == overhead

    def test_oom_raises_cuda_error(self, runtime):
        ctx = runtime.create_context(pid=1, mask=VisibilityMask.single(0))
        with pytest.raises(CudaOutOfMemoryError):
            ctx.malloc(17 * GIB)

    def test_double_free_rejected(self, runtime):
        ctx = runtime.create_context(pid=1, mask=VisibilityMask.single(0))
        alloc = ctx.malloc(1024)
        ctx.free(alloc)
        with pytest.raises(Exception):
            ctx.free(alloc)

    def test_touch_all_visible_spreads_overhead_kernels(self, cluster, runtime):
        """Fig 6a: 4 undisciplined processes leave 4 contexts on each GPU."""
        ctxs = [
            runtime.create_context(pid=p, mask=VisibilityMask.all_devices(4))
            for p in range(1, 5)
        ]
        for ctx in ctxs:
            assert ctx.touch_all_visible() == 4
        overhead = LASSEN.node.gpu.context_overhead_bytes
        for g in range(4):
            pool = cluster.gpu_memory(cluster.gpu_ref(g))
            assert pool.used == 4 * overhead

    def test_restricted_mask_keeps_remote_gpus_clean(self, cluster, runtime):
        """Fig 6b: CUDA_VISIBLE_DEVICES=local_rank -> one context per GPU."""
        ctxs = [
            runtime.create_context(pid=p + 1, mask=VisibilityMask.single(p))
            for p in range(4)
        ]
        for ctx in ctxs:
            ctx.touch_all_visible()
        overhead = LASSEN.node.gpu.context_overhead_bytes
        for g in range(4):
            pool = cluster.gpu_memory(cluster.gpu_ref(g))
            assert pool.used == overhead

    def test_set_device_changes_allocation_target(self, cluster, runtime):
        ctx = runtime.create_context(pid=1, mask=VisibilityMask.parse("1,3"))
        ctx.set_device(1)  # logical 1 -> physical 3
        ctx.malloc(128 * MIB)
        assert cluster.gpu_memory(cluster.gpu_ref(3)).used > 0
        assert cluster.gpu_memory(cluster.gpu_ref(1)).used == 0

    def test_destroy_releases_everything(self, cluster, runtime):
        ctx = runtime.create_context(pid=1, mask=VisibilityMask.all_devices(4))
        ctx.touch_all_visible()
        ctx.malloc(1 * GIB)
        ctx.destroy()
        for g in range(4):
            assert cluster.gpu_memory(cluster.gpu_ref(g)).used == 0

    def test_mask_beyond_node_rejected(self, runtime):
        with pytest.raises(CudaInvalidDeviceError):
            runtime.create_context(pid=1, mask=VisibilityMask.parse("0,4"))


class TestCopiesAndKernels:
    def test_peer_copy_times(self, runtime):
        ctx = runtime.create_context(pid=1, mask=VisibilityMask.all_devices(4))
        ctx.set_device(0)
        peer_same_socket = ctx.memcpy_time(
            runtime.physical_ref(0), runtime.physical_ref(1), 64 * MIB
        )
        peer_cross_socket = ctx.memcpy_time(
            runtime.physical_ref(0), runtime.physical_ref(2), 64 * MIB
        )
        assert 0 < peer_same_socket < peer_cross_socket

    def test_kernel_roofline(self):
        model = KernelCostModel(V100_16GB)
        compute_heavy = KernelLaunch("conv", flops=1e12, bytes_accessed=1e6)
        memory_heavy = KernelLaunch("copy", flops=1e6, bytes_accessed=90e9)
        t_c = model.duration(compute_heavy)
        t_m = model.duration(memory_heavy)
        assert t_c == pytest.approx(
            V100_16GB.kernel_launch_overhead_s + 1e12 / V100_16GB.sustained_fp32_flops
        )
        assert t_m == pytest.approx(
            V100_16GB.kernel_launch_overhead_s + 90e9 / V100_16GB.hbm_bandwidth
        )

    def test_utilization_scales_compute(self):
        model = KernelCostModel(V100_16GB)
        full = model.duration(KernelLaunch("k", flops=1e12, bytes_accessed=0))
        half = model.duration(
            KernelLaunch("k", flops=1e12, bytes_accessed=0, utilization=0.5)
        )
        assert half > full

    def test_device_reduce_time_positive(self):
        model = KernelCostModel(V100_16GB)
        assert model.device_reduce_time(64 * MIB) > 0

    def test_bad_kernel_launch_rejected(self):
        with pytest.raises(ConfigError):
            KernelLaunch("bad", flops=-1, bytes_accessed=0)
        with pytest.raises(ConfigError):
            KernelLaunch("bad", flops=0, bytes_accessed=0, utilization=0)
