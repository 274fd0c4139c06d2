"""Tests for collective algorithms: correctness of schedules, timing sanity,
and cross-validation of the analytic engine against the event engine."""

import numpy as np
import pytest

from repro.hardware import LASSEN, Cluster
from repro.mpi import Mv2Config, MpiWorld, WorldSpec
from repro.mpi.collectives import ExecutionMode, StepCoster
from repro.mpi.collectives.allreduce import (
    allreduce_lower_bound,
    allreduce_timing,
    select_allreduce_algorithm,
)
from repro.mpi.collectives.allgather import allgather_timing
from repro.mpi.collectives.barrier import barrier_timing
from repro.mpi.collectives.bcast import bcast_timing
from repro.mpi.collectives.reduce import reduce_timing
from repro.mpi.comm import GpuBuffers
from repro.mpi.datatypes import ReduceOp
from repro.mpi.process import SingletonDevicePolicy
from repro.sim import Environment
from repro.utils.units import KIB, MIB


def make_world(num_gpus, *, config=None, mode=ExecutionMode.ANALYTIC):
    nodes = max(1, (num_gpus + 3) // 4)
    cluster = Cluster(Environment(), LASSEN, num_nodes=nodes)
    spec = WorldSpec(
        num_ranks=num_gpus,
        policy=SingletonDevicePolicy(),
        config=config or Mv2Config(mv2_visible_devices="all", registration_cache=True),
    )
    return MpiWorld(cluster, spec, mode=mode)


class TestAlgorithmSelection:
    def test_small_messages_pick_recursive_doubling(self):
        assert (
            select_allreduce_algorithm(8, 16 * KIB, nodes=2) == "recursive_doubling"
        )

    def test_large_multi_node_picks_hierarchical(self):
        assert select_allreduce_algorithm(512, 64 * MIB, nodes=128) == "hierarchical"

    def test_single_node_large_picks_ring(self):
        assert select_allreduce_algorithm(4, 64 * MIB, nodes=1) == "ring"

    def test_override_wins(self):
        assert select_allreduce_algorithm(8, 1, nodes=2, override="ring") == "ring"


class TestAllreduceTiming:
    @pytest.mark.parametrize("algorithm", ["ring", "recursive_doubling",
                                           "reduce_scatter_allgather"])
    def test_positive_time_single_node(self, algorithm):
        world = make_world(4)
        t = allreduce_timing(world.coster, [0, 1, 2, 3], 32 * MIB, algorithm=algorithm)
        assert t.time > 0
        assert t.algorithm == algorithm

    def test_hierarchical_has_all_segments(self):
        world = make_world(8)
        t = allreduce_timing(
            world.coster, list(range(8)), 64 * MIB, algorithm="hierarchical"
        )
        assert set(t.segments) == {
            "intra_reduce",
            "inter_reduce_scatter",
            "inter_allgather",
            "intra_bcast",
        }
        assert t.time == pytest.approx(sum(t.segments.values()))

    def test_ring_respects_bandwidth_lower_bound(self):
        world = make_world(4)
        nbytes = 64 * MIB
        t = allreduce_timing(world.coster, [0, 1, 2, 3], nbytes, algorithm="ring")
        # intra-node ring over NVLink: bound by the slowest link on the ring
        bound = allreduce_lower_bound(nbytes, 4, LASSEN.node.nvlink_gpu_gpu.bandwidth)
        assert t.time >= bound

    def test_single_rank_is_free(self):
        world = make_world(4)
        t = allreduce_timing(world.coster, [0], 64 * MIB)
        assert t.time == 0.0

    def test_zero_bytes_is_free(self):
        world = make_world(4)
        t = allreduce_timing(world.coster, [0, 1], 0)
        assert t.time == 0.0

    def test_non_power_of_two_recursive_doubling_falls_back_to_ring(self):
        world = make_world(12)
        t = allreduce_timing(
            world.coster, list(range(12)), 1 * MIB, algorithm="recursive_doubling"
        )
        assert t.algorithm == "ring"

    def test_ipc_config_faster_than_staged_config(self):
        """End-to-end: MPI-Opt allreduce beats default on one node (64 MB)."""
        opt = make_world(4)
        default = make_world(4, config=Mv2Config())  # no MV2_VISIBLE_DEVICES
        nbytes = 64 * MIB
        t_opt = allreduce_timing(opt.coster, [0, 1, 2, 3], nbytes, algorithm="ring")
        t_def = allreduce_timing(default.coster, [0, 1, 2, 3], nbytes, algorithm="ring")
        assert t_def.time > 1.5 * t_opt.time

    def test_more_ranks_more_time_staged(self):
        world = make_world(8, config=Mv2Config())
        t4 = allreduce_timing(world.coster, [0, 1, 2, 3], 32 * MIB, algorithm="hierarchical")
        t8 = allreduce_timing(world.coster, list(range(8)), 32 * MIB, algorithm="hierarchical")
        assert t8.time > t4.time


class TestOtherCollectives:
    def test_bcast_single_node(self):
        world = make_world(4)
        t = bcast_timing(world.coster, [0, 1, 2, 3], 16 * MIB)
        assert t.time > 0
        assert "tree" in t.segments

    def test_bcast_hierarchical_across_nodes(self):
        world = make_world(8)
        t = bcast_timing(world.coster, list(range(8)), 16 * MIB)
        assert {"inter_tree", "intra_tree"} <= set(t.segments)

    def test_bcast_zero_ranks_or_bytes(self):
        world = make_world(4)
        assert bcast_timing(world.coster, [0], 1 * MIB).time == 0.0
        assert bcast_timing(world.coster, [0, 1], 0).time == 0.0

    def test_reduce_positive(self):
        world = make_world(4)
        t = reduce_timing(world.coster, [0, 1, 2, 3], 16 * MIB)
        assert t.time > 0

    def test_allgather_positive(self):
        world = make_world(4)
        t = allgather_timing(world.coster, [0, 1, 2, 3], 1 * MIB)
        assert t.time > 0

    def test_barrier_scales_with_log_ranks(self):
        world = make_world(16)
        t4 = barrier_timing(world.coster, list(range(4)))
        t16 = barrier_timing(world.coster, list(range(16)))
        assert 0 < t4.time < t16.time


class TestPlanMemo:
    """Each call is keyed once by its shape; a hit reuses the plan without
    building or grouping ranks again."""

    def test_a_repeated_call_reuses_its_plan(self, monkeypatch):
        world = make_world(16)
        grouped = []
        node_groups = Cluster.node_groups
        monkeypatch.setattr(
            Cluster, "node_groups",
            lambda self, ranks: grouped.append(1) or node_groups(self, ranks),
        )
        ranks = list(range(16))
        ids = {r: 100 + r for r in ranks}
        for _ in range(2):
            allreduce_timing(world.coster, ranks, 16 * MIB, buffer_ids=ids)
            bcast_timing(world.coster, ranks, 16 * MIB, root=5, buffer_ids=ids)
        assert len(world.coster.schedules) == 2
        assert len(grouped) == 2
        # a new buffer id or dtype binds to the same plan
        allreduce_timing(world.coster, ranks, 16 * MIB,
                         buffer_ids={**ids, 3: 7})
        allreduce_timing(world.coster, ranks, 16 * MIB, buffer_ids=ids,
                         dtype_bytes=2)
        allreduce_timing(world.coster, ranks, 16 * MIB)
        bcast_timing(world.coster, ranks, 16 * MIB, root=5)
        assert len(world.coster.schedules) == 2
        assert len(grouped) == 2
        # a new root or algorithm is a new key
        bcast_timing(world.coster, ranks, 16 * MIB, root=6, buffer_ids=ids)
        allreduce_timing(world.coster, ranks, 16 * MIB, buffer_ids=ids,
                         algorithm="ring")
        assert len(world.coster.schedules) == 4


class TestRunSteps:
    """``run_steps`` totals steps with one left-to-right running sum."""

    def test_float_steps_add_left_to_right(self, monkeypatch):
        coster = make_world(8).coster
        times = iter([1.0, 2.0**-53, 2.0**-53])
        monkeypatch.setattr(
            coster, "step_time_analytic",
            lambda step, binding, reduce_after=False: next(times),
        )
        # sum() compensates from Python 3.12 on and would read 1.0 + 2**-52
        total = coster.run_steps([[], [], []])
        assert total.hex() == (1.0).hex()

    def test_empty_schedule_times_as_int_zero(self):
        total = make_world(8).coster.run_steps([])
        assert total == 0 and type(total) is int


class TestEngineCrossValidation:
    """The analytic engine must track the event engine within tolerance."""

    @pytest.mark.parametrize("nbytes", [256 * KIB, 8 * MIB, 64 * MIB])
    @pytest.mark.parametrize("algorithm", ["ring", "hierarchical"])
    def test_allreduce_two_engines_agree(self, nbytes, algorithm):
        results = {}
        for mode in (ExecutionMode.ANALYTIC, ExecutionMode.EVENT):
            world = make_world(8, mode=mode)
            t = allreduce_timing(
                world.coster, list(range(8)), nbytes, algorithm=algorithm
            )
            results[mode] = t.time
        ratio = results[ExecutionMode.EVENT] / results[ExecutionMode.ANALYTIC]
        assert 0.6 < ratio < 1.7, f"engines diverge: {results}"

    def test_staged_contention_visible_in_both_engines(self):
        """Default config staging contention appears in analytic and event."""
        times = {}
        for mode in (ExecutionMode.ANALYTIC, ExecutionMode.EVENT):
            world = make_world(4, config=Mv2Config(), mode=mode)
            t = allreduce_timing(world.coster, [0, 1, 2, 3], 64 * MIB, algorithm="ring")
            times[mode] = t.time
        ratio = times[ExecutionMode.EVENT] / times[ExecutionMode.ANALYTIC]
        assert 0.5 < ratio < 2.0, f"engines diverge: {times}"


class TestCommunicatorSemantics:
    def test_allreduce_sums_across_ranks(self):
        world = make_world(4)
        comm = world.communicator()
        arrays = [np.full(1024, float(r + 1), dtype=np.float32) for r in range(4)]
        buffers = GpuBuffers.from_arrays(arrays)
        comm.allreduce(buffers)
        for a in arrays:
            np.testing.assert_allclose(a, 10.0)

    def test_allreduce_average(self):
        world = make_world(4)
        comm = world.communicator()
        arrays = [np.full(16, float(r), dtype=np.float32) for r in range(4)]
        comm.allreduce(GpuBuffers.from_arrays(arrays), average=True)
        for a in arrays:
            np.testing.assert_allclose(a, 1.5)

    @pytest.mark.parametrize("op,expected", [
        (ReduceOp.MAX, 3.0),
        (ReduceOp.MIN, 0.0),
        (ReduceOp.PROD, 0.0),
    ])
    def test_allreduce_other_ops(self, op, expected):
        world = make_world(4)
        comm = world.communicator()
        arrays = [np.full(8, float(r), dtype=np.float32) for r in range(4)]
        comm.allreduce(GpuBuffers.from_arrays(arrays), op=op)
        np.testing.assert_allclose(arrays[0], expected)

    def test_bcast_copies_root(self):
        world = make_world(4)
        comm = world.communicator()
        arrays = [np.full(64, float(r), dtype=np.float32) for r in range(4)]
        comm.bcast(GpuBuffers.from_arrays(arrays), root_index=2)
        for a in arrays:
            np.testing.assert_allclose(a, 2.0)

    def test_allgather_returns_all(self):
        world = make_world(4)
        comm = world.communicator()
        arrays = [np.full(8, float(r), dtype=np.float32) for r in range(4)]
        gathered, _ = comm.allgather(GpuBuffers.from_arrays(arrays))
        assert len(gathered) == 4
        np.testing.assert_allclose(gathered[3], 3.0)

    def test_reduce_lands_on_root(self):
        world = make_world(4)
        comm = world.communicator()
        arrays = [np.full(8, 1.0, dtype=np.float32) for _ in range(4)]
        comm.reduce(GpuBuffers.from_arrays(arrays), root_index=1)
        np.testing.assert_allclose(arrays[1], 4.0)

    def test_mismatched_sizes_rejected(self):
        from repro.errors import MpiError

        world = make_world(2)
        comm = world.communicator()
        with pytest.raises(MpiError):
            comm.allreduce(GpuBuffers.from_arrays([
                np.zeros(25, dtype=np.float32), np.zeros(50, dtype=np.float32),
            ]))

    def test_wrong_buffer_count_rejected(self):
        from repro.errors import MpiError

        world = make_world(4)
        comm = world.communicator()
        with pytest.raises(MpiError):
            comm.allreduce(GpuBuffers.virtual(100, 1))

    def test_virtual_buffers_time_without_data(self):
        world = make_world(4)
        comm = world.communicator()
        timing = comm.allreduce(GpuBuffers.virtual(64 * MIB, 4))
        assert timing.time > 0

    def test_observer_called(self):
        world = make_world(4)
        comm = world.communicator()
        seen = []
        comm.add_observer(lambda timing, backend: seen.append((timing.op, backend)))
        comm.allreduce(GpuBuffers.virtual(1 * MIB, 4))
        comm.barrier()
        assert seen == [("allreduce", "mpi"), ("barrier", "mpi")]


class TestDatatypes:
    def test_from_numpy_roundtrip(self):
        import numpy as _np

        from repro.mpi.datatypes import Datatype

        for dt in Datatype:
            assert Datatype.from_numpy(dt.numpy_dtype) is dt
            assert dt.numpy_dtype.itemsize == dt.size

    def test_unsupported_dtype_rejected(self):
        import numpy as _np

        from repro.errors import MpiError
        from repro.mpi.datatypes import Datatype

        with pytest.raises(MpiError):
            Datatype.from_numpy(_np.dtype("complex64"))

    def test_reduce_empty_rejected(self):
        from repro.errors import MpiError

        with pytest.raises(MpiError):
            ReduceOp.SUM.reduce([])
