"""Tests for gather/scatter/alltoall and the Horovod step's Chrome-trace export."""

import json

import numpy as np
import pytest

from repro.errors import MpiError
from repro.hardware import LASSEN, Cluster
from repro.horovod import HorovodConfig, HorovodEngine, PendingTensor
from repro.horovod.engine import MessageRecord, StepTiming
from repro.mpi import Mv2Config, MpiWorld, WorldSpec
from repro.mpi.comm import GpuBuffers
from repro.mpi.process import SingletonDevicePolicy
from repro.profiling import horovod_trace_events, write_chrome_trace
from repro.sim import Environment
from repro.utils.units import KIB, MIB


def make_comm(num_gpus=4):
    nodes = max(1, (num_gpus + 3) // 4)
    cluster = Cluster(Environment(), LASSEN, num_nodes=nodes)
    spec = WorldSpec(
        num_ranks=num_gpus,
        policy=SingletonDevicePolicy(),
        config=Mv2Config(mv2_visible_devices="all", registration_cache=True),
    )
    return MpiWorld(cluster, spec).communicator()


class TestGatherScatter:
    def test_gather_collects_everything(self):
        comm = make_comm(4)
        arrays = [np.full(8, float(r), dtype=np.float32) for r in range(4)]
        gathered, timing = comm.gather(GpuBuffers.from_arrays(arrays))
        assert timing.time > 0
        assert len(gathered) == 4
        np.testing.assert_array_equal(gathered[3], 3.0)

    def test_scatter_distributes_blocks(self):
        comm = make_comm(4)
        arrays = [np.zeros(8, dtype=np.float32) for _ in range(4)]
        blocks = [np.full(8, float(r * 10), dtype=np.float32) for r in range(4)]
        timing = comm.scatter(blocks, GpuBuffers.from_arrays(arrays))
        assert timing.time > 0
        for r, a in enumerate(arrays):
            np.testing.assert_array_equal(a, float(r * 10))

    def test_scatter_block_count_validated(self):
        comm = make_comm(4)
        arrays = [np.zeros(4, dtype=np.float32) for _ in range(4)]
        with pytest.raises(MpiError):
            comm.scatter(
                [np.zeros(4, dtype=np.float32)],
                GpuBuffers.from_arrays(arrays),
            )

    def test_gather_single_rank_free(self):
        comm = make_comm(1)
        _, timing = comm.gather(GpuBuffers.virtual(1 * MIB, 1))
        assert timing.time == 0.0

    def test_alltoall_scales_with_world(self):
        small = make_comm(4).alltoall(64 * KIB)
        large = make_comm(8).alltoall(64 * KIB)
        assert 0 < small.time < large.time

    def test_multi_node_gather_never_faster_than_intra(self):
        # at 32 MiB the inter-node IB wire dominates the staged intra path
        intra = make_comm(4)
        inter = make_comm(8)
        _, t_intra = intra.gather(GpuBuffers.virtual(32 * MIB, 4))
        _, t_inter = inter.gather(GpuBuffers.virtual(32 * MIB, 8))
        assert t_inter.time >= t_intra.time
        assert t_intra.time > 0


class TestChromeTrace:
    def test_export_structure(self):
        timing = StepTiming(
            backward_time=0.02, comm_finish=0.021, coordination_time=0.0,
            messages=[
                MessageRecord(nbytes=32 * MIB, start=0.010, finish=0.015,
                              fused_count=3, algorithm="ring"),
                MessageRecord(nbytes=KIB, start=0.020, finish=0.021,
                              fused_count=1, algorithm="recursive-doubling"),
            ],
        )
        trace = [e.to_chrome() for e in horovod_trace_events(timing)]
        assert len(trace) == 2
        event = trace[0]
        assert event["ph"] == "X"
        assert event["name"] == "ring"
        assert event["cat"] == "horovod"
        assert event["ts"] == pytest.approx(10_000)  # us
        assert event["dur"] == pytest.approx(5_000)
        assert event["args"] == {"nbytes": 32 * MIB, "fused_count": 3}
        assert trace[1]["ts"] == pytest.approx(20_000)

    def test_save_and_reload(self, tmp_path):
        timing = StepTiming(
            backward_time=0.0, comm_finish=0.001, coordination_time=0.0,
            messages=[MessageRecord(nbytes=100, start=0.0, finish=0.001,
                                    fused_count=1, algorithm="ring")],
        )
        path = str(tmp_path / "trace.json")
        assert write_chrome_trace(path, horovod_trace_events(timing)) == 1
        with open(path) as fh:
            loaded = json.load(fh)
        assert loaded["traceEvents"][0]["name"] == "ring"
        assert loaded["traceEvents"][0]["args"]["nbytes"] == 100

    def test_trace_from_real_engine_run(self):
        comm = make_comm(4)
        engine = HorovodEngine(comm, HorovodConfig(cycle_time_s=1e-3))
        timing = engine.run_step([PendingTensor("g", 8 * MIB)])
        events = horovod_trace_events(timing)
        assert len(events) == len(timing.messages) == 1
        assert all(e.dur_us > 0 for e in events)
        assert events[0].ts_us == timing.messages[0].start * 1e6
        assert events[0].args["nbytes"] == 8 * MIB
