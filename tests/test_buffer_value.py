"""One buffer value per collective call.

A collective takes its buffers as one ``GpuBuffers``: a size, a dtype,
one registration id per rank in communicator order and, in functional
mode, one array per rank.  Its construction checks what every rank's
buffer must satisfy, a call checks that it holds one id per rank, and an
MPI world binds each rank to its id.  Horovod passes a fused message its
slot's id tuple, so a fused allreduce builds no per-rank object, while an
unfused message mints one fresh id per rank, in rank order, every step.
"""

from __future__ import annotations

import gc

import numpy as np
import pytest

from repro.comm import build_communicator
from repro.core import MPI_OPT
from repro.errors import CommError, MpiError, NcclError
from repro.hardware import LASSEN, Cluster
from repro.hardware.cluster import build_cluster
from repro.horovod import HorovodConfig, HorovodEngine
from repro.horovod.fusion import FusionMessage, PendingTensor
from repro.mpi import MpiWorld, WorldSpec
from repro.mpi import comm as comm_module
from repro.mpi.comm import GpuBuffers, fresh_ids
from repro.mpi.datatypes import Datatype
from repro.sim import Environment
from repro.utils.units import MIB


def _spec(num_ranks: int) -> WorldSpec:
    return WorldSpec(num_ranks=num_ranks, policy=MPI_OPT.policy, config=MPI_OPT.mv2)


class TestConstruction:
    def test_negative_size_rejected(self):
        with pytest.raises(MpiError):
            GpuBuffers(-1, [1, 2])

    def test_each_array_holds_nbytes(self):
        arrays = [np.zeros(4, dtype=np.float32), np.zeros(3, dtype=np.float32)]
        with pytest.raises(MpiError):
            GpuBuffers(16, [1, 2], datas=arrays)
        with pytest.raises(MpiError):
            GpuBuffers.from_arrays(arrays)

    def test_one_array_per_id(self):
        with pytest.raises(MpiError):
            GpuBuffers(8, [1, 2], datas=[np.zeros(2, dtype=np.float32)])

    def test_functional_and_virtual_buffers_do_not_mix(self):
        with pytest.raises(MpiError):
            GpuBuffers(8, [1, 2], datas=[np.zeros(2, dtype=np.float32), None])

    def test_from_arrays_reads_size_and_dtype(self):
        arrays = [np.zeros(6, dtype=np.float16) for _ in range(3)]
        buffers = GpuBuffers.from_arrays(arrays, name="w")
        assert (buffers.nbytes, buffers.dtype, buffers.name) == (
            12, Datatype.FLOAT16, "w"
        )
        assert buffers.datas == arrays and len(buffers.ids) == 3

    def test_ids_are_minted_in_order(self):
        first = GpuBuffers.virtual(8, 4)
        second = GpuBuffers.from_arrays([np.zeros(2, dtype=np.float32)] * 2)
        ids = first.ids + second.ids
        assert list(ids) == list(range(ids[0], ids[0] + 6))
        assert fresh_ids(1) == (ids[-1] + 1,)

    def test_given_ids_are_kept_in_order(self):
        assert GpuBuffers(8, [7, 3, 5]).ids == (7, 3, 5)


class TestCalls:
    @pytest.mark.parametrize("backend, error", [
        ("mpi", MpiError), ("nccl", NcclError), ("hierarchical", CommError),
    ])
    def test_a_wrong_id_count_raises_the_worlds_error(self, backend, error):
        cluster = build_cluster(LASSEN, 4)
        _, comm = build_communicator(
            cluster, backend,
            world_spec=_spec(4) if backend == "mpi" else None, num_ranks=4,
        )
        for count in (3, 5):
            with pytest.raises(error):
                comm.allreduce(GpuBuffers.virtual(MIB, count))
            with pytest.raises(error):
                comm.bcast(GpuBuffers.virtual(MIB, count))

    def test_mpi_binds_each_rank_to_its_id(self, monkeypatch):
        world = MpiWorld(Cluster(Environment(), LASSEN, num_nodes=2), _spec(8))
        comm = world.communicator().reform([6, 1, 4])
        bound = []
        timing = comm_module.allreduce_timing

        def recording(coster, ranks, nbytes, **kwargs):
            bound.append(kwargs["buffer_ids"])
            return timing(coster, ranks, nbytes, **kwargs)

        monkeypatch.setattr(comm_module, "allreduce_timing", recording)
        comm.allreduce(GpuBuffers(MIB, [30, 10, 40]))
        assert bound == [{6: 30, 1: 10, 4: 40}]


def _engine_4096() -> HorovodEngine:
    cluster = Cluster(Environment(), LASSEN.with_nodes(1024), num_nodes=1024)
    comm = MpiWorld(cluster, _spec(4096)).communicator()
    return HorovodEngine(comm, HorovodConfig(fusion_threshold=64 * MIB))


def _stream(sizes) -> list[PendingTensor]:
    return [PendingTensor(f"t{i}", n) for i, n in enumerate(sizes)]


class TestHorovodBuffers:
    def test_a_fused_allreduce_at_4096_ranks_builds_no_per_rank_object(
        self, monkeypatch
    ):
        engine = _engine_4096()
        passed = []
        price = engine.comm.world.price_allreduce

        def recording(comm, buffers, algorithm):
            passed.append(buffers)
            return price(comm, buffers, algorithm)

        monkeypatch.setattr(engine.comm.world, "price_allreduce", recording)
        for _ in range(2):
            timing = engine.run_step(_stream([4 * MIB, 4 * MIB]))
            assert [m.fused_count for m in timing.messages] == [2]
        slot_ids = engine._slot_buffers[0]
        assert len(slot_ids) == 4096
        # both steps pass the slot's one id tuple, and no arrays
        assert [(b.ids is slot_ids, b.datas, b.nbytes) for b in passed] == [
            (True, None, 8 * MIB)
        ] * 2

        # a wire size the slot has not carried yet
        message = FusionMessage(_stream([4 * MIB, 2 * MIB]), 0, 0)
        gc.collect()
        gc.disable()
        try:
            before = len(gc.get_objects())
            buffers = engine._buffers_for(message, None)
            built = len(gc.get_objects()) - before
        finally:
            gc.enable()
        assert buffers.ids is slot_ids
        assert built <= 1  # the value itself

    def test_unfused_messages_mint_fresh_ids_every_step(self, monkeypatch):
        world = MpiWorld(Cluster(Environment(), LASSEN, num_nodes=2), _spec(8))
        engine = HorovodEngine(world.communicator(), HorovodConfig(fusion_threshold=0))
        passed = []
        price = world.price_allreduce

        def recording(comm, buffers, algorithm):
            passed.append(buffers.ids)
            return price(comm, buffers, algorithm)

        monkeypatch.setattr(world, "price_allreduce", recording)
        for _ in range(2):
            engine.run_step(_stream([MIB]))
        first, second = passed
        assert list(first) == list(range(first[0], first[0] + 8))
        assert list(second) == list(range(first[-1] + 1, first[-1] + 9))
