"""Tests for the Horovod middleware: fusion, coordinator, engine, optimizer."""

import numpy as np
import pytest

from repro.errors import ConfigError, HorovodError
from repro.hardware import LASSEN, Cluster
from repro.horovod import (
    CoordinatorModel,
    DistributedOptimizer,
    HorovodConfig,
    HorovodEngine,
    PendingTensor,
    TensorFusion,
    broadcast_parameters,
)
from repro.horovod.coordinator import straggler_factor
from repro.horovod.optimizer import scale_learning_rate
from repro.mpi import Mv2Config, MpiWorld, WorldSpec
from repro.mpi.process import SingletonDevicePolicy
from repro.sim import Environment
from repro.utils.units import KIB, MIB


def make_comm(num_gpus=4, config=None):
    nodes = max(1, (num_gpus + 3) // 4)
    cluster = Cluster(Environment(), LASSEN, num_nodes=nodes)
    spec = WorldSpec(
        num_ranks=num_gpus,
        policy=SingletonDevicePolicy(),
        config=config or Mv2Config(mv2_visible_devices="all", registration_cache=True),
    )
    return MpiWorld(cluster, spec).communicator()


def virtual_stream(sizes, *, ready=None):
    ready = ready or [0.0] * len(sizes)
    return [
        PendingTensor(name=f"t{i}", nbytes=s, ready_time=r)
        for i, (s, r) in enumerate(zip(sizes, ready))
    ]


class TestFusionPlanning:
    def test_small_tensors_fuse_into_one_message(self):
        fusion = TensorFusion(HorovodConfig(fusion_threshold=64 * MIB))
        plan = fusion.plan(virtual_stream([1 * MIB] * 10))
        assert len(plan.messages) == 1
        assert plan.messages[0].nbytes == 10 * MIB
        assert plan.tensors_fused == 10

    def test_threshold_splits_groups(self):
        fusion = TensorFusion(HorovodConfig(fusion_threshold=4 * MIB))
        plan = fusion.plan(virtual_stream([3 * MIB, 3 * MIB, 3 * MIB]))
        assert [m.nbytes for m in plan.messages] == [3 * MIB, 3 * MIB, 3 * MIB]

    def test_oversize_tensor_sent_alone(self):
        fusion = TensorFusion(HorovodConfig(fusion_threshold=8 * MIB))
        plan = fusion.plan(virtual_stream([16 * MIB, 1 * MIB, 1 * MIB]))
        assert plan.messages[0].nbytes == 16 * MIB
        assert not plan.messages[0].fused
        assert plan.messages[1].nbytes == 2 * MIB

    def test_zero_threshold_disables_fusion(self):
        fusion = TensorFusion(HorovodConfig(fusion_threshold=0))
        plan = fusion.plan(virtual_stream([1 * MIB] * 5))
        assert len(plan.messages) == 5
        assert plan.tensors_unfused == 5

    def test_cycle_time_gates_late_tensors(self):
        cfg = HorovodConfig(fusion_threshold=64 * MIB, cycle_time_s=1e-3)
        fusion = TensorFusion(cfg)
        plan = fusion.plan(
            virtual_stream([1 * MIB, 1 * MIB], ready=[0.0, 5e-3])
        )
        # second tensor arrives 5 cycles later -> separate message
        assert len(plan.messages) == 2
        assert plan.messages[1].cycle_index > plan.messages[0].cycle_index

    def test_ready_together_fuse_despite_cycles(self):
        cfg = HorovodConfig(fusion_threshold=64 * MIB, cycle_time_s=1e-3)
        plan = TensorFusion(cfg).plan(
            virtual_stream([1 * MIB, 1 * MIB], ready=[0.4e-3, 0.6e-3])
        )
        assert len(plan.messages) == 1

    def test_empty_stream(self):
        plan = TensorFusion(HorovodConfig()).plan([])
        assert plan.messages == [] and plan.cycles_used == 0

    def test_pack_unpack_roundtrip(self):
        arrays = [
            [np.arange(4, dtype=np.float32) + r for r in range(2)],
            [np.ones((2, 2), dtype=np.float32) * r for r in range(2)],
        ]
        tensors = [
            PendingTensor("a", 16, data=arrays[0]),
            PendingTensor("b", 16, data=arrays[1]),
        ]
        plan = TensorFusion(HorovodConfig()).plan(tensors)
        message = plan.messages[0]
        packed = TensorFusion.pack(message, 2)
        assert packed[0].size == 8
        packed = [p * 10 for p in packed]
        TensorFusion.unpack(message, packed)
        np.testing.assert_allclose(arrays[0][0], (np.arange(4) + 0) * 10)
        np.testing.assert_allclose(arrays[1][1], 10.0)

    def test_paper_scale_edsr_message_distribution(self):
        """The EDSR gradient stream must produce Table I's bin structure:
        unfused small tensors plus fused 16-64 MB buffers."""
        from repro.models import get_model_cost

        from repro.horovod.env import TUNED_FOR_EDSR

        cost = get_model_cost("edsr-paper")
        backward = 0.25  # seconds, batch 4 (paper regime)
        tensors = [
            PendingTensor(t.name, t.nbytes, ready_time=t.ready_fraction * backward)
            for t in cost.gradient_schedule()
        ]
        plan = TensorFusion(TUNED_FOR_EDSR).plan(tensors)
        sizes = plan.message_sizes()
        assert sum(sizes) == cost.gradient_bytes
        large = [s for s in sizes if s >= 16 * MIB]
        assert len(large) >= 2, f"expected >=2 large fused buffers, got {sizes}"
        assert max(sizes) <= 64 * MIB


class TestCoordinator:
    def test_single_rank_free(self):
        assert CoordinatorModel().cycle_overhead(1, 100) == 0.0

    def test_overhead_grows_with_ranks_and_tensors(self):
        c = CoordinatorModel()
        assert c.cycle_overhead(512, 100) > c.cycle_overhead(4, 100)
        assert c.cycle_overhead(64, 300) > c.cycle_overhead(64, 10)

    def test_cached_cycle_is_a_ceil_log2_tree_round_trip(self):
        """A response-cache hit costs one bitmask allreduce: ceil(log2 p)
        hops each way.  Powers of two pin the ceiling, where
        floor(log2 p) + 1 would add a hop."""
        c = CoordinatorModel()
        depths = {1: 0, 2: 1, 3: 2, 4: 2, 8: 3, 512: 9}
        for ranks, depth in depths.items():
            assert c.cached_cycle_overhead(ranks) == 2 * depth * c.hop_latency_s

    def test_straggler_factor_monotone(self):
        assert straggler_factor(1) == 1.0
        assert 1.0 < straggler_factor(4) < straggler_factor(512) < 1.25

    def test_invalid_ranks_rejected(self):
        with pytest.raises(ConfigError):
            CoordinatorModel().cycle_overhead(0, 1)


class TestEngine:
    def test_functional_allreduce_averages(self):
        comm = make_comm(4)
        engine = HorovodEngine(comm)
        data = [[np.full(8, float(r), dtype=np.float32) for r in range(4)]]
        tensors = [PendingTensor("g", 32, data=data[0])]
        engine.run_step(tensors)
        for arr in data[0]:
            np.testing.assert_allclose(arr, 1.5)

    def test_messages_serialize_on_comm_stream(self):
        comm = make_comm(4)
        engine = HorovodEngine(comm, HorovodConfig(fusion_threshold=8 * MIB))
        timing = engine.run_step(virtual_stream([32 * MIB, 32 * MIB]))
        assert len(timing.messages) == 2
        first, second = timing.messages
        assert second.start >= first.finish

    def test_exposed_comm_shrinks_with_longer_backward(self):
        comm = make_comm(4)
        engine = HorovodEngine(comm)
        stream = virtual_stream([32 * MIB], ready=[0.0])
        fast = engine.run_step(stream, backward_time=0.001)
        slow = engine.run_step(stream, backward_time=1.0)
        assert slow.exposed_comm_time <= fast.exposed_comm_time

    def test_fusion_buffer_ids_stable_across_steps(self):
        """The registration-cache-friendliness mechanism: same slot id."""
        comm = make_comm(4)
        engine = HorovodEngine(comm)
        stream = virtual_stream([1 * MIB, 1 * MIB])  # fuses into slot 0
        engine.run_step(stream)
        ids_first = dict(engine._slot_buffers)
        engine.run_step(virtual_stream([1 * MIB, 1 * MIB]))
        assert dict(engine._slot_buffers) == ids_first

    def test_later_functional_steps_add_no_plan(self):
        """Unfused tensors get fresh buffers every step, and a fused slot
        keeps its ids: every later step binds to the first step's plans."""
        comm = make_comm(16)
        engine = HorovodEngine(comm, HorovodConfig(fusion_threshold=1 * KIB))
        schedules = comm.world.coster.schedules

        def step():
            engine.run_step([
                PendingTensor(name, 4 * n, data=[
                    np.full(n, float(r), dtype=np.float32) for r in range(16)
                ])
                for name, n in (("big", 512), ("a", 64), ("b", 64))
            ])

        step()
        built = dict(schedules.entries)
        assert built
        for _ in range(3):
            step()
        assert schedules.entries == built

    def test_timeline_records_messages(self):
        # the step's timeline is StepTiming.messages: one record per
        # submitted message, back to back on the one comm stream
        comm = make_comm(4)
        engine = HorovodEngine(comm)
        timing = engine.run_step(virtual_stream([1 * MIB, 1 * MIB]))
        assert len(timing.messages) == 1
        (message,) = timing.messages
        assert message.fused_count == 2
        assert message.nbytes == 2 * MIB
        assert message.duration > 0
        assert timing.total_comm_time == message.duration
        assert timing.comm_finish == message.finish

    def test_mismatched_rank_data_rejected(self):
        comm = make_comm(4)
        engine = HorovodEngine(comm)
        bad = PendingTensor("g", 8, data=[np.zeros(2, dtype=np.float32)] * 3)
        with pytest.raises(HorovodError):
            engine.run_step([bad])

    def test_coordination_time_positive_multirank(self):
        comm = make_comm(4)
        engine = HorovodEngine(comm)
        timing = engine.run_step(virtual_stream([1 * MIB]))
        assert timing.coordination_time > 0


class TestDistributedOptimizer:
    def _replicated_models(self, num_ranks, seed=0):
        from repro.models import EDSR, EDSR_TINY

        models = [
            EDSR(EDSR_TINY, rng=np.random.default_rng(100 + r))
            for r in range(num_ranks)
        ]
        return models

    def test_broadcast_synchronizes_replicas(self):
        comm = make_comm(4)
        engine = HorovodEngine(comm)
        models = self._replicated_models(4)
        broadcast_parameters(models, engine)
        ref = models[0].state_dict()
        for m in models[1:]:
            for name, value in m.state_dict().items():
                np.testing.assert_array_equal(value, ref[name])

    def test_replicas_stay_identical_through_training(self):
        """The core data-parallel invariant (paper §II-C): synchronized
        replicas remain bit-identical after each step."""
        from repro.models import EDSR, EDSR_TINY
        from repro.tensor import Tensor, functional as F
        from repro.tensor.optim import SGD

        comm = make_comm(2)
        engine = HorovodEngine(comm)
        models = self._replicated_models(2)
        broadcast_parameters(models, engine)
        opts = [SGD(m.parameters(), lr=0.01) for m in models]
        dist_opt = DistributedOptimizer(opts, models, engine)
        rng = np.random.default_rng(5)
        for step in range(3):
            dist_opt.zero_grad()
            for rank, model in enumerate(models):
                x = Tensor(rng.random((1, 3, 8, 8)).astype(np.float32))
                t = Tensor(rng.random((1, 3, 16, 16)).astype(np.float32))
                F.l1_loss(model(x), t).backward()
            dist_opt.step()
            ref = models[0].state_dict()
            for m in models[1:]:
                for name, value in m.state_dict().items():
                    np.testing.assert_array_equal(value, ref[name])

    def test_averaged_gradient_equals_large_batch(self):
        """Data-parallel equivalence: averaging per-rank gradients over
        shards equals the gradient of the combined batch."""
        from repro.models import EDSR, EDSR_TINY
        from repro.tensor import Tensor, functional as F

        rng = np.random.default_rng(9)
        x = rng.random((4, 3, 8, 8)).astype(np.float32)
        t = rng.random((4, 3, 16, 16)).astype(np.float32)

        # combined batch on one model
        single = EDSR(EDSR_TINY, rng=np.random.default_rng(1))
        F.mse_loss(single(Tensor(x)), Tensor(t)).backward()
        reference = {n: p.grad.copy() for n, p in single.named_parameters()}

        # two replicas, two shards, averaged through the engine
        comm = make_comm(2)
        engine = HorovodEngine(comm)
        models = [EDSR(EDSR_TINY, rng=np.random.default_rng(1)) for _ in range(2)]
        for rank, model in enumerate(models):
            xs = Tensor(x[rank * 2 : rank * 2 + 2])
            ts = Tensor(t[rank * 2 : rank * 2 + 2])
            F.mse_loss(model(xs), ts).backward()
        opts = [
            __import__("repro.tensor.optim", fromlist=["SGD"]).SGD(
                m.parameters(), lr=0.01
            )
            for m in models
        ]
        dist = DistributedOptimizer(opts, models, engine)
        stream = dist._gradient_stream(backward_time=0.0)
        engine.run_step(stream)
        averaged = {n: p.grad for n, p in models[0].named_parameters()}
        for name, ref_grad in reference.items():
            np.testing.assert_allclose(averaged[name], ref_grad, atol=1e-5)

    def test_lr_scaling_rule(self):
        assert scale_learning_rate(1e-4, 512) == pytest.approx(5.12e-2)

    def test_replica_count_mismatch_rejected(self):
        comm = make_comm(4)
        engine = HorovodEngine(comm)
        models = self._replicated_models(2)
        with pytest.raises(HorovodError):
            broadcast_parameters(models, engine)


class TestFusionBufferMemory:
    def test_allocation_charges_each_rank_hbm(self):
        comm = make_comm(4)
        engine = HorovodEngine(comm, HorovodConfig(fusion_threshold=64 * MIB))
        total = engine.allocate_fusion_buffers()
        assert total == 4 * 64 * MIB
        cluster = comm.world.cluster
        for g in range(4):
            pool = cluster.gpu_memory(cluster.gpu_ref(g))
            assert any(
                tag.startswith("fusion-buffer") for tag in pool.used_by_tag()
            )
        # idempotent
        assert engine.allocate_fusion_buffers() == 0

    def test_zero_threshold_is_noop(self):
        comm = make_comm(4)
        engine = HorovodEngine(comm, HorovodConfig(fusion_threshold=0))
        assert engine.allocate_fusion_buffers() == 0

    def test_nccl_backend_noop(self):
        from repro.hardware import Cluster as _Cluster
        from repro.nccl import NcclWorld
        from repro.sim import Environment as _Env

        cluster = _Cluster(_Env(), LASSEN, num_nodes=1)
        engine = HorovodEngine(NcclWorld(cluster, 4).communicator())
        assert engine.allocate_fusion_buffers() == 0


class TestResponseCache:
    def test_cache_reduces_coordination_on_repeat_steps(self):
        comm = make_comm(4)
        cached = HorovodEngine(
            comm, HorovodConfig(cycle_time_s=1e-3, response_cache=True)
        )
        stream = virtual_stream([1 * MIB, 1 * MIB])
        first = cached.run_step(stream)
        second = cached.run_step(stream)
        assert second.coordination_time < first.coordination_time
        assert cached.response_cache_hits >= 1
        assert cached.response_cache_misses >= 1

    def test_cache_disabled_by_default(self):
        comm = make_comm(4)
        engine = HorovodEngine(comm, HorovodConfig(cycle_time_s=1e-3))
        stream = virtual_stream([1 * MIB])
        a = engine.run_step(stream)
        b = engine.run_step(stream)
        assert a.coordination_time == pytest.approx(b.coordination_time)
        assert engine.response_cache_hits == 0

    def test_new_signature_misses(self):
        comm = make_comm(4)
        engine = HorovodEngine(
            comm, HorovodConfig(cycle_time_s=1e-3, response_cache=True)
        )
        engine.run_step(virtual_stream([1 * MIB]))
        engine.run_step(
            [PendingTensor("different", 1 * MIB)]
        )
        assert engine.response_cache_misses == 2
