"""Elastic recovery subsystem: checkpoint/restart, watchdog, accounting.

Covers the guarantees the resilience layer makes:

* checkpoints round-trip model *and* optimizer/LR-schedule state
  bit-exactly (old model-only files still load);
* the manager's writes are atomic and checksummed — corruption and torn
  writes are detected and fall back to the previous valid snapshot;
* watchdog detection latency is a pure, deterministic function of the
  failure time and heartbeat config;
* a restart that loses zero steps is numerically identical to
  shrink-and-continue (the end-to-end proof that optimizer state
  round-trips — stale Adam moments would diverge);
* a mid-training rank failure no longer kills the run: the trainer and
  the ScalingStudy both complete, itemizing checkpoint overhead,
  detection latency, lost work, and recovery time — identically across
  reruns and across serial vs ``jobs=N`` parallel sweeps.
"""

import os

import numpy as np
import pytest

from repro.core.scenarios import scenario_by_name
from repro.core.study import ScalingStudy, StudyConfig
from repro.data import DegradationConfig, SRDataset, SyntheticDiv2k
from repro.errors import CheckpointError
from repro.faults import FaultInjector, FaultPlan, RankFailure, StragglerFault
from repro.hardware import LASSEN, Cluster
from repro.horovod import HorovodConfig, HorovodEngine
from repro.models import EDSR, EDSR_TINY
from repro.mpi import MpiWorld, Mv2Config, WorldSpec
from repro.mpi.process import SingletonDevicePolicy
from repro.resilience import (
    CheckpointManager,
    CheckpointPolicy,
    HeartbeatConfig,
    RecoveryAccounting,
    RecoveryPolicy,
    SHRINK_CONTINUE,
)
from repro.sim import Environment
from repro.tensor import Tensor
from repro.tensor.nn.layers import Linear
from repro.tensor.optim.adam import Adam
from repro.tensor.optim.lr_scheduler import StepLR
from repro.tensor.optim.sgd import SGD
from repro.trainer import DistributedTrainer, load_checkpoint, save_checkpoint


def tiny_model(seed=0):
    return Linear(4, 3, rng=np.random.default_rng(seed))


def take_steps(model, optimizer, n, seed=100):
    """Run n real optimization steps; returns the loss trajectory."""
    rng = np.random.default_rng(seed)
    losses = []
    for _ in range(n):
        x = Tensor(rng.normal(size=(2, 4)).astype(np.float32))
        y = Tensor(rng.normal(size=(2, 3)).astype(np.float32))
        optimizer.zero_grad()
        out = model(x)
        loss = ((out - y) * (out - y)).sum()
        loss.backward()
        optimizer.step()
        losses.append(loss.item())
    return losses


def make_trainer(plan, recovery, *, ranks=4, checkpoints=None, seed_base=50):
    cluster = Cluster(Environment(), LASSEN, num_nodes=max(1, (ranks + 3) // 4))
    config = Mv2Config(mv2_visible_devices="all", registration_cache=True)
    spec = WorldSpec(num_ranks=ranks, policy=SingletonDevicePolicy(),
                     config=config)
    injector = FaultInjector(plan) if plan is not None else None
    world = MpiWorld(cluster, spec, faults=injector)
    engine = HorovodEngine(world.communicator(),
                           HorovodConfig(cycle_time_s=2e-3))
    dataset = SRDataset(SyntheticDiv2k(height=24, width=24, seed=7),
                        split="train",
                        degradation=DegradationConfig(scale=2))
    trainer = DistributedTrainer(
        lambda rank: EDSR(EDSR_TINY, rng=np.random.default_rng(seed_base + rank)),
        engine,
        dataset,
        batch_per_rank=1,
        lr_patch=8,
        faults=injector,
        recovery=recovery,
        checkpoints=checkpoints,
    )
    return trainer, injector


FREE_CKPT = CheckpointPolicy(interval_steps=1, base_latency_s=0.0,
                             write_bandwidth=1e30, read_bandwidth=1e30)


class TestCheckpointRoundTrip:
    def test_optimizer_state_resumes_exact_trajectory(self, tmp_path):
        """Adam moments survive the npz round-trip: resumed == uninterrupted."""
        model = tiny_model()
        opt = Adam(model.parameters(), lr=1e-2)
        take_steps(model, opt, 5)
        path = str(tmp_path / "ckpt.npz")
        save_checkpoint(model, path, step=5, optimizer=opt)
        reference = take_steps(model, opt, 5, seed=200)

        resumed = tiny_model(seed=1)
        opt2 = Adam(resumed.parameters(), lr=99.0)  # wrong lr, overwritten
        assert load_checkpoint(resumed, path, optimizer=opt2) == 5
        assert take_steps(resumed, opt2, 5, seed=200) == reference

    def test_fresh_optimizer_diverges_without_state(self, tmp_path):
        """Counter-test: dropping optimizer state visibly changes training."""
        model = tiny_model()
        opt = Adam(model.parameters(), lr=1e-2)
        take_steps(model, opt, 5)
        path = str(tmp_path / "ckpt.npz")
        save_checkpoint(model, path, step=5, optimizer=opt)
        reference = take_steps(model, opt, 5, seed=200)

        resumed = tiny_model(seed=1)
        load_checkpoint(resumed, path)  # model only
        fresh_opt = Adam(resumed.parameters(), lr=1e-2)
        assert take_steps(resumed, fresh_opt, 5, seed=200) != reference

    def test_sgd_velocity_and_scheduler_round_trip(self, tmp_path):
        model = tiny_model()
        opt = SGD(model.parameters(), lr=0.1, momentum=0.9)
        sched = StepLR(opt, step_size=2, gamma=0.5)
        take_steps(model, opt, 3)
        sched.step()
        sched.step()
        sched.step()
        path = str(tmp_path / "ckpt.npz")
        save_checkpoint(model, path, step=3, optimizer=opt, scheduler=sched)

        resumed = tiny_model(seed=1)
        opt2 = SGD(resumed.parameters(), lr=0.1, momentum=0.9)
        sched2 = StepLR(opt2, step_size=2, gamma=0.5)
        load_checkpoint(resumed, path, optimizer=opt2, scheduler=sched2)
        assert sched2.epoch == 3
        assert opt2.lr == opt.lr
        assert take_steps(resumed, opt2, 3, seed=300) == \
            take_steps(model, opt, 3, seed=300)

    def test_old_model_only_files_still_load(self, tmp_path):
        """Backward compat: pre-resilience checkpoints restore the model and
        leave a supplied optimizer untouched."""
        model = tiny_model()
        state = {k: v for k, v in model.state_dict().items()}
        state["__step__"] = np.asarray(7)
        path = str(tmp_path / "old.npz")
        np.savez(path, **state)

        resumed = tiny_model(seed=1)
        opt = Adam(resumed.parameters(), lr=0.123)
        assert load_checkpoint(resumed, path, optimizer=opt) == 7
        assert opt.lr == 0.123
        for name, value in model.state_dict().items():
            np.testing.assert_array_equal(resumed.state_dict()[name], value)


class TestCheckpointManager:
    def _save(self, manager, steps):
        model = tiny_model()
        opt = Adam(model.parameters(), lr=1e-2)
        take_steps(model, opt, max(steps, 1))
        return manager.save(model, steps_completed=steps, optimizer=opt)

    def test_rotation_keeps_newest(self, tmp_path):
        manager = CheckpointManager(str(tmp_path),
                                    CheckpointPolicy(keep_last=2))
        for s in (0, 5, 10, 15):
            self._save(manager, s)
        assert [s for s, _ in manager.available()] == [10, 15]
        assert manager.saves == 4

    def test_write_cost_charged(self, tmp_path):
        manager = CheckpointManager(
            str(tmp_path),
            CheckpointPolicy(base_latency_s=0.5, write_bandwidth=1e6),
        )
        path, cost = self._save(manager, 0)
        assert cost == pytest.approx(0.5 + os.path.getsize(path) / 1e6)

    def test_corruption_falls_back_to_previous_valid(self, tmp_path):
        manager = CheckpointManager(str(tmp_path), CheckpointPolicy(keep_last=3))
        self._save(manager, 5)
        newest, _ = self._save(manager, 10)
        with open(newest, "r+b") as fh:  # flip bytes in the newest file
            fh.seek(10)
            fh.write(b"\xde\xad\xbe\xef")
        assert not manager.verify(newest)
        steps, path = manager.latest_valid()
        assert steps == 5
        assert manager.corrupt_detected == 1
        model = tiny_model(seed=2)
        assert load_checkpoint(model, path) == 5

    def test_torn_write_detected(self, tmp_path):
        """A truncated npz (simulated crash mid-write) fails verification."""
        manager = CheckpointManager(str(tmp_path), CheckpointPolicy(keep_last=3))
        self._save(manager, 5)
        newest, _ = self._save(manager, 10)
        data = open(newest, "rb").read()
        with open(newest, "wb") as fh:
            fh.write(data[: len(data) // 2])
        assert manager.latest_valid()[0] == 5

    def test_restore_raises_when_nothing_valid(self, tmp_path):
        manager = CheckpointManager(str(tmp_path))
        with pytest.raises(CheckpointError):
            manager.restore(tiny_model())

    def test_missing_sidecar_is_invalid(self, tmp_path):
        manager = CheckpointManager(str(tmp_path))
        path, _ = self._save(manager, 5)
        os.unlink(path + ".sha256")
        assert manager.latest_valid() is None


class TestWatchdog:
    def test_detection_latency_is_pure_and_deterministic(self):
        config = HeartbeatConfig(interval_s=0.1, timeout_s=0.25, probes=3,
                                 probe_timeout_s=0.05, backoff_factor=2.0)
        # probe ladder: 0.05 + 0.10 + 0.20 = 0.35
        assert config.probe_time() == pytest.approx(0.35)
        # failure at 1.23: last beat 1.2, declared 1.2 + 0.25 + 0.35
        assert config.declared_at(1.23) == pytest.approx(1.80)
        assert config.detection_latency(1.23) == pytest.approx(0.57)
        for t in (0.0, 0.05, 7.77, 123.4):
            assert config.declared_at(t) == config.declared_at(t)
            assert config.declared_at(t) >= t

    def test_backoff_grows_latency(self):
        fast = HeartbeatConfig(probes=1)
        slow = HeartbeatConfig(probes=5)
        assert slow.detection_latency(1.0) > fast.detection_latency(1.0)

    def test_supervisor_declares_once(self):
        plan = FaultPlan(seed=1, faults=[RankFailure(rank=2, time=1.0)])
        from repro.resilience import HeartbeatSupervisor

        sup = HeartbeatSupervisor(range(4), FaultInjector(plan))
        assert sup.poll(0.5) == []
        first = sup.poll(2.0)
        assert [d.rank for d in first] == [2]
        assert sup.poll(3.0) == []  # no re-declaration
        assert sup.active == [0, 1, 3]


class TestTrainerRecovery:
    def test_failure_mid_training_completes_with_itemized_costs(self):
        plan = FaultPlan(seed=11, faults=[RankFailure(rank=3, time=3.0)])
        policy = RecoveryPolicy(restart=True,
                                checkpoint=CheckpointPolicy(interval_steps=4))
        trainer, injector = make_trainer(plan, policy)
        result = trainer.train(12)
        assert result.steps == 12
        assert result.world_sizes[0] == 4 and result.world_sizes[-1] == 3
        assert trainer.replicas_in_sync()
        acct = result.resilience
        assert acct.detections == 1 and acct.restarts == 1
        assert acct.checkpoint_saves >= 3
        assert acct.checkpoint_s > 0 and acct.recovery_s > 0
        assert acct.time_to_solution_s == pytest.approx(
            acct.productive_s + acct.overhead_s)
        assert 0 < acct.goodput < 1
        assert injector.trace.count("rank-dead") == 1
        assert injector.trace.count("restart") == 1

    def test_recovery_is_deterministic(self):
        def run():
            plan = FaultPlan(seed=11, faults=[RankFailure(rank=3, time=3.0)])
            policy = RecoveryPolicy(
                restart=True, checkpoint=CheckpointPolicy(interval_steps=4))
            trainer, injector = make_trainer(plan, policy)
            result = trainer.train(12)
            return result, injector.trace.digest()

        r1, t1 = run()
        r2, t2 = run()
        assert r1.losses == r2.losses
        assert r1.simulated_step_times == r2.simulated_step_times
        assert r1.resilience.to_payload() == r2.resilience.to_payload()
        assert t1 == t2

    def test_zero_lost_work_restart_equals_shrink_continue(self):
        """Checkpoint-every-step restart replays nothing, so it must match
        shrink-and-continue bit for bit — the end-to-end proof that model
        *and* optimizer state round-trip through the checkpoint."""
        def run(policy):
            plan = FaultPlan(seed=5, faults=[RankFailure(rank=2, time=2.0)])
            trainer, _ = make_trainer(plan, policy)
            return trainer.train(10)

        restart = run(RecoveryPolicy(restart=True, restart_overhead_s=0.0,
                                     checkpoint=FREE_CKPT))
        shrink = run(SHRINK_CONTINUE)
        assert restart.resilience.lost_steps == 0
        assert restart.losses == shrink.losses
        assert restart.world_sizes == shrink.world_sizes
        assert shrink.resilience.restarts == 0
        assert shrink.resilience.lost_work_s == 0.0

    def test_restart_replays_lost_steps(self):
        """With sparse checkpoints the rewind re-runs steps on the shrunk
        world and books their time as lost work."""
        plan = FaultPlan(seed=11, faults=[RankFailure(rank=3, time=3.0)])
        policy = RecoveryPolicy(restart=True,
                                checkpoint=CheckpointPolicy(interval_steps=50))
        trainer, _ = make_trainer(plan, policy)
        result = trainer.train(12)
        acct = result.resilience
        assert result.steps == 12
        assert acct.lost_steps > 0 and acct.lost_work_s > 0
        # everything after the (only) step-0 checkpoint replays on 3 ranks
        assert result.world_sizes == [3] * 12

    def test_regrow_restores_world_size(self):
        plan = FaultPlan(seed=9,
                         faults=[RankFailure(rank=1, time=2.0, down_s=4.0)])
        policy = RecoveryPolicy(restart=True, regrow=True,
                                checkpoint=CheckpointPolicy(interval_steps=3))
        trainer, injector = make_trainer(plan, policy)
        result = trainer.train(16)
        assert result.resilience.regrown_ranks == [1]
        assert min(result.world_sizes) == 3
        assert result.world_sizes[-1] == 4
        assert trainer.replicas_in_sync()
        assert injector.trace.count("rank-regrown") == 1

    def test_blacklist_evicts_chronic_straggler(self):
        plan = FaultPlan(seed=3,
                         faults=[StragglerFault(rank=0, factor=3.0, start=0.0)])
        policy = RecoveryPolicy(restart=False, blacklist_after=3)
        trainer, injector = make_trainer(plan, policy)
        result = trainer.train(10)
        assert result.resilience.blacklisted_ranks == [0]
        assert result.world_sizes[-1] == 3
        assert injector.trace.count("rank-blacklisted") == 1
        # eviction cures the slowdown: later steps are faster
        assert result.simulated_step_times[-1] < result.simulated_step_times[0]

    def test_shrink_rebuilds_allreduce_schedule_memo(self):
        """The memoized collective schedules are dropped on every ring
        change, so no plan keyed against the old world can be replayed."""
        plan = FaultPlan(seed=11, faults=[RankFailure(rank=3, time=3.0)])
        trainer, _ = make_trainer(plan, SHRINK_CONTINUE)
        trainer.train(2)
        schedules = trainer.engine.comm.world.coster.schedules
        assert len(schedules) > 0
        trainer.engine.shrink_to([0, 1, 2])
        assert trainer.engine.comm.world.coster.schedules is schedules
        assert len(schedules) == 0

    def test_regrow_resets_topk_residuals(self):
        """A re-admitted rank's top-k error-feedback residuals start from
        zero: stale feedback from the rank's previous life would inject
        gradient mass from a replica that no longer exists.  Survivors
        keep their accumulated residuals across the ring reform."""
        from repro.compression import CompressionConfig
        from repro.horovod.optimizer import DistributedOptimizer

        cluster = Cluster(Environment(), LASSEN, num_nodes=1)
        spec = WorldSpec(num_ranks=4, policy=SingletonDevicePolicy(),
                         config=Mv2Config(mv2_visible_devices="all"))
        world = MpiWorld(cluster, spec)
        engine = HorovodEngine(
            world.communicator(), HorovodConfig(cycle_time_s=2e-3),
            compression=CompressionConfig.parse("topk:0.25"),
        )
        models = [tiny_model(seed=r) for r in range(4)]
        opts = [SGD(m.parameters(), lr=0.1) for m in models]
        dist = DistributedOptimizer(opts, models, engine)

        def run_one_step():
            rng = np.random.default_rng(13)
            for m in dist.models:
                for p in m.parameters():
                    p.grad = rng.normal(size=p.data.shape).astype(np.float32)
            dist.step()

        run_one_step()
        assert any(key[0] == 1 for key in engine._topk_residuals)
        survivor_keys = {k for k in engine._topk_residuals if k[0] == 0}
        poison = {
            k: v.copy() + 123.0
            for k, v in engine._topk_residuals.items() if k[0] == 1
        }

        dist.drop_rank(1)
        assert not any(key[0] == 1 for key in engine._topk_residuals)
        # survivors keep their accumulated feedback across the reform
        assert survivor_keys <= set(engine._topk_residuals)

        # simulate stale state sneaking back in before the re-admit
        engine._topk_residuals.update(poison)
        fresh = tiny_model(seed=9)
        dist.add_rank(1, fresh, SGD(fresh.parameters(), lr=0.1))
        assert not any(key[0] == 1 for key in engine._topk_residuals)

        run_one_step()
        for key, stale in poison.items():
            assert not np.array_equal(engine._topk_residuals[key], stale)


class TestStudyRecovery:
    SCEN = "MPI-Opt"

    def _study(self, recovery, seed=21):
        plan = FaultPlan(seed=seed, faults=[RankFailure(rank=3, time=2.0)])
        return ScalingStudy(
            scenario_by_name(self.SCEN),
            StudyConfig(warmup_steps=1, measure_steps=6),
            fault_plan=plan,
            recovery=recovery,
        )

    def test_faulty_point_completes_and_reports(self):
        policy = RecoveryPolicy(restart=True,
                                checkpoint=CheckpointPolicy(interval_steps=2))
        point = self._study(policy).run_point(8)
        r = point.resilience
        assert r["detections"] == 1 and r["restarts"] == 1
        assert r["final_world_size"] == 7
        assert r["world_sizes"][0] == 8 and r["world_sizes"][-1] == 7
        acct = RecoveryAccounting.from_payload(r)
        assert acct.time_to_solution_s == pytest.approx(
            acct.productive_s + acct.overhead_s)
        assert point.images_per_second > 0

    def test_point_determinism_and_parallel_jobs_identity(self, tmp_path):
        from repro.perf.cache import ResultCache

        policy = RecoveryPolicy(restart=True,
                                checkpoint=CheckpointPolicy(interval_steps=2))
        serial = self._study(policy).run([4, 8])
        cache = ResultCache(str(tmp_path))
        parallel = self._study(policy).run([4, 8], jobs=2, cache=cache)
        assert [p.resilience for p in parallel] == \
            [p.resilience for p in serial]
        assert [p.images_per_second for p in parallel] == \
            [p.images_per_second for p in serial]
        # warm-cache rerun returns the identical report
        cached = self._study(policy).run([4, 8], jobs=2, cache=cache)
        assert [p.resilience for p in cached] == \
            [p.resilience for p in serial]
        assert cache.stats()["hits"] >= 2

    def test_digest_covers_plan_and_policy(self):
        clean = ScalingStudy(scenario_by_name(self.SCEN),
                             StudyConfig(warmup_steps=1, measure_steps=6))
        restart = self._study(RecoveryPolicy(restart=True))
        shrink = self._study(SHRINK_CONTINUE)
        other_seed = ScalingStudy(
            scenario_by_name(self.SCEN),
            StudyConfig(warmup_steps=1, measure_steps=6),
            fault_plan=FaultPlan(seed=99,
                                 faults=[RankFailure(rank=3, time=2.0)]),
            recovery=RecoveryPolicy(restart=True),
        )
        digests = {s.point_digest(8)
                   for s in (clean, restart, shrink, other_seed)}
        assert len(digests) == 4

    def test_shrink_continue_beats_restart_on_goodput_here(self):
        """Sanity on the cost model: with nothing to replay, restart still
        pays checkpoint + read-back + respawn, so shrink wins goodput."""
        restart = self._study(
            RecoveryPolicy(restart=True,
                           checkpoint=CheckpointPolicy(interval_steps=2)))
        shrink = self._study(SHRINK_CONTINUE)
        g_restart = restart.run_point(8).resilience["goodput"]
        g_shrink = shrink.run_point(8).resilience["goodput"]
        assert g_shrink > g_restart

    def test_clean_study_unchanged(self):
        point = ScalingStudy(
            scenario_by_name(self.SCEN),
            StudyConfig(warmup_steps=1, measure_steps=6),
        ).run_point(8)
        assert point.resilience is None


class TestSingleSlotCheckpoints:
    """keep_last=1 has no older snapshot to fall back to: a torn write of
    the only slot must surface a typed error, never a silent restart from
    garbage."""

    def _save(self, manager, steps):
        model = tiny_model()
        opt = Adam(model.parameters(), lr=1e-2)
        take_steps(model, opt, max(steps, 1))
        return manager.save(model, steps_completed=steps, optimizer=opt)

    def test_torn_write_of_only_slot_raises_typed_error(self, tmp_path):
        manager = CheckpointManager(str(tmp_path),
                                    CheckpointPolicy(keep_last=1))
        self._save(manager, 5)
        newest, _ = self._save(manager, 10)  # rotation evicted step 5
        assert [s for s, _ in manager.available()] == [10]
        data = open(newest, "rb").read()
        with open(newest, "wb") as fh:  # crash mid-write
            fh.write(data[: len(data) // 2])
        assert manager.latest_valid() is None
        with pytest.raises(CheckpointError):
            manager.restore(tiny_model(seed=2))

    def test_intact_single_slot_still_restores(self, tmp_path):
        manager = CheckpointManager(str(tmp_path),
                                    CheckpointPolicy(keep_last=1))
        self._save(manager, 5)
        self._save(manager, 10)
        steps, _ = manager.latest_valid()
        assert steps == 10


class TestCorrelatedRecovery:
    """Whole-node failures through the elastic trainer: atomic domain
    detection, and a regrow that resets error-feedback state for every
    rank the node took down."""

    def make_node_trainer(self, plan, policy):
        from repro.compression import CompressionConfig
        from repro.faults import NodeFailure, Topology  # noqa: F401

        topology = Topology(num_nodes=2)  # 8 ranks, 4 per node
        cluster = Cluster(Environment(), LASSEN, num_nodes=2)
        spec = WorldSpec(num_ranks=8, policy=SingletonDevicePolicy(),
                         config=Mv2Config(mv2_visible_devices="all",
                                          registration_cache=True))
        injector = FaultInjector(plan, topology=topology)
        world = MpiWorld(cluster, spec, faults=injector)
        engine = HorovodEngine(
            world.communicator(), HorovodConfig(cycle_time_s=2e-3),
            compression=CompressionConfig.parse("topk:0.25"),
        )
        dataset = SRDataset(SyntheticDiv2k(height=24, width=24, seed=7),
                            split="train",
                            degradation=DegradationConfig(scale=2))
        trainer = DistributedTrainer(
            lambda rank: EDSR(EDSR_TINY, rng=np.random.default_rng(50 + rank)),
            engine,
            dataset,
            batch_per_rank=1,
            lr_patch=8,
            faults=injector,
            recovery=policy,
        )
        return trainer, injector, engine

    def test_node_failure_declared_in_one_detection_window(self):
        from repro.faults import NodeFailure

        plan = FaultPlan(seed=9, faults=[NodeFailure(node=1, time=2.0)])
        trainer, injector, _ = self.make_node_trainer(plan, SHRINK_CONTINUE)
        result = trainer.train(10)
        assert result.world_sizes[0] == 8 and result.world_sizes[-1] == 4
        # the whole domain is declared atomically: one stall, one
        # domain-dead event — not four staggered watchdog windows
        assert result.resilience.detections == 1
        assert injector.trace.count("domain-dead") == 1
        assert injector.trace.count("rank-dead") == 4

    def test_supervisor_groups_domain_members(self):
        from repro.faults import NodeFailure, Topology
        from repro.resilience import HeartbeatSupervisor

        plan = FaultPlan(faults=[NodeFailure(node=1, time=1.0)])
        inj = FaultInjector(plan, topology=Topology(num_nodes=2))
        sup = HeartbeatSupervisor(range(8), inj)
        (group,) = sup.poll_domains(2.0)
        assert group.domain == "node:1"
        assert group.ranks == (4, 5, 6, 7)
        assert group.fail_time == 1.0
        assert sup.poll_domains(3.0) == []  # no re-declaration
        assert sup.active == [0, 1, 2, 3]

    def test_node_regrow_resets_residuals_for_every_recovered_rank(self):
        from repro.faults import NodeFailure

        plan = FaultPlan(seed=9,
                         faults=[NodeFailure(node=1, time=2.0, down_s=4.0)])
        policy = RecoveryPolicy(restart=True, regrow=True,
                                checkpoint=CheckpointPolicy(interval_steps=3))
        trainer, injector, engine = self.make_node_trainer(plan, policy)
        cleared = []
        original = engine.drop_compression_state

        def spy(rank):
            cleared.append(rank)
            return original(rank)

        engine.drop_compression_state = spy
        result = trainer.train(16)
        assert result.resilience.regrown_ranks == [4, 5, 6, 7]
        assert min(result.world_sizes) == 4
        assert result.world_sizes[-1] == 8
        assert injector.trace.count("rank-regrown") == 4
        # every lost rank had its top-k residuals dropped twice: once when
        # the node died, once on re-admission (stale feedback never leaks)
        for rank in (4, 5, 6, 7):
            assert cleared.count(rank) >= 2
        assert trainer.replicas_in_sync()
