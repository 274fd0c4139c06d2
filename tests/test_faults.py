"""Chaos suite for the deterministic fault-injection subsystem.

Exercises every injector point: compute stragglers/jitter, link
degradation and flapping, message drop/delay with retry + backoff,
and rank failure absorbed by the recovery ladder — plus the two core
guarantees (zero-fault identity, seed-reproducibility).
"""

import json

import numpy as np
import pytest

from repro.core import MPI_OPT, ScalingStudy, StudyConfig
from repro.data import DegradationConfig, SRDataset, SyntheticDiv2k
from repro.errors import (
    ConfigError,
    DeadlockError,
    FaultPlanError,
    MpiTimeoutError,
    RankFailedError,
)
from repro.faults import (
    CorruptionFault,
    FaultInjector,
    FaultPlan,
    JitterFault,
    LinkFault,
    MessageFault,
    NodeFailure,
    PartitionFault,
    RankFailure,
    RetryPolicy,
    StragglerFault,
    SwitchFailure,
    Topology,
    lower_domain_faults,
    window_active,
)
from repro.hardware import LASSEN, Cluster
from repro.horovod import HorovodConfig, HorovodEngine
from repro.models import EDSR, EDSR_TINY
from repro.mpi import MpiWorld, Mv2Config, WorldSpec, build_world
from repro.mpi.collectives.allreduce import allreduce_timing
from repro.mpi.p2p import P2PFabric
from repro.mpi.process import SingletonDevicePolicy
from repro.mpi.transports import TransportModel
from repro.sim import Environment
from repro.sim.fastpath import walk_oracle
from repro.trainer import DistributedTrainer
from repro.utils.seeding import derive_seed
from repro.utils.units import KIB, MIB


def make_fabric(plan=None, *, retry=None, num_nodes=1, topology=None):
    """P2P fabric with an optional fault plan wired into the transport."""
    env = Environment()
    cluster = Cluster(env, LASSEN, num_nodes=num_nodes)
    config = Mv2Config(mv2_visible_devices="all", registration_cache=True)
    spec = WorldSpec(num_ranks=cluster.num_gpus, policy=SingletonDevicePolicy(),
                     config=config)
    ranks = build_world(cluster, spec)
    injector = (
        FaultInjector(plan, topology=topology) if plan is not None else None
    )
    transport = TransportModel(cluster, config, ranks, faults=injector,
                               retry=retry)
    return env, P2PFabric(transport), injector


def make_trainer(plan, *, ranks=4):
    """Small distributed EDSR trainer with an optional fault plan (no
    recovery policy: the survivors shrink and continue)."""
    cluster = Cluster(Environment(), LASSEN, num_nodes=max(1, (ranks + 3) // 4))
    config = Mv2Config(mv2_visible_devices="all", registration_cache=True)
    spec = WorldSpec(num_ranks=ranks, policy=SingletonDevicePolicy(),
                     config=config)
    injector = FaultInjector(plan) if plan is not None else None
    world = MpiWorld(cluster, spec, faults=injector)
    engine = HorovodEngine(world.communicator(), HorovodConfig(cycle_time_s=2e-3))
    dataset = SRDataset(SyntheticDiv2k(height=24, width=24, seed=7),
                        split="train", degradation=DegradationConfig(scale=2))
    trainer = DistributedTrainer(
        lambda rank: EDSR(EDSR_TINY, rng=np.random.default_rng(50 + rank)),
        engine,
        dataset,
        batch_per_rank=1,
        lr_patch=8,
        faults=injector,
    )
    return trainer, injector


class TestFaultPlan:
    def test_rejects_speedup_straggler(self):
        with pytest.raises(FaultPlanError):
            StragglerFault(rank=0, factor=0.5)

    def test_rejects_out_of_range_drop_prob(self):
        with pytest.raises(FaultPlanError):
            MessageFault(drop_prob=1.5)

    def test_rejects_link_fault_that_degrades_nothing(self):
        with pytest.raises(FaultPlanError):
            LinkFault(kind="ib")

    def test_rejects_message_fault_that_does_nothing(self):
        with pytest.raises(FaultPlanError):
            MessageFault(src=0, dst=1)

    def test_json_roundtrip_preserves_plan(self):
        plan = FaultPlan(
            seed=7,
            faults=(
                StragglerFault(rank=1, factor=2.0, start=0.1, duration=1.0),
                JitterFault(sigma=0.1),
                LinkFault(kind="ib", bandwidth_factor=0.25, flap_period_s=0.5),
                MessageFault(src=0, dst=3, drop_prob=0.5, delay_s=1e-4),
                RankFailure(rank=2, time=3.0),
            ),
        )
        restored = FaultPlan.from_json(plan.to_json())
        assert restored == plan
        # canonical encoding: a re-dump is byte-identical
        assert restored.to_json() == plan.to_json()
        assert json.loads(plan.to_json())["seed"] == 7

    def test_of_type_and_failures(self):
        plan = FaultPlan(faults=(RankFailure(rank=3, time=1.0),
                                 StragglerFault(rank=0, factor=1.5)))
        assert len(plan.of_type(StragglerFault)) == 1
        assert [f.rank for f in plan.failures] == [3]


class TestComputeFaults:
    def test_straggler_window_on_off(self):
        plan = FaultPlan(faults=(
            StragglerFault(rank=2, factor=1.5, start=1.0, duration=2.0),))
        inj = FaultInjector(plan)
        assert inj.compute_factor(2, 0.5) == 1.0   # before the window
        assert inj.compute_factor(2, 1.5) == 1.5   # inside
        assert inj.compute_factor(2, 3.5) == 1.0   # recovered
        assert inj.compute_factor(0, 1.5) == 1.0   # other ranks untouched
        kinds = [e.kind for e in inj.trace]
        assert "straggler-on" in kinds and "straggler-off" in kinds

    def test_jitter_monotone_in_sigma(self):
        """For a fixed seed the jitter draw is shared, so step slowdown is
        monotone in sigma — the chaos knob scales, it doesn't reshuffle."""
        factors = []
        for sigma in (0.0, 0.05, 0.2, 0.8):
            inj = FaultInjector(
                FaultPlan(seed=13, faults=(JitterFault(sigma=sigma),)))
            factors.append(inj.compute_factor(1, 0.0, step=3))
        assert factors == sorted(factors)
        assert factors[0] == 1.0

    def test_straggler_slows_training_steps(self):
        base, _ = make_trainer(FaultPlan(seed=1))
        slow, _ = make_trainer(FaultPlan(seed=1, faults=(
            StragglerFault(rank=0, factor=2.0),)))
        t_base = base.train(steps=2).simulated_step_times
        t_slow = slow.train(steps=2).simulated_step_times
        assert all(s > b for s, b in zip(t_slow, t_base))


class TestLinkFaults:
    def test_degraded_link_slows_transfers(self):
        plan = FaultPlan(faults=(
            LinkFault(kind="ib", bandwidth_factor=0.5, latency_add_s=1e-5),))
        cluster = Cluster(Environment(), LASSEN, num_nodes=2)
        cluster.apply_fault_injector(FaultInjector(plan))
        healthy = Cluster(Environment(), LASSEN, num_nodes=2)
        a, b = cluster.gpu_ref(0), cluster.gpu_ref(4)  # cross-node: uses IB
        ha, hb = healthy.gpu_ref(0), healthy.gpu_ref(4)
        nbytes = 8 * 2**20
        assert cluster.path_cost(a, b, nbytes) > healthy.path_cost(ha, hb, nbytes)

    def test_flapping_alternates_half_periods(self):
        plan = FaultPlan(faults=(
            LinkFault(kind="ib", bandwidth_factor=0.5, flap_period_s=1.0),))
        inj = FaultInjector(plan)
        degraded, _ = inj.link_state("ib", 0.25)   # first half: down
        healthy, _ = inj.link_state("ib", 0.75)    # second half: restored
        degraded2, _ = inj.link_state("ib", 1.25)  # next cycle: down again
        assert degraded == degraded2 == 0.5
        assert healthy == 1.0
        kinds = [e.kind for e in inj.trace]
        assert "link-degraded" in kinds and "link-restored" in kinds

    def test_unmatched_kind_untouched(self):
        plan = FaultPlan(faults=(LinkFault(kind="ib", bandwidth_factor=0.1),))
        inj = FaultInjector(plan)
        assert inj.link_state("nvlink", 0.0) == (1.0, 0.0)


class TestMessageFaults:
    def test_lossy_link_retries_until_delivered(self):
        """Moderate loss: the retry/backoff loop converges and the message
        lands — chaos degrades timing, not correctness."""
        plan = FaultPlan(seed=3, faults=(
            MessageFault(src=0, dst=1, drop_prob=0.6),))
        env, fabric, inj = make_fabric(
            plan, retry=RetryPolicy(max_retries=20))
        payload = np.arange(32, dtype=np.float32)
        out = np.zeros(32, dtype=np.float32)
        fabric.isend(0, 1, data=payload)
        fabric.irecv(1, source=0, out=out)
        env.run()
        np.testing.assert_array_equal(out, payload)
        assert inj.trace.count("msg-retry") >= 1
        assert inj.trace.count("msg-timeout") == 0

    def test_total_loss_raises_timeout_not_deadlock(self):
        """A dead path must surface a typed error within the retry budget —
        never hang the simulation."""
        plan = FaultPlan(seed=3, faults=(
            MessageFault(src=0, dst=1, drop_prob=1.0),))
        retry = RetryPolicy(max_retries=3, ack_timeout_s=1e-4,
                            base_backoff_s=1e-4)
        env, fabric, inj = make_fabric(plan, retry=retry)
        fabric.isend(0, 1, nbytes=256)
        fabric.irecv(1, source=0, nbytes=256)
        with pytest.raises(MpiTimeoutError):
            env.run()
        assert inj.trace.count("msg-retry") == retry.max_retries
        assert inj.trace.count("msg-timeout") == 1
        # all retries were spent before giving up
        budget = sum(retry.ack_timeout_s + retry.backoff(k)
                     for k in range(1, retry.max_retries + 1))
        assert env.now >= budget

    def test_delay_adds_wire_time(self):
        delay = 0.05
        plan = FaultPlan(faults=(MessageFault(delay_s=delay),))
        env, fabric, _ = make_fabric(plan)
        base_env, base_fabric, _ = make_fabric(None)
        for e, f in ((env, fabric), (base_env, base_fabric)):
            f.isend(0, 1, nbytes=1024)
            f.irecv(1, source=0, nbytes=1024)
            e.run()
        assert env.now >= base_env.now + delay

    def test_backoff_grows_exponentially(self):
        policy = RetryPolicy(base_backoff_s=1e-4, backoff_factor=2.0)
        waits = [policy.backoff(k) for k in (1, 2, 3)]
        assert waits == [1e-4, 2e-4, 4e-4]


class TestRankFailure:
    def test_shrink_policy_continues_on_survivors(self):
        plan = FaultPlan(faults=(RankFailure(rank=1, time=0.5),))
        trainer, inj = make_trainer(plan)
        result = trainer.train(steps=4)
        assert result.steps == 4
        assert result.world_sizes[0] == 4
        assert result.world_sizes[-1] == 3
        assert trainer.active_ranks == [0, 2, 3]
        assert trainer.replicas_in_sync()
        assert inj.trace.count("rank-dead") == 1

    def test_all_ranks_dead_raises(self):
        """Both recovery-ladder jobs refuse to shrink to an empty world,
        with the same typed error."""
        plan = FaultPlan(seed=4, faults=tuple(
            RankFailure(rank=r, time=0.0) for r in range(4)))
        trainer, _ = make_trainer(plan)
        with pytest.raises(RankFailedError, match="all 4 ranks failed"):
            trainer.train(steps=2)
        study = ScalingStudy(MPI_OPT, StudyConfig(measure_steps=2),
                             fault_plan=plan)
        with pytest.raises(RankFailedError, match="all 4 ranks failed"):
            study.run_point(4)


class TestZeroFaultIdentity:
    def test_empty_plan_is_arithmetic_identity(self):
        inj = FaultInjector(FaultPlan(seed=42))
        assert inj.compute_factor(0, 1.0) == 1.0
        assert inj.link_state("ib", 1.0) == (1.0, 0.0)
        verdict = inj.message_verdict(0, 1, 1.0)
        assert not verdict.drop and verdict.delay_s == 0.0
        assert len(inj.trace) == 0

    def test_empty_plan_reproduces_baseline_exactly(self):
        baseline, _ = make_trainer(None)
        zero, _ = make_trainer(FaultPlan(seed=42))
        r_base = baseline.train(steps=2)
        r_zero = zero.train(steps=2)
        assert r_zero.simulated_step_times == r_base.simulated_step_times
        assert r_zero.losses == r_base.losses

    @pytest.mark.parametrize("fast", [False, True], ids=["exact", "fast"])
    @pytest.mark.parametrize("config", [
        Mv2Config(registration_cache=True, mv2_visible_devices="all"),
        Mv2Config(gdr_enabled=False),
    ], ids=["mpi-opt", "gdr-off"])
    def test_empty_plan_is_identity_across_nodes(self, config, fast):
        """8 ranks on 2 nodes: inter-node routes of 6 to 8 hops, where a
        compensated latency sum and a left-to-right fold can disagree."""
        def timings(faults):
            cluster = Cluster(Environment(), LASSEN, num_nodes=2)
            spec = WorldSpec(num_ranks=8, policy=SingletonDevicePolicy(),
                             config=config)
            with walk_oracle(not fast):
                world = MpiWorld(cluster, spec, faults=faults)
            return [
                allreduce_timing(
                    world.coster, list(range(8)), nbytes, algorithm=algorithm
                ).time.hex()
                for algorithm in ("ring", "recursive_doubling",
                                  "reduce_scatter_allgather", "hierarchical")
                for nbytes in (4 * KIB, 1 * MIB, 64 * MIB + 12)
            ]

        assert timings(FaultInjector(FaultPlan(seed=42))) == timings(None)


class TestDeterminism:
    def test_same_seed_same_run(self):
        """Identical seed + plan: byte-identical trace, identical timing."""
        plan = FaultPlan(seed=9, faults=(
            StragglerFault(rank=1, factor=1.7, duration=1.0),
            JitterFault(sigma=0.1),
            LinkFault(kind="ib", bandwidth_factor=0.5, flap_period_s=0.7),
            RankFailure(rank=3, time=1.0),
        ))
        results = []
        for _ in range(2):
            trainer, inj = make_trainer(plan)
            result = trainer.train(steps=4)
            results.append((result.simulated_step_times,
                            result.simulated_images_per_second,
                            result.world_sizes,
                            inj.trace.digest()))
        assert results[0] == results[1]

    def test_different_seed_different_drops(self):
        def drops(seed):
            inj = FaultInjector(FaultPlan(seed=seed, faults=(
                MessageFault(drop_prob=0.5),)))
            return [inj.message_verdict(0, 1, 0.0).drop for _ in range(32)]

        assert drops(1) == drops(1)
        assert drops(1) != drops(2)


class TestRegcacheFaultChurn:
    """Registration-cache behaviour under fault-induced invalidation: a
    poisoned (stale) registration must never be reused as a hit."""

    def make_cache(self, max_entries=4):
        from repro.net.regcache import RegistrationCache

        cache = RegistrationCache(max_entries=max_entries)
        cache.begin_transaction()
        return cache

    def test_poisoned_entry_not_reused(self):
        cache = self.make_cache()
        cache.acquire(1, 4096)
        cache.begin_transaction()
        assert cache.acquire(1, 4096) == 0.0  # warm: a genuine hit
        assert cache.hits == 1
        cache.poison(1)
        cache.begin_transaction()
        cost = cache.acquire(1, 4096)
        # stale entry: teardown + fresh registration, counted as a miss
        assert cost == pytest.approx(
            cache.cost.deregister_time(4096) + cache.cost.register_time(4096))
        assert cache.hits == 1 and cache.misses == 2
        assert cache.stats()["invalidations"] == 1
        # once re-registered the entry is healthy again
        cache.begin_transaction()
        assert cache.acquire(1, 4096) == 0.0

    def test_poison_uncached_buffer_is_noop(self):
        cache = self.make_cache()
        cache.poison(99)
        assert cache.stats()["invalidations"] == 0

    def test_invalidate_discards_poison(self):
        cache = self.make_cache()
        cache.acquire(1, 4096)
        cache.poison(1)
        assert cache.invalidate(1) > 0.0
        cache.begin_transaction()
        # fresh registration only — no stale-teardown double charge
        assert cache.acquire(1, 4096) == pytest.approx(
            cache.cost.register_time(4096))

    def test_eviction_churn_clears_poison(self):
        """A poisoned entry evicted by LRU churn must not resurrect as
        stale state when its buffer id is registered again."""
        cache = self.make_cache(max_entries=2)
        cache.acquire(1, 4096)
        cache.poison(1)
        for buffer_id in (2, 3, 4):  # churn rank 1 out of the LRU
            cache.begin_transaction()
            cache.acquire(buffer_id, 4096)
        assert cache.evictions >= 1
        cache.begin_transaction()
        cost = cache.acquire(1, 4096)
        # registration plus the LRU eviction it forces — but no stale-entry
        # teardown: the poison died with the eviction
        assert cost == pytest.approx(
            cache.cost.register_time(4096) + cache.cost.deregister_time(4096))
        cache.begin_transaction()
        assert cache.acquire(1, 4096) == 0.0  # and it hits again

    def test_invalidate_all_flushes_everything(self):
        cache = self.make_cache()
        for buffer_id in (1, 2, 3):
            cache.acquire(buffer_id, 8192)
        time = cache.invalidate_all()
        assert time == pytest.approx(3 * cache.cost.deregister_time(8192))
        assert cache.stats()["entries"] == 0
        assert cache.stats()["invalidations"] == 3
        cache.begin_transaction()
        assert cache.acquire(1, 8192) > 0.0  # cold again

    def test_transport_flush_records_fault_event(self):
        plan = FaultPlan(faults=(LinkFault(kind="ib", bandwidth_factor=0.9),))
        cluster = Cluster(Environment(), LASSEN, num_nodes=2)
        config = Mv2Config(mv2_visible_devices="all", registration_cache=True)
        spec = WorldSpec(num_ranks=cluster.num_gpus,
                         policy=SingletonDevicePolicy(), config=config)
        ranks = build_world(cluster, spec)
        inj = FaultInjector(plan)
        transport = TransportModel(cluster, config, ranks, faults=inj)
        assert transport.drop_registrations() >= 0.0
        assert inj.trace.count("regcache-flush") == 1


class TestDeadlockRegression:
    def test_fault_stranded_recv_raises_deadlock(self):
        """A recv waiting on a rank that died before sending must surface
        DeadlockError from Environment.run(), not hang."""
        inj = FaultInjector(FaultPlan(faults=(RankFailure(rank=0, time=0.0),)))
        env, fabric, _ = make_fabric(None)

        def survivor(env):
            yield fabric.irecv(1, source=0, nbytes=256)

        env.process(survivor(env))
        if 0 not in inj.failed_ranks(env.now):  # dead rank never sends
            fabric.isend(0, 1, nbytes=256)
        with pytest.raises(DeadlockError):
            env.run()


class TestWindowSemantics:
    """The half-open [start, start+duration) contract every fault window
    shares — an off-by-one here double-fires back-to-back windows."""

    def test_start_inclusive_end_exclusive(self):
        assert not window_active(1.0, 2.0, 0.999)
        assert window_active(1.0, 2.0, 1.0)      # active AT the start
        assert window_active(1.0, 2.0, 2.999)
        assert not window_active(1.0, 2.0, 3.0)  # inactive AT the end

    def test_back_to_back_windows_tile_without_overlap(self):
        for t in (0.0, 0.5, 1.0, 1.5, 2.0, 2.5):
            first = window_active(0.0, 1.0, t)
            second = window_active(1.0, 1.0, t)
            assert not (first and second)
            assert (first or second) == (t < 2.0)

    def test_none_duration_is_permanent(self):
        assert window_active(0.5, None, 0.5)
        assert window_active(0.5, None, 1e9)
        assert not window_active(0.5, None, 0.25)

    def test_zero_duration_rejected_at_spec_construction(self):
        # a [t, t) window is empty and can never fire: plan validation
        # rejects it instead of silently shipping a no-op fault
        with pytest.raises(FaultPlanError, match="duration"):
            StragglerFault(rank=0, factor=2.0, start=1.0, duration=0.0)
        with pytest.raises(FaultPlanError, match="duration"):
            CorruptionFault(target="wire", prob=0.5, duration=0.0)


class TestRetryPolicyValidation:
    def test_rejects_nonpositive_ack_timeout(self):
        with pytest.raises(ConfigError, match="ack_timeout_s"):
            RetryPolicy(ack_timeout_s=0.0)

    def test_rejects_negative_backoff_and_shrinking_factor(self):
        with pytest.raises(ConfigError, match="base_backoff_s"):
            RetryPolicy(base_backoff_s=-1e-6)
        with pytest.raises(ConfigError, match="backoff_factor"):
            RetryPolicy(backoff_factor=0.5)

    def test_rejects_negative_retry_budget(self):
        with pytest.raises(ConfigError, match="max_retries"):
            RetryPolicy(max_retries=-1)

    def test_ladder_time_sums_timeouts_and_backoffs(self):
        policy = RetryPolicy(max_retries=3, ack_timeout_s=1e-4,
                             base_backoff_s=1e-4, backoff_factor=2.0)
        # 3 * ack + (1 + 2 + 4) * base
        assert policy.ladder_time() == pytest.approx(3e-4 + 7e-4)
        assert RetryPolicy(max_retries=0).ladder_time() == 0.0

    def test_zero_retries_fails_fast_on_first_loss(self):
        plan = FaultPlan(seed=3, faults=(
            MessageFault(src=0, dst=1, drop_prob=1.0),))
        env, fabric, inj = make_fabric(plan, retry=RetryPolicy(max_retries=0))
        fabric.isend(0, 1, nbytes=256)
        fabric.irecv(1, source=0, nbytes=256)
        with pytest.raises(MpiTimeoutError):
            env.run()
        assert inj.trace.count("msg-retry") == 0  # no retransmission at all


class TestDomainFaultSpecs:
    def test_rejects_negative_addresses(self):
        with pytest.raises(FaultPlanError):
            NodeFailure(node=-1)
        with pytest.raises(FaultPlanError):
            SwitchFailure(switch=-2)
        with pytest.raises(FaultPlanError):
            PartitionFault(nodes=(1, -3))

    def test_partition_must_not_sever_the_coordinator(self):
        with pytest.raises(FaultPlanError, match="coordinator"):
            PartitionFault(nodes=(0, 1))
        with pytest.raises(FaultPlanError, match="duplicate"):
            PartitionFault(nodes=(1, 1))
        with pytest.raises(FaultPlanError, match="at least one"):
            PartitionFault(nodes=())

    def test_corruption_target_and_prob_validated(self):
        with pytest.raises(FaultPlanError, match="target"):
            CorruptionFault(target="ram", prob=0.5)
        with pytest.raises(FaultPlanError, match="prob"):
            CorruptionFault(target="wire", prob=0.0)
        with pytest.raises(FaultPlanError, match="prob"):
            CorruptionFault(target="wire", prob=1.5)

    def test_domain_specs_round_trip_json(self):
        plan = FaultPlan(
            seed=13,
            faults=(
                NodeFailure(node=2, time=1.5, down_s=4.0),
                SwitchFailure(switch=1, time=2.0),
                PartitionFault(nodes=(2, 3), start=1.0, duration=6.0),
                CorruptionFault(target="checkpoint", prob=0.25),
            ),
        )
        restored = FaultPlan.from_json(plan.to_json())
        assert restored == plan
        assert restored.to_json() == plan.to_json()


class TestTopology:
    TOPO = Topology(num_nodes=4, gpus_per_node=4, nodes_per_switch=2)

    def test_addressing(self):
        topo = self.TOPO
        assert topo.num_ranks == 16 and topo.num_switches == 2
        assert topo.node_of_rank(5) == 1
        assert topo.switch_of_rank(5) == 0
        assert topo.switch_of_rank(9) == 1
        assert topo.ranks_of_node(2) == (8, 9, 10, 11)
        assert topo.nodes_behind_switch(1) == (2, 3)
        assert topo.ranks_behind_switch(1) == tuple(range(8, 16))

    def test_ragged_last_switch(self):
        topo = Topology(num_nodes=3, nodes_per_switch=2)
        assert topo.num_switches == 2
        assert topo.nodes_behind_switch(1) == (2,)

    def test_from_spec_matches_cluster_shape(self):
        topo = Topology.from_spec(LASSEN, num_nodes=4)
        assert topo.gpus_per_node == LASSEN.node.gpus_per_node
        assert topo.nodes_per_switch == LASSEN.nodes_per_switch

    def test_node_failure_lowers_to_whole_node(self):
        plan = FaultPlan(faults=(NodeFailure(node=1, time=2.0, down_s=3.0),))
        lowered = lower_domain_faults(plan, self.TOPO)
        assert [e.rank for e in lowered] == [4, 5, 6, 7]
        assert all(e.domain == "node:1" for e in lowered)
        assert all(e.time == 2.0 and e.down_s == 3.0 for e in lowered)

    def test_switch_failure_lowers_to_every_node_behind_it(self):
        plan = FaultPlan(faults=(SwitchFailure(switch=1, time=1.0),))
        lowered = lower_domain_faults(plan, self.TOPO)
        assert [e.rank for e in lowered] == list(range(8, 16))
        assert all(e.domain == "switch:1" for e in lowered)

    def test_partition_lowers_the_island_only(self):
        plan = FaultPlan(faults=(
            PartitionFault(nodes=(3,), start=1.0, duration=5.0),))
        lowered = lower_domain_faults(plan, self.TOPO)
        assert [e.rank for e in lowered] == [12, 13, 14, 15]
        assert all(e.domain == "partition:0" for e in lowered)
        assert all(e.down_s == 5.0 for e in lowered)  # heals with the window

    def test_earliest_failure_wins_overlapping_claims(self):
        # rank 4 is claimed by its node (t=2.0) and an independent failure
        # (t=1.0): survivors observe the earlier one
        plan = FaultPlan(faults=(
            NodeFailure(node=1, time=2.0),
            RankFailure(rank=4, time=1.0),
        ))
        lowered = {e.rank: e for e in lower_domain_faults(plan, self.TOPO)}
        assert lowered[4].time == 1.0 and lowered[4].domain == ""
        assert lowered[5].time == 2.0 and lowered[5].domain == "node:1"

    def test_out_of_range_domains_rejected(self):
        with pytest.raises(FaultPlanError, match="outside"):
            lower_domain_faults(
                FaultPlan(faults=(NodeFailure(node=9),)), self.TOPO)
        with pytest.raises(FaultPlanError, match="outside"):
            lower_domain_faults(
                FaultPlan(faults=(SwitchFailure(switch=2),)), self.TOPO)
        with pytest.raises(FaultPlanError, match="outside"):
            lower_domain_faults(
                FaultPlan(faults=(PartitionFault(nodes=(7,)),)), self.TOPO)

    def test_switch_carrying_every_node_rejected(self):
        topo = Topology(num_nodes=2, nodes_per_switch=2)
        with pytest.raises(FaultPlanError, match="surviving side"):
            lower_domain_faults(
                FaultPlan(faults=(SwitchFailure(switch=0),)), topo)

    def test_injector_requires_topology_for_domain_faults(self):
        plan = FaultPlan(faults=(NodeFailure(node=0),))
        with pytest.raises(FaultPlanError, match="topology"):
            FaultInjector(plan)
        inj = FaultInjector(plan, topology=self.TOPO)
        assert inj.failed_ranks(1.0) == {0, 1, 2, 3}
        assert inj.domain_of(2) == "node:0"


class TestSeveredPaths:
    TOPO = Topology(num_nodes=4, gpus_per_node=4, nodes_per_switch=2)

    def test_partition_severs_only_the_cut(self):
        plan = FaultPlan(faults=(
            PartitionFault(nodes=(2, 3), start=1.0, duration=4.0),))
        inj = FaultInjector(plan, topology=self.TOPO)
        assert not inj.path_severed(0, 8, 0.5)   # before the window
        assert inj.path_severed(0, 8, 2.0)       # across the cut
        assert inj.path_severed(8, 0, 2.0)       # symmetric
        assert not inj.path_severed(8, 12, 2.0)  # island-internal fabric
        assert not inj.path_severed(0, 4, 2.0)   # surviving side untouched
        assert not inj.path_severed(0, 8, 5.0)   # healed

    def test_switch_outage_severs_inter_node_paths_behind_it(self):
        plan = FaultPlan(faults=(SwitchFailure(switch=1, time=1.0),))
        inj = FaultInjector(plan, topology=self.TOPO)
        assert inj.path_severed(0, 8, 2.0)       # into the dead switch
        assert inj.path_severed(8, 12, 2.0)      # node 2 <-> node 3 via TOR
        assert not inj.path_severed(8, 9, 2.0)   # same node rides NVLink
        assert not inj.path_severed(0, 4, 2.0)   # healthy switch

    def test_severed_message_exhausts_ladder_with_typed_error(self):
        plan = FaultPlan(seed=1, faults=(
            PartitionFault(nodes=(1,), start=0.0, duration=None),))
        topo = Topology(num_nodes=2, gpus_per_node=4, nodes_per_switch=1)
        retry = RetryPolicy(max_retries=2, ack_timeout_s=1e-4,
                            base_backoff_s=1e-4)
        env, fabric, inj = make_fabric(
            plan, retry=retry, num_nodes=2, topology=topo)
        fabric.isend(0, 4, nbytes=256)  # crosses the cut
        fabric.irecv(4, source=0, nbytes=256)
        with pytest.raises(MpiTimeoutError, match="severed"):
            env.run()
        assert inj.trace.count("msg-severed") >= 1
        assert inj.trace.count("msg-timeout") == 1

    def test_severed_verdict_does_not_consume_drop_stream(self):
        """Topology verdicts are deterministic: consulting a severed path
        must not advance the seeded probabilistic drop sequence."""
        plan = FaultPlan(seed=7, faults=(
            PartitionFault(nodes=(1,), start=0.0, duration=None),
            MessageFault(src=0, dst=1, drop_prob=0.5),
        ))
        topo = Topology(num_nodes=2, gpus_per_node=4, nodes_per_switch=1)
        inj = FaultInjector(plan, topology=topo)
        baseline = FaultInjector(
            FaultPlan(seed=7, faults=(MessageFault(src=0, dst=1,
                                                   drop_prob=0.5),)))
        for _ in range(8):
            inj.message_verdict(0, 4, 1.0)  # severed: no roll consumed
        rolls = [inj.message_verdict(0, 1, 1.0).drop for _ in range(16)]
        expected = [baseline.message_verdict(0, 1, 1.0).drop
                    for _ in range(16)]
        assert rolls == expected


def reference_roll(seed: int, *key) -> float:
    """A verdict stream's draw as a numpy generator makes it."""
    return float(np.random.default_rng(derive_seed(seed, *key)).random())


class TestVerdictStreams:
    """Every seeded verdict stream against a reference built from numpy:
    ``default_rng(derive_seed(plan.seed, stream, ...)).random() < prob``,
    with the stream's own sequence accounting."""

    #: interleaved pairs, two of them sharing a sender with another
    PAIRS = ((0, 1), (1, 0), (0, 4), (2, 6), (4, 0), (0, 1), (6, 2), (0, 2))

    def test_corruption_stream(self):
        faults = (
            CorruptionFault(target="wire", prob=1.0, start=1.0, duration=1.0),
            CorruptionFault(target="wire", prob=0.5),
        )
        inj = FaultInjector(FaultPlan(seed=11, faults=faults))
        seq = 0

        def expected(src, dst, t):
            nonlocal seq
            for f in faults:
                if not window_active(f.start, f.duration, t):
                    continue
                u = reference_roll(11, "corrupt", src, dst, seq)
                seq += 1
                if u < f.prob:
                    return True
            return False

        verdicts = []
        for t in (0.0, 0.999, 1.0, 1.5, 2.0, 3.0):  # both window edges
            for src, dst in self.PAIRS:
                for _ in range(3):  # retransmit while corrupt
                    want = expected(src, dst, t)
                    assert inj.corruption_verdict(src, dst, t) is want, (
                        src, dst, t,
                    )
                    verdicts.append(want)
                    if not want:
                        break
        assert any(verdicts) and not all(verdicts)
        assert inj.trace.count("wire-corrupt") == sum(verdicts)

    def test_drop_stream_skips_severed_pairs(self):
        topo = Topology(num_nodes=2, gpus_per_node=4, nodes_per_switch=1)
        messages = (
            MessageFault(drop_prob=0.5, start=1.0, duration=1.0),
            MessageFault(src=0, dst=1, drop_prob=1.0, start=1.5),
            MessageFault(dst=4, drop_prob=0.5, delay_s=1e-6),
        )
        cut = PartitionFault(nodes=(1,), start=2.0, duration=1.0)
        inj = FaultInjector(
            FaultPlan(seed=17, faults=messages + (cut,)), topology=topo
        )
        seq = 0

        def expected(src, dst, t):
            nonlocal seq
            crosses = topo.node_of_rank(src) != topo.node_of_rank(dst)
            if crosses and window_active(cut.start, cut.duration, t):
                return None  # severed: no roll consumed
            drop = False
            for f in messages:
                if f.src not in (None, src) or f.dst not in (None, dst):
                    continue
                if not window_active(f.start, f.duration, t):
                    continue
                if f.drop_prob > 0 and not drop:
                    u = reference_roll(17, "drop", src, dst, seq)
                    seq += 1
                    drop = u < f.drop_prob
            return drop

        verdicts = []
        for t in (0.5, 1.0, 1.5, 1.999, 2.0, 2.5, 3.0):
            for src, dst in self.PAIRS:
                for _ in range(3):  # retransmit while dropped
                    want = expected(src, dst, t)
                    got = inj.message_verdict(src, dst, t)
                    assert got.severed is (want is None), (src, dst, t)
                    assert got.drop is (want is not False), (src, dst, t)
                    verdicts.append(want)
                    if not got.drop:
                        break
        assert {None, True, False} <= set(verdicts)

    def test_checkpoint_stream(self):
        faults = (
            CorruptionFault(target="checkpoint", prob=0.5, start=1.0,
                            duration=2.0),
            CorruptionFault(target="checkpoint", prob=0.25),
        )
        inj = FaultInjector(FaultPlan(seed=13, faults=faults))
        verdicts = []
        for t in (0.5, 1.0, 2.999, 3.0):
            for save_index in (*range(12), 5, 0):
                u = reference_roll(13, "ckpt-corrupt", save_index)
                want = any(
                    u < f.prob
                    for f in faults
                    if window_active(f.start, f.duration, t)
                )
                assert inj.checkpoint_corrupt(save_index, t) is want, (
                    save_index, t,
                )
                verdicts.append(want)
        assert any(verdicts) and not all(verdicts)

    def test_verdicts_build_no_numpy_generator(self, monkeypatch):
        def forbidden(*args, **kwargs):
            raise AssertionError("a verdict built a numpy Generator")

        inj = FaultInjector(FaultPlan(seed=1, faults=(
            CorruptionFault(target="wire", prob=0.5),
            CorruptionFault(target="checkpoint", prob=0.5),
            MessageFault(drop_prob=0.5),
        )))
        monkeypatch.setattr(np.random, "default_rng", forbidden)
        for seq in range(8):
            inj.corruption_verdict(0, 1, 0.0)
            inj.message_verdict(0, 1, 0.0)
            inj.checkpoint_corrupt(seq, 0.0)


class TestWireCorruption:
    def test_corrupt_message_detected_retransmitted_and_paired(self):
        plan = FaultPlan(seed=2, faults=(
            CorruptionFault(target="wire", prob=1.0, start=0.0,
                            duration=1e-3),))
        env, fabric, inj = make_fabric(plan, retry=RetryPolicy(max_retries=8))
        payload = np.arange(64, dtype=np.float32)
        out = np.zeros(64, dtype=np.float32)
        fabric.isend(0, 1, data=payload)
        fabric.irecv(1, source=0, out=out)
        env.run()
        np.testing.assert_array_equal(out, payload)  # delivered intact
        assert inj.trace.count("wire-corrupt") >= 1
        # the chaos invariant: every corruption caught by a CRC check
        assert inj.trace.count("wire-corrupt") == inj.trace.count("crc-detected")

    def test_unbounded_corruption_exhausts_retry_budget(self):
        plan = FaultPlan(seed=2, faults=(
            CorruptionFault(target="wire", prob=1.0),))
        env, fabric, inj = make_fabric(plan, retry=RetryPolicy(
            max_retries=3, ack_timeout_s=1e-4, base_backoff_s=1e-4))
        fabric.isend(0, 1, nbytes=256)
        fabric.irecv(1, source=0, nbytes=256)
        with pytest.raises(MpiTimeoutError):
            env.run()
        assert inj.trace.count("wire-corrupt") == 4  # initial + 3 retries

    def test_corruption_rolls_are_seeded(self):
        def verdicts(seed):
            inj = FaultInjector(FaultPlan(seed=seed, faults=(
                CorruptionFault(target="wire", prob=0.5),)))
            return [inj.corruption_verdict(0, 1, 0.0) for _ in range(32)]

        assert verdicts(5) == verdicts(5)
        assert verdicts(5) != verdicts(6)

    def test_wire_corruption_active_tracks_windows(self):
        inj = FaultInjector(FaultPlan(faults=(
            CorruptionFault(target="wire", prob=0.1, start=1.0,
                            duration=2.0),)))
        assert not inj.wire_corruption_active(0.5)
        assert inj.wire_corruption_active(1.0)
        assert not inj.wire_corruption_active(3.0)  # end-exclusive

    def test_checkpoint_corruption_keyed_by_save_index(self):
        inj = FaultInjector(FaultPlan(seed=4, faults=(
            CorruptionFault(target="checkpoint", prob=0.5),)))
        first = [inj.checkpoint_corrupt(i, 0.0) for i in range(16)]
        again = [inj.checkpoint_corrupt(i, 0.0) for i in range(16)]
        assert first == again  # pure in save_index, not call order
        assert any(first) and not all(first)
