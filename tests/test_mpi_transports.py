"""Tests for CUDA-aware transport selection and costing."""

import pytest

from repro.cuda.runtime import CudaVersion
from repro.hardware import LASSEN, Cluster
from repro.mpi import MpiWorld, Mv2Config, WorldSpec, build_world
from repro.mpi.comm import GpuBuffers
from repro.mpi.process import SingletonDevicePolicy, AllDevicesPolicy
from repro.mpi.transports import (
    CUDA_IPC_THRESHOLD,
    SMP_EAGER_THRESHOLD,
    TransportKind,
    TransportModel,
)
from repro.net.regcache import RegistrationCache
from repro.sim import Environment
from repro.utils.units import KIB, MIB
from tests.test_transport_golden import protocol_state


def make_world(
    num_nodes=2,
    *,
    policy=None,
    config=None,
    cuda_version=CudaVersion(10, 2),
    mode=None,
):
    env = Environment()
    cluster = Cluster(env, LASSEN, num_nodes=num_nodes)
    config = config or Mv2Config()
    spec = WorldSpec(
        num_ranks=cluster.num_gpus,
        policy=policy or SingletonDevicePolicy(),
        config=config,
        cuda_version=cuda_version,
    )
    ranks = build_world(cluster, spec)
    return cluster, TransportModel(cluster, config, ranks)


class TestSelection:
    def test_self_transport(self):
        _, tm = make_world(1)
        assert tm.select(0, 0, 1 * MIB) is TransportKind.SELF

    def test_small_intra_node_always_smp_eager(self):
        _, tm = make_world(1, config=Mv2Config(mv2_visible_devices="all"))
        assert tm.select(0, 1, SMP_EAGER_THRESHOLD) is TransportKind.SMP_EAGER

    def test_default_config_loses_ipc_under_singleton_mask(self):
        """The paper's default: CUDA_VISIBLE_DEVICES=local_rank kills IPC."""
        _, tm = make_world(1)  # no MV2_VISIBLE_DEVICES
        assert tm.select(0, 1, 64 * MIB) is TransportKind.HOST_STAGED

    def test_mv2_visible_devices_restores_ipc(self):
        """The paper's MPI-Opt: MV2_VISIBLE_DEVICES=all restores IPC."""
        _, tm = make_world(1, config=Mv2Config(mv2_visible_devices="all"))
        assert tm.select(0, 1, 64 * MIB) is TransportKind.CUDA_IPC

    def test_mv2_visible_devices_ineffective_pre_cuda_10_1(self):
        """Before CUDA 10.1 the override can't work (cuIpcOpenMemHandle fails)."""
        _, tm = make_world(
            1,
            config=Mv2Config(mv2_visible_devices="all"),
            cuda_version=CudaVersion(10, 0),
        )
        assert tm.select(0, 1, 64 * MIB) is TransportKind.HOST_STAGED

    def test_all_devices_policy_gets_ipc_without_override(self):
        """Legacy workaround (Fig 6a): full visibility => IPC works, before
        CUDA 10.1 too."""
        for version in (CudaVersion(10, 2), CudaVersion(10, 0)):
            _, tm = make_world(
                1, policy=AllDevicesPolicy(), cuda_version=version
            )
            assert tm.select(0, 1, 64 * MIB) is TransportKind.CUDA_IPC

    def test_medium_intra_node_stays_staged_even_with_ipc(self):
        """IPC only engages above its threshold (Table I: no gain <16MB)."""
        _, tm = make_world(1, config=Mv2Config(mv2_visible_devices="all"))
        assert tm.select(0, 1, 1 * MIB) is TransportKind.HOST_STAGED
        assert tm.select(0, 1, CUDA_IPC_THRESHOLD) is TransportKind.CUDA_IPC

    def test_ipc_disabled_by_config(self):
        _, tm = make_world(
            1, config=Mv2Config(mv2_visible_devices="all", cuda_ipc_enabled=False)
        )
        assert tm.select(0, 1, 64 * MIB) is TransportKind.HOST_STAGED

    def test_inter_node_small_eager(self):
        _, tm = make_world(2)
        assert tm.select(0, 4, 8 * KIB) is TransportKind.IB_EAGER

    def test_inter_node_large_gdr(self):
        _, tm = make_world(2)
        assert tm.select(0, 4, 64 * MIB) is TransportKind.GDR_RDMA

    def test_inter_node_gdr_disabled_stages(self):
        _, tm = make_world(2, config=Mv2Config(gdr_enabled=False))
        assert tm.select(0, 4, 64 * MIB) is TransportKind.STAGED_INTER


class TestCosts:
    def test_ipc_beats_staging_under_concurrency(self):
        """A lone staged copy is competitive, but when all four ranks
        transfer at once the staged path serializes on the node's staging
        engines while IPC runs conflict-free — the mechanism behind
        Table I's ~50% wins."""
        from repro.mpi.collectives.base import ExecutionMode, PairTransfer, StepCoster

        pairs = [PairTransfer(s, d, 32 * MIB) for s, d in
                 [(0, 1), (1, 2), (2, 3), (3, 0)]]
        _, tm_opt = make_world(1, config=Mv2Config(mv2_visible_devices="all"))
        _, tm_def = make_world(1)
        opt_step = StepCoster(tm_opt, ExecutionMode.ANALYTIC).step_time_analytic(pairs)
        def_step = StepCoster(tm_def, ExecutionMode.ANALYTIC).step_time_analytic(pairs)
        assert def_step > 1.5 * opt_step

    def test_staging_dominated_by_pageable_bandwidth(self):
        _, tm = make_world(1)
        nbytes = 64 * MIB
        bd = tm.cost(0, 1, nbytes)
        assert bd.staging > bd.wire
        floor = nbytes / LASSEN.node.pageable_copy_bandwidth
        assert bd.staging >= floor

    def test_regcache_removes_registration_cost_on_reuse(self):
        _, tm = make_world(2, config=Mv2Config(registration_cache=True))
        nbytes = 64 * MIB
        tm.begin_collective()
        first = tm.cost(0, 4, nbytes, src_buffer=7, dst_buffer=8).total
        tm.begin_collective()
        second = tm.cost(0, 4, nbytes, src_buffer=7, dst_buffer=8).total
        assert second < first
        stats = tm.regcache_stats()
        assert stats["hits"] == 2 and stats["misses"] == 2

    def test_no_regcache_pays_every_time(self):
        _, tm = make_world(2, config=Mv2Config(registration_cache=False))
        nbytes = 64 * MIB
        tm.begin_collective()
        first = tm.cost(0, 4, nbytes, src_buffer=7, dst_buffer=8).total
        tm.begin_collective()
        second = tm.cost(0, 4, nbytes, src_buffer=7, dst_buffer=8).total
        assert second == pytest.approx(first)
        assert tm.regcache_stats()["hit_rate"] == 0.0

    def test_ipc_setup_amortized_per_pair(self):
        _, tm = make_world(1, config=Mv2Config(mv2_visible_devices="all"))
        nbytes = 64 * MIB
        first = tm.cost(0, 1, nbytes).total
        second = tm.cost(0, 1, nbytes).total
        assert second < first

    def test_gdr_cost_bounded_by_ib_wire_time(self):
        cluster, tm = make_world(2, config=Mv2Config(registration_cache=True))
        nbytes = 64 * MIB
        tm.cost(0, 4, nbytes, src_buffer=1, dst_buffer=2)  # warm cache
        bd = tm.cost(0, 4, nbytes, src_buffer=1, dst_buffer=2)
        wire_floor = nbytes / LASSEN.ib.bandwidth
        assert bd.total == pytest.approx(wire_floor, rel=0.2)

    def test_stats_accumulate(self):
        _, tm = make_world(2)
        tm.cost(0, 1, 64 * MIB)
        tm.cost(0, 4, 64 * MIB)
        assert tm.stats.transfers[TransportKind.HOST_STAGED] == 1
        assert tm.stats.transfers[TransportKind.GDR_RDMA] == 1


class TestEventMode:
    def test_transfer_proc_matches_cost(self):
        cluster, tm = make_world(1, config=Mv2Config(mv2_visible_devices="all"))
        nbytes = 64 * MIB
        env = cluster.env
        # pre-pay the one-time IPC setup so both paths see steady state
        tm.cost(0, 1, nbytes)
        expected = tm.cost(0, 1, nbytes).total
        start = env.now
        p = env.process(tm.transfer_proc(0, 1, nbytes))
        env.run(until=p)
        assert env.now - start == pytest.approx(expected, rel=1e-6)

    def test_concurrent_staged_transfers_contend_for_engines(self):
        cluster, tm = make_world(1)
        nbytes = 64 * MIB
        single = tm.cost(0, 1, nbytes).staging
        env = cluster.env
        start = env.now
        # 4 concurrent staged transfers, 2 staging engines -> ~2x makespan
        procs = [
            env.process(tm.transfer_proc(src, dst, nbytes))
            for src, dst in [(0, 1), (1, 2), (2, 3), (3, 0)]
        ]
        env.run(until=env.all_of(procs))
        elapsed = env.now - start
        assert elapsed > 1.8 * single
        assert elapsed < 2.6 * single


class TestCallScope:
    """``begin_collective`` resets only the registration caches acquired
    through since the last call, the ring closed form's aggregate acquires
    included, and leaves what resetting every HCA would."""

    @staticmethod
    def _run(config, reset_every_hca, resets=None):
        """Three rounds of ring allreduces over nodes 0-1 and over all
        eight nodes, reusing each communicator's buffers; the protocol
        state after each call."""
        cluster = Cluster(Environment(), LASSEN, num_nodes=8)
        spec = WorldSpec(
            num_ranks=32, policy=SingletonDevicePolicy(), config=config
        )
        world = MpiWorld(cluster, spec)
        transport = world.transport
        caches = [ib.reg_cache for _, ib in sorted(transport._ib.items())]
        if reset_every_hca:
            def begin_collective():
                for cache in caches:
                    cache.begin_transaction()

            transport.begin_collective = begin_collective
        comm = world.communicator()
        calls = [
            (sub, GpuBuffers(nbytes, [base + r for r in sub.ranks]))
            for sub, nbytes, base in (
                (comm.reform(range(8)), 8 * MIB, 1000),
                (comm, 4 * MIB + 8, 2000),
            )
        ]
        lines = []
        for _ in range(3):
            for sub, buffers in calls:
                sub.allreduce(buffers, algorithm="ring")
                lines.append(protocol_state(transport))
                if resets is not None:
                    used = {id(cache) for cache in caches if cache._txn}
                    counts = [(cache.hits, cache.misses) for cache in caches]
                    del resets[:]
                    transport.begin_collective()
                    # one reset per cache the call used, each scope empty
                    # after it, and no hit or miss counted
                    assert {id(cache) for cache in resets} == used
                    assert len(resets) == len(used)
                    assert not any(cache._txn for cache in caches)
                    assert [(c.hits, c.misses) for c in caches] == counts
        assert world.coster.fastpath.ring_transfers > 0
        return lines

    @pytest.fixture()
    def resets(self, monkeypatch):
        """The cache of each ``begin_transaction`` call, in call order."""
        seen = []
        begin = RegistrationCache.begin_transaction

        def counting(cache):
            seen.append(cache)
            begin(cache)

        monkeypatch.setattr(RegistrationCache, "begin_transaction", counting)
        return seen

    @pytest.mark.parametrize("gdr", [True, False], ids=["gdr", "staged"])
    @pytest.mark.parametrize("cache", [True, False], ids=["cache", "no-cache"])
    def test_resets_only_the_caches_the_last_call_used(
        self, cache, gdr, resets
    ):
        config = Mv2Config(
            registration_cache=cache, gdr_enabled=gdr,
            mv2_visible_devices="all",
        )
        want = self._run(config, reset_every_hca=True)
        assert self._run(config, reset_every_hca=False, resets=resets) == want

    def test_a_two_node_call_resets_two_hcas(self, resets):
        _, tm = make_world(8, config=Mv2Config(registration_cache=True))
        tm.begin_collective()
        assert resets == []
        for _ in range(2):
            tm.cost(0, 4, 64 * MIB, src_buffer=7, dst_buffer=8)
            tm.begin_collective()
        assert len(resets) == 4
        assert tm.regcache_stats()["hits"] == 2
