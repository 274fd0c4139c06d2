"""A dropped world frees itself by reference counting.

Sweeps, the layout planner and chaos campaigns build and drop one
simulated world per point.  A world that sits on a reference cycle is
freed only when a full collection scans it, so every stored back-reference
(a context list on its runtime, a bound-method observer on its own
communicator) turns each dropped world into collector work.  These tests
pin the ownership rule from ``docs/architecture.md``:

* a world, dropped, is gone as soon as its last strong reference is, with
  the cyclic collector off, on the default engine (``fast``), the walk
  oracle (``exact``) and the event engine;
* the study, fault and planner paths leave no ``repro`` object for the
  cyclic collector;
* a finished serving run — scaling up and down, or failing over a dead
  replica under restart or shrink — leaves none either, and its dropped
  simulation dies with its last reference;
* links build their event-mode channels on first use, with the names and
  capacities they always had;
* each world owns its collective-schedule memo;
* no transfer quote outlives its step, on any of the three, and the
  sessions of a 4096-rank planner call hold none;
* a world's nodes come from one template: a fresh 4096-rank world holds
  few objects, and an analytic allreduce builds only the nodes its
  route-class representatives cross, and no CUDA state beyond node 0's,
  which the build places.
"""

from __future__ import annotations

import gc
import weakref
from collections import Counter
from dataclasses import replace

import pytest

from repro.comm import build_communicator
from repro.core import MPI_OPT, NCCL_SCENARIO, ScalingStudy, StudyConfig
from repro.faults import CorruptionFault, FaultPlan, RankFailure
from repro.cuda import CudaContext, CudaRuntime
from repro.hardware import LASSEN, Cluster, Link, LinkKind, MemoryPool, Node
from repro.hardware import links as links_module
from repro.mpi import MpiWorld, WorldSpec
from repro.mpi.collectives import ExecutionMode
from repro.mpi.comm import GpuBuffers
from repro.mpi.transports import TransferQuote
from repro.parallel.planner import PlannerConfig, plan_hybrid
from repro.profiling import Hvprof
from repro.resilience import RESTART_FROM_CHECKPOINT, SHRINK_CONTINUE
from repro.serve import VIDEO_MIX, BatchingConfig, ServeScenario, WorkloadConfig
from repro.serve.simulator import RETIRED, _ServeSimulation
from repro.sim import Environment
from repro.sim import fastpath
from repro.sim.fastpath import walk_oracle
from repro.utils.units import KIB, MIB

RANKS = 64
MODES = ["exact", "fast", "event"]


def _world(mode: str, ranks: int = RANKS):
    """An MPI-Opt communicator on a fresh cluster, on one of ``MODES``."""
    cluster = Cluster(Environment(), LASSEN, num_nodes=ranks // 4)
    spec = WorldSpec(num_ranks=ranks, policy=MPI_OPT.policy, config=MPI_OPT.mv2)
    execution = ExecutionMode.EVENT if mode == "event" else ExecutionMode.ANALYTIC
    with walk_oracle(mode == "exact"):
        world, comm = build_communicator(
            cluster, "mpi", world_spec=spec, mode=execution
        )
    assert (world.coster.fastpath is not None) == (mode == "fast")
    return world, comm


def _allreduces(comm) -> None:
    for nbytes in (8 * MIB, 64 * KIB):
        comm.allreduce(GpuBuffers.virtual(nbytes, comm.size))


def assert_no_cyclic_garbage(run) -> None:
    """``run()`` leaves no ``repro`` object for the cyclic collector."""
    gc.collect()
    gc.set_debug(gc.DEBUG_SAVEALL)
    try:
        result = run()
        gc.collect()
        found = Counter(
            type(o).__qualname__
            for o in gc.garbage
            if type(o).__module__.startswith("repro")
        )
        del result
    finally:
        gc.set_debug(0)
        gc.garbage.clear()
    assert not found, dict(found.most_common())


class TestFreedByReferenceCounting:
    @pytest.mark.parametrize("mode", MODES)
    def test_dropped_world_dies_with_its_last_reference(self, mode):
        gc.disable()
        try:
            world, comm = _world(mode)
            _allreduces(comm)
            assert comm.op_count == 2
            world_ref = weakref.ref(world)
            cluster_ref = weakref.ref(world.cluster)
            del world, comm
            assert world_ref() is None
            assert cluster_ref() is None
        finally:
            gc.enable()

    def test_restricted_communicator_keeps_one_recorder(self):
        # restrict copies the observer list: one record per collective
        gc.disable()
        try:
            world, comm = _world("exact", ranks=8)
            hv = Hvprof()
            comm.add_observer(hv.observer)
            sub = comm.restrict([0, 1, 2, 3])
            _allreduces(sub)
            assert len(hv.records) == 2 and comm.op_count == 0
            world_ref = weakref.ref(world)
            del world, comm, sub
            assert world_ref() is None
        finally:
            gc.enable()


class TestNoCyclicGarbage:
    @pytest.mark.parametrize(
        "scenario,mode",
        [(MPI_OPT, "exact"), (MPI_OPT, "fast"), (NCCL_SCENARIO, "exact")],
    )
    def test_study_point(self, scenario, mode):
        study = ScalingStudy(scenario, StudyConfig())
        with walk_oracle(mode == "exact"):
            assert_no_cyclic_garbage(lambda: study.run_point(64))

    def test_faulty_point(self):
        plan = FaultPlan(
            seed=11,
            faults=(
                CorruptionFault(target="wire", prob=0.02),
                RankFailure(rank=3, time=2.0),
            ),
        )
        study = ScalingStudy(
            MPI_OPT, StudyConfig(measure_steps=4), fault_plan=plan
        )
        assert_no_cyclic_garbage(lambda: study.run_point(16))

    def test_planner(self):
        config = PlannerConfig(
            ranks=64, max_pp=1, microbatches=(8,), measure_steps=1
        )
        assert_no_cyclic_garbage(lambda: plan_hybrid(config, jobs=1, use_memo=False))


def _type_counts() -> Counter:
    gc.collect()
    return Counter(type(o) for o in gc.get_objects())


def _fresh_4096_world() -> MpiWorld:
    cluster = Cluster(Environment(), LASSEN.with_nodes(1024), num_nodes=1024)
    spec = WorldSpec(num_ranks=4096, policy=MPI_OPT.policy, config=MPI_OPT.mv2)
    return MpiWorld(cluster, spec)


class TestOneNodeTemplate:
    def test_fresh_4096_rank_world_holds_few_objects(self):
        _world("fast", ranks=8)  # imports and one-time set-up
        gc.collect()
        before = len(gc.get_objects())
        world = _fresh_4096_world()
        gc.collect()
        held = len(gc.get_objects()) - before
        assert world.size == 4096
        assert held < 25_000, held

    def test_allreduce_builds_only_representative_nodes(self, monkeypatch):
        crossed = set()
        uncached = Cluster._route_uncached

        def recording(self, src, dst):
            crossed.update((src.node, dst.node))
            return uncached(self, src, dst)

        monkeypatch.setattr(Cluster, "_route_uncached", recording)
        before = _type_counts()
        world = _fresh_4096_world()
        comm = world.communicator()
        comm.allreduce(GpuBuffers.virtual(8 * MIB, comm.size))
        built = _type_counts() - before
        cluster = world.cluster
        # the build places node 0's CUDA state, so that it raises its errors
        needed = crossed | {0}
        assert len(needed) < 8
        assert sorted(needed) == [
            i for i in range(cluster.num_nodes) if cluster.nodes.is_built(i)
        ]
        assert built[Node] == len(needed)
        assert built[MemoryPool] == 5 * len(needed)
        assert built[CudaRuntime] == 1 and built[CudaContext] == 4


VIDEO = ServeScenario(
    name="video",
    workload=WorkloadConfig(kind="video", rate_rps=2.0, classes=VIDEO_MIX),
    batching=BatchingConfig(mix_scales=False),
    session_affinity=True,
)
REPLICA_FAILURE = FaultPlan(faults=(RankFailure(rank=0, time=20.0),))
#: name -> (scenario, fault plan, recovery); each runs 60 s and scales
#: both ways, so retired replicas and cold starts are in every run
SERVE_RUNS = {
    "image-scaling": (
        ServeScenario(
            name="image-scaling",
            workload=WorkloadConfig(kind="diurnal", rate_rps=40.0),
        ),
        None,
        RESTART_FROM_CHECKPOINT,
    ),
    "video-failure-restart": (VIDEO, REPLICA_FAILURE, RESTART_FROM_CHECKPOINT),
    "video-failure-shrink": (VIDEO, REPLICA_FAILURE, SHRINK_CONTINUE),
}


def _serving(name: str) -> _ServeSimulation:
    scenario, plan, recovery = SERVE_RUNS[name]
    return _ServeSimulation(
        scenario, duration_s=60.0, seed=1, fault_plan=plan,
        recovery=recovery, collect_trace=False,
    )


class TestFinishedServingRun:
    @pytest.mark.parametrize("name", sorted(SERVE_RUNS))
    def test_leaves_no_cyclic_garbage(self, name):
        assert_no_cyclic_garbage(lambda: _serving(name).run())

    @pytest.mark.parametrize("name", sorted(SERVE_RUNS))
    def test_dropped_simulation_dies_with_its_last_reference(self, name):
        gc.disable()
        try:
            sim = _serving(name)
            report = sim.run()
            summary = report.summary
            assert summary["cold_starts"] > 0
            assert any(rep.state == RETIRED for rep in sim.replicas.values())
            assert summary["detections"] == (name != "image-scaling")
            # pending callbacks would hold the simulation through its env
            sim_ref = weakref.ref(sim)
            del sim
            assert sim_ref() is None
            # the report keeps its ledger, not the simulation
            assert report.ledger.records
        finally:
            gc.enable()


class TestLazyChannels:
    @pytest.fixture()
    def built(self, monkeypatch):
        """Every Resource a link builds, in construction order."""
        made = []
        original = links_module.Resource

        def counting(*args, **kwargs):
            made.append(original(*args, **kwargs))
            return made[-1]

        monkeypatch.setattr(links_module, "Resource", counting)
        return made

    @pytest.mark.parametrize("mode", ["exact", "fast"])
    def test_analytic_run_builds_no_link_resource(self, mode, built):
        _, comm = _world(mode)
        _allreduces(comm)
        assert built == []

    def test_event_run_builds_only_the_channels_it_claims(self, built):
        world, comm = _world("event", ranks=8)
        _allreduces(comm)
        links = [
            *(link for node in world.cluster.nodes for link in node.links),
            *world.cluster._ib_links,
        ]
        assert 0 < len(built) < 2 * len(links)
        assert all(r.grant_count > 0 for r in built)

    def test_full_duplex_names_capacity_and_identity(self):
        cluster = Cluster(Environment(), LASSEN, num_nodes=1)
        for link in cluster.nodes[0].links:
            fwd = link.channel(link.a, link.b)
            rev = link.channel(link.b, link.a)
            name = f"{link.kind.value}:{link.a}<->{link.b}"
            assert (fwd.name, rev.name) == (name + ":fwd", name + ":rev")
            assert fwd.capacity == rev.capacity == 1
            assert link.channel(link.a, link.b) is fwd
            assert link.channel(link.b, link.a) is rev
            with pytest.raises(KeyError):
                link.channel(link.a, link.a)

    def test_capacity_follows_the_channels_argument(self):
        spec = LASSEN.node.nvlink_gpu_gpu
        link = Link(Environment(), spec, LinkKind.NVLINK_P2P, "x", "y", channels=3)
        assert link.channel("x", "y").capacity == 3

    def test_half_duplex_shares_one_resource(self):
        spec = replace(LASSEN.node.xbus_cpu_cpu, duplex=False)
        link = Link(Environment(), spec, LinkKind.XBUS, "x", "y")
        shared = link.channel("x", "y")
        assert link.channel("y", "x") is shared
        assert shared.name == "x-bus:x<->y"


class TestScheduleMemoPerWorld:
    def test_two_worlds_never_share_a_schedule(self):
        # the same buffers on both worlds, so both memos hold the same keys
        buffers = GpuBuffers.virtual(8 * MIB, 8)
        memos = []
        for _ in range(2):
            world, comm = _world("exact", ranks=8)
            comm.allreduce(buffers)
            memos.append(world.coster.schedules)
        first, second = memos
        assert len(first) > 0
        assert first.entries.keys() == second.entries.keys()
        shared = {id(v) for v in first.entries.values()} & {
            id(v) for v in second.entries.values()
        }
        assert not shared


class TestNoQuoteOutlivesItsStep:
    @pytest.mark.parametrize("mode", MODES)
    def test_live_world_holds_no_quote(self, mode):
        # 16 ranks: the ring collapses on ``fast`` and the hierarchical
        # allreduce walks a cross-node leader ring
        world, comm = _world(mode, ranks=16)
        for algorithm in ("ring", "hierarchical"):
            comm.allreduce(
                GpuBuffers.virtual(8 * MIB, comm.size),
                algorithm=algorithm,
            )
        gc.collect()
        quotes = sum(isinstance(o, TransferQuote) for o in gc.get_objects())
        # the world is alive and has sent: its quotes were all dropped
        assert sum(world.transport.stats.transfers.values()) > 0
        assert quotes == 0

    def test_planner_sessions_hold_no_quote(self, monkeypatch):
        """A 4,096-rank planner call collapses 1,024-leader rings and node
        groups; each world it drops dies with its last reference while
        its session, kept here, holds no quote."""
        enable = fastpath.enable_fastpath
        worlds, sessions = [], []

        def watched(world):
            worlds.append(weakref.ref(world))
            sessions.append(enable(world))
            return sessions[-1]

        monkeypatch.setattr(fastpath, "enable_fastpath", watched)
        config = PlannerConfig(
            ranks=4096, max_pp=1, microbatches=(8,), measure_steps=1
        )
        gc.collect()
        gc.disable()
        try:
            plan_hybrid(config, jobs=1, use_memo=False)
            assert worlds and all(ref() is None for ref in worlds)
        finally:
            gc.enable()
        gc.collect()
        assert sum(s.ring_transfers for s in sessions) > 0
        assert sum(s.group_transfers for s in sessions) > 0
        assert not any(isinstance(o, TransferQuote) for o in gc.get_objects())
