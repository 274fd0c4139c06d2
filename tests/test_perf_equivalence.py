"""Fast-path == slow-path equivalence tests.

Every optimization in the perf layer claims result preservation; this file
enforces each claim by running the same workload with the fast path taken
and bypassed:

* uncontended-link collapse: identical event-mode timings with every
  transfer forced onto the per-hop path;
* the collective plan memo: identical timings and protocol state with
  the memo cleared before every call, one plan for every binding;
* steady-state extrapolation: matches full simulation within ulp-level
  tolerance (zero jitter), never fires under the default jitter;
* parallel sweep: identical to the serial sweep, in order, for any
  scenario, and spawned workers route through the config's selection
  table;
* result cache: cached point identical to the freshly simulated one.
"""

from __future__ import annotations

import contextlib
import dataclasses
import functools
from concurrent.futures import ProcessPoolExecutor
from multiprocessing import get_context

import pytest

import repro.hardware.cluster as cluster_module
from repro.comm import default_table
from repro.comm.selection import SelectionTable
from repro.core import (
    MPI_DEFAULT,
    MPI_OPT,
    ScalingStudy,
    StudyConfig,
    scenario_by_name,
)
from repro.hardware import LASSEN, Cluster
from repro.mpi import MpiWorld, WorldSpec
from repro.mpi.collectives import ExecutionMode
from repro.mpi.collectives.allreduce import allreduce_timing
from repro.mpi.transports import TransportKind
from repro.perf import PointJob, ResultCache, run_jobs
from repro.perf import parallel as perf_parallel
from repro.sim import Environment
from repro.utils.units import MIB

ALGORITHMS = ["ring", "reduce_scatter_allgather", "hierarchical"]


def _world(
    num_ranks: int, mode: ExecutionMode = ExecutionMode.EVENT
) -> MpiWorld:
    cluster = Cluster(Environment(), LASSEN, num_nodes=max(1, num_ranks // 4))
    spec = WorldSpec(
        num_ranks=num_ranks, policy=MPI_OPT.policy, config=MPI_OPT.mv2
    )
    return MpiWorld(cluster, spec, mode=mode)


def _event_allreduce(
    num_ranks: int, nbytes: int, algorithm: str, world: MpiWorld | None = None
) -> float:
    world = world or _world(num_ranks)
    t = allreduce_timing(
        world.coster, list(range(num_ranks)), nbytes, algorithm=algorithm
    )
    return t.time


@contextlib.contextmanager
def _per_hop(monkeypatch):
    """Force every event-mode transfer onto the per-hop request/hold/release
    path: the uncontended-route collapse never finds its route free."""
    with monkeypatch.context() as patch:
        patch.setattr(cluster_module, "try_acquire_all", lambda channels: False)
        yield


def _contended_flows() -> tuple[float, ...]:
    """Finish times of two concurrent 64 MiB flows over one route."""
    env = Environment()
    cluster = Cluster(env, LASSEN, num_nodes=2)
    src = cluster.gpu_ref(0)
    dst = cluster.gpu_ref(4)
    done = []

    def flow(nbytes=64 * MIB):
        yield from cluster.transfer(src, dst, nbytes)
        done.append(env.now)

    env.process(flow())
    env.process(flow())
    env.run()
    return tuple(done)


class TestLinkFastPath:
    @pytest.mark.parametrize("algorithm", ALGORITHMS)
    def test_event_timings_identical_with_and_without(
        self, algorithm, monkeypatch
    ):
        fast = _event_allreduce(8, 16 * MIB, algorithm)
        with _per_hop(monkeypatch):
            slow = _event_allreduce(8, 16 * MIB, algorithm)
        assert fast == slow, f"{algorithm}: fast {fast} != slow {slow}"

    def test_contended_links_still_queue(self, monkeypatch):
        """Two concurrent transfers over the same route must serialize on
        the bottleneck whether or not the fast path is active."""
        fast = _contended_flows()
        with _per_hop(monkeypatch):
            slow = _contended_flows()
        assert fast == slow
        # the second flow finishes strictly after the first (serialized)
        assert fast[1] > fast[0]


class TestScheduleMemo:
    @pytest.mark.parametrize("algorithm", ALGORITHMS)
    def test_timings_identical_with_and_without(self, algorithm):
        """The unmemoized path clears the world's plan memo before each
        call; the memoized path keeps it."""
        timings = {}
        for memoized in (False, True):
            world = _world(8)
            memo = world.coster.schedules
            times, plans = [], []
            for _ in range(2):
                if not memoized:
                    memo.clear()
                times.append(_event_allreduce(8, 8 * MIB, algorithm, world))
                plans.extend(memo.entries.values())
            assert len(plans) == 2
            # a memo hit hands the second call the first call's plan
            assert (plans[0] is plans[1]) == memoized
            timings[memoized] = times
        assert timings[False] == timings[True]

    @pytest.mark.parametrize("algorithm", ALGORITHMS)
    @pytest.mark.parametrize(
        "mode, num_ranks",
        [(ExecutionMode.ANALYTIC, 16), (ExecutionMode.EVENT, 8)],
        ids=["analytic", "event"],
    )
    def test_one_plan_serves_every_binding(self, mode, num_ranks, algorithm):
        """One allreduce shape called with fresh buffer ids, a fixed id
        list, no ids, and ``dtype_bytes`` 4 then 2: the kept memo hands
        every call the same plan and leaves the timings and protocol
        state of a memo cleared before every call."""
        ranks = list(range(num_ranks))
        fixed = {r: 500 + r for r in ranks}
        bindings = [
            ({r: 1000 + r for r in ranks}, 4),
            ({r: 2000 + r for r in ranks}, 4),
            (fixed, 4),
            (fixed, 4),
            (None, 4),
            (fixed, 4),
            (fixed, 2),
        ]
        runs = {}
        for memoized in (False, True):
            world = _world(num_ranks, mode)
            transport = world.transport
            memo = world.coster.schedules
            plans = []
            get = memo.get
            memo.get = lambda key, build: plans.append(get(key, build)) or plans[-1]
            lines = []
            for ids, dtype_bytes in bindings:
                if not memoized:
                    memo.clear()
                transport.begin_collective()
                t = allreduce_timing(
                    world.coster, ranks, 8 * MIB + 4, buffer_ids=ids,
                    algorithm=algorithm, dtype_bytes=dtype_bytes,
                )
                lines.append((t.algorithm, t.time.hex(), sorted(
                    (k, v.hex()) for k, v in t.segments.items()
                )))
            lines += [
                [transport.stats.bytes_moved[k] for k in TransportKind],
                [transport.stats.transfers[k] for k in TransportKind],
                [(r, s.hex()) for r, s in sorted(transport.staged_seconds.items())],
                sorted(transport._ipc_pairs),
                [
                    (node, ib.reg_cache.hits, ib.reg_cache.misses,
                     list(ib.reg_cache._entries.items()))
                    for node, ib in sorted(transport._ib.items())
                ],
            ]
            assert len(plans) == len(bindings)
            if memoized:
                assert all(plan is plans[0] for plan in plans)
            else:
                assert len(set(map(id, plans))) == len(plans)
            runs[memoized] = lines
        assert runs[False] == runs[True]
        assert any(hits for _, hits, _, _ in runs[True][-1])


class TestSteadyStateExtrapolation:
    def test_zero_jitter_matches_full_simulation(self):
        scenario = scenario_by_name("MPI-Opt")
        fast_cfg = StudyConfig(jitter_sigma=0.0, measure_steps=8)
        slow_cfg = StudyConfig(
            jitter_sigma=0.0, measure_steps=8, steady_detect=False
        )
        fast = ScalingStudy(scenario, fast_cfg).run_point(16)
        slow = ScalingStudy(scenario, slow_cfg).run_point(16)
        assert fast.extrapolated_steps > 0
        assert slow.extrapolated_steps == 0
        assert fast.simulated_steps + fast.extrapolated_steps == 8
        # per-step accumulator noise bounds the drift at the ulp level
        assert fast.step_time == pytest.approx(slow.step_time, rel=1e-12)
        assert fast.images_per_second == pytest.approx(
            slow.images_per_second, rel=1e-12
        )
        assert fast.comm_wall_time == slow.comm_wall_time
        assert fast.message_sizes == slow.message_sizes

    def test_default_jitter_never_extrapolates(self):
        scenario = scenario_by_name("MPI")
        jittered = StudyConfig(measure_steps=6)
        point = ScalingStudy(scenario, jittered).run_point(8)
        assert point.extrapolated_steps == 0
        assert point.simulated_steps == 6
        # and the result is bit-identical to a detector-free run
        off = ScalingStudy(
            scenario, StudyConfig(measure_steps=6, steady_detect=False)
        ).run_point(8)
        assert point.step_time == off.step_time

    def test_profiled_runs_simulate_every_step(self):
        from repro.profiling import Hvprof

        scenario = scenario_by_name("MPI")
        config = StudyConfig(jitter_sigma=0.0, measure_steps=8)
        hv = Hvprof()
        point = ScalingStudy(scenario, config).run_point(4, hvprof=hv)
        assert point.extrapolated_steps == 0
        assert point.simulated_steps == 8


class TestParallelSweep:
    def test_parallel_merge_identical_to_serial(self):
        scenario = scenario_by_name("MPI-Opt")
        config = StudyConfig()
        gpu_counts = [4, 8, 16]
        serial = ScalingStudy(scenario, config).run(gpu_counts)
        parallel = ScalingStudy(scenario, config).run(gpu_counts, jobs=2)
        assert [p.num_gpus for p in parallel] == gpu_counts
        for s, p in zip(serial, parallel):
            assert dataclasses.asdict(s) == dataclasses.asdict(p)

    def test_run_jobs_preserves_input_order(self):
        config = StudyConfig()
        jobs = [
            PointJob(MPI_OPT, 8, config),
            PointJob(MPI_DEFAULT, 4, config),
            PointJob(MPI_OPT, 4, config),
        ]
        points = run_jobs(jobs, workers=2)
        assert [(p.scenario, p.num_gpus) for p in points] == [
            ("MPI-Opt", 8), ("MPI", 4), ("MPI-Opt", 4)
        ]

    def test_custom_scenario_runs_in_pool(self):
        # workers receive the Scenario object itself, registered or not
        scenario = dataclasses.replace(scenario_by_name("MPI"), name="custom")
        study = ScalingStudy(scenario, StudyConfig())
        serial = study.run([4, 8], jobs=1)
        parallel = study.run([4, 8], jobs=2)
        assert [p.scenario for p in parallel] == ["custom", "custom"]
        for s, p in zip(serial, parallel):
            assert dataclasses.asdict(s) == dataclasses.asdict(p)

    def test_spawned_workers_route_through_the_active_table(
        self, monkeypatch
    ):
        # spawn-started workers inherit no module state from the parent:
        # the table reaches them only inside each job's config
        monkeypatch.setattr(
            perf_parallel, "ProcessPoolExecutor",
            functools.partial(
                ProcessPoolExecutor, mp_context=get_context("spawn")
            ),
        )
        untabled = ScalingStudy(MPI_OPT, StudyConfig()).run([4, 8])
        study = ScalingStudy(MPI_OPT, StudyConfig(comm_table=SelectionTable(
            backend="mpi", byte_edges=(), rank_edges=(),
            algorithms=(("ring",),), source="tuned",
        )))
        inline = study.run([4, 8], jobs=1)
        spawned = study.run([4, 8], jobs=2)
        assert [p.step_time for p in inline] != [
            p.step_time for p in untabled
        ]
        for i, s in zip(inline, spawned):
            assert dataclasses.asdict(i) == dataclasses.asdict(s)


class TestCacheEquivalence:
    def test_cached_sweep_identical_to_fresh(self, tmp_path):
        scenario = scenario_by_name("MPI")
        config = StudyConfig()
        cache = ResultCache(str(tmp_path))
        fresh = ScalingStudy(scenario, config).run([4, 8], cache=cache)
        cached = ScalingStudy(scenario, config).run([4, 8], cache=cache)
        assert cache.hits == 2
        for f, c in zip(fresh, cached):
            assert dataclasses.asdict(f) == dataclasses.asdict(c)

    def test_knob_change_misses_cache(self, tmp_path):
        scenario = scenario_by_name("MPI")
        cache = ResultCache(str(tmp_path))
        ScalingStudy(scenario, StudyConfig()).run([4], cache=cache)
        assert cache.entry_count() == 1
        tabled = StudyConfig(comm_table=default_table("mpi"))
        ScalingStudy(scenario, tabled).run([4], cache=cache)
        assert cache.hits == 0
        assert cache.entry_count() == 2  # distinct digest, no false hit
