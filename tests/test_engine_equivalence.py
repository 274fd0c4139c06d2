"""Bit-identity of the fast engine against the exact engine.

The ``repro.sim.fastpath`` trace/replay session and the vectorized serve
arrival generator both promise *bit-identical* results — not "close", not
"within tolerance": every float in a fast-mode report must equal the
exact-mode float exactly, because cached results, digests, and the paper's
reproduction tables must not depend on which engine produced them.

These tests pin that contract end to end:

* scaling points (every scenario, small and large worlds),
* faulty runs with rank failure + checkpoint restart, and regrow,
* serving reports under rr and jsq routing,
* the homogeneous-Poisson arrival trace itself,

plus sanity checks that fast mode actually replays (the speedup is real,
not a silent fallback to exact) and that digests keep the modes apart.
"""

import dataclasses

import pytest

from repro.core.scenarios import SCENARIOS, scenario_by_name
from repro.core.study import ScalingStudy, StudyConfig, point_payload
from repro.errors import ConfigError
from repro.faults import CorruptionFault, FaultPlan, RankFailure
from repro.resilience import CheckpointPolicy, RecoveryPolicy


def run_point(scenario, num_gpus, mode, *, fault_plan=None, recovery=None,
              **cfg):
    study = ScalingStudy(
        scenario_by_name(scenario),
        StudyConfig(engine_mode=mode, **cfg),
        fault_plan=fault_plan,
        recovery=recovery,
    )
    return study.run_point(num_gpus)


def assert_points_identical(exact, fast):
    """Full-dataclass equality — every field, every float, bit for bit."""
    assert dataclasses.asdict(exact) == dataclasses.asdict(fast)
    assert point_payload(exact) == point_payload(fast)


class TestTrainEquivalence:
    @pytest.mark.parametrize("scenario", [s.name for s in SCENARIOS])
    @pytest.mark.parametrize("num_gpus", [4, 16])
    def test_point_bit_identity(self, scenario, num_gpus):
        exact = run_point(scenario, num_gpus, "exact")
        fast = run_point(scenario, num_gpus, "fast")
        assert_points_identical(exact, fast)

    @pytest.mark.slow
    @pytest.mark.parametrize("scenario", ["MPI", "MPI-Opt"])
    def test_point_bit_identity_512(self, scenario):
        exact = run_point(scenario, 512, "exact")
        fast = run_point(scenario, 512, "fast")
        assert_points_identical(exact, fast)

    def test_invalid_mode_rejected(self):
        with pytest.raises(ConfigError):
            StudyConfig(engine_mode="turbo")


class TestFaultyEquivalence:
    def test_failure_restart_bit_identity(self):
        plan = FaultPlan(seed=11, faults=[RankFailure(rank=3, time=2.0)])
        policy = RecoveryPolicy(
            restart=True, checkpoint=CheckpointPolicy(interval_steps=3))
        kw = dict(fault_plan=plan, recovery=policy,
                  warmup_steps=1, measure_steps=8)
        exact = run_point("MPI-Opt", 8, "exact", **kw)
        fast = run_point("MPI-Opt", 8, "fast", **kw)
        assert exact.resilience is not None
        assert exact.resilience["restarts"] == 1
        assert_points_identical(exact, fast)

    def test_regrow_bit_identity(self):
        plan = FaultPlan(
            seed=9, faults=[RankFailure(rank=1, time=2.0, down_s=4.0)])
        policy = RecoveryPolicy(
            restart=True, regrow=True,
            checkpoint=CheckpointPolicy(interval_steps=3))
        kw = dict(fault_plan=plan, recovery=policy,
                  warmup_steps=1, measure_steps=10)
        exact = run_point("MPI-Opt", 8, "exact", **kw)
        fast = run_point("MPI-Opt", 8, "fast", **kw)
        assert exact.resilience is not None
        assert exact.resilience["regrown_ranks"] == [1]
        assert_points_identical(exact, fast)

    @pytest.mark.parametrize("scenario", ["MPI", "MPI-Opt"])
    def test_wire_corruption_bit_identity(self, scenario):
        """CRC retransmits are priced from the plain time the transfer was
        actually charged, including a receiver's first advertisement with
        the registration cache off (the ``MPI`` scenario)."""
        plan = FaultPlan(
            seed=0, faults=(CorruptionFault(target="wire", prob=0.02),))
        kw = dict(fault_plan=plan, warmup_steps=1, measure_steps=6)
        exact = run_point(scenario, 16, "exact", **kw)
        fast = run_point(scenario, 16, "fast", **kw)
        assert_points_identical(exact, fast)


class TestCompressionEquivalence:
    """Compressed and local-SGD runs keep the fast/exact contract."""

    @pytest.mark.parametrize("compression", ["fp16", "bf16", "topk:0.01"])
    def test_compressed_point_bit_identity(self, compression):
        exact = run_point("MPI-Opt", 8, "exact", compression=compression)
        fast = run_point("MPI-Opt", 8, "fast", compression=compression)
        assert_points_identical(exact, fast)

    def test_local_sgd_point_bit_identity(self):
        kw = dict(local_sgd_h=4, warmup_steps=1, measure_steps=8)
        exact = run_point("MPI-Opt", 8, "exact", **kw)
        fast = run_point("MPI-Opt", 8, "fast", **kw)
        assert fast.extrapolated_steps == exact.extrapolated_steps
        assert_points_identical(exact, fast)

    def test_compressed_faulty_bit_identity(self):
        plan = FaultPlan(seed=11, faults=[RankFailure(rank=3, time=2.0)])
        policy = RecoveryPolicy(
            restart=True, checkpoint=CheckpointPolicy(interval_steps=3))
        kw = dict(fault_plan=plan, recovery=policy,
                  warmup_steps=1, measure_steps=8, compression="fp16")
        exact = run_point("MPI-Opt", 8, "exact", **kw)
        fast = run_point("MPI-Opt", 8, "fast", **kw)
        assert exact.resilience is not None
        assert_points_identical(exact, fast)

    def test_sparse_faulty_bit_identity(self):
        plan = FaultPlan(seed=11, faults=[RankFailure(rank=3, time=2.0)])
        policy = RecoveryPolicy(
            restart=True, checkpoint=CheckpointPolicy(interval_steps=3))
        kw = dict(fault_plan=plan, recovery=policy,
                  warmup_steps=1, measure_steps=8, compression="topk:0.01")
        exact = run_point("MPI-Opt", 8, "exact", **kw)
        fast = run_point("MPI-Opt", 8, "fast", **kw)
        assert_points_identical(exact, fast)

    def test_local_sgd_faulty_bit_identity(self):
        """The fastpath must see the H-step cadence: sync collectives only
        fire on period boundaries, and the replay clock must agree."""
        plan = FaultPlan(seed=11, faults=[RankFailure(rank=3, time=2.0)])
        policy = RecoveryPolicy(
            restart=True, checkpoint=CheckpointPolicy(interval_steps=3))
        kw = dict(fault_plan=plan, recovery=policy,
                  warmup_steps=1, measure_steps=9, local_sgd_h=3)
        exact = run_point("MPI-Opt", 8, "exact", **kw)
        fast = run_point("MPI-Opt", 8, "fast", **kw)
        assert_points_identical(exact, fast)

    def test_digest_separates_compression_configs(self):
        digests = {
            ScalingStudy(scenario_by_name("MPI-Opt"),
                         StudyConfig(**kw)).point_digest(16)
            for kw in (
                {},
                {"compression": "fp16"},
                {"compression": "topk:0.01"},
                {"compression": "topk:0.05"},
                {"local_sgd_h": 2},
            )
        }
        assert len(digests) == 5


class TestHybridEquivalence:
    """Tensor/pipeline layouts keep the fast/exact contract: every tp
    collective and pp hop is priced closed-form, and the dp world under a
    hybrid layout replays exactly like a pure-dp one."""

    @pytest.mark.parametrize("num_gpus,layout_kw", [
        (4, dict(tp=2, pp=2, microbatches=4)),
        (16, dict(tp=2, pp=2, microbatches=4)),
        (16, dict(tp=4)),
        (16, dict(pp=4, microbatches=8)),
        (16, dict(pp=4, microbatches=8, schedule="gpipe")),
    ])
    def test_hybrid_bit_identity(self, num_gpus, layout_kw):
        from repro.parallel import ParallelLayout

        layout = ParallelLayout(**layout_kw)
        exact = run_point("MPI-Opt", num_gpus, "exact", layout=layout)
        fast = run_point("MPI-Opt", num_gpus, "fast", layout=layout)
        assert exact.parallelism is not None
        assert_points_identical(exact, fast)

    @pytest.mark.slow
    def test_hybrid_bit_identity_512(self):
        from repro.parallel import ParallelLayout

        layout = ParallelLayout(dp=64, tp=2, pp=4, microbatches=8)
        exact = run_point("MPI-Opt", 512, "exact", layout=layout)
        fast = run_point("MPI-Opt", 512, "fast", layout=layout)
        assert exact.parallelism["dp"] == 64
        assert_points_identical(exact, fast)


class TestServeEquivalence:
    @pytest.mark.parametrize("policy", ["rr", "jsq"])
    def test_report_bit_identity(self, policy):
        from repro.serve import ServeScenario
        from repro.serve.simulator import simulate_serve

        def run(mode):
            report = simulate_serve(
                ServeScenario(routing=policy),
                duration_s=20.0, seed=3, engine_mode=mode)
            report.ledger = None
            report.trace = None
            return report

        assert run("exact").to_payload() == run("fast").to_payload()

    def test_poisson_trace_bit_identity(self):
        from repro.serve.workload import WorkloadConfig, generate_arrivals

        cfg = WorkloadConfig(kind="poisson", rate_rps=40.0)
        for duration, seed in ((30.0, 7), (1e-9, 3), (0.5, 0)):
            exact = generate_arrivals(cfg, duration, seed)
            fast = generate_arrivals(cfg, duration, seed, engine_mode="fast")
            assert exact == fast

    def test_serve_digest_separates_modes(self):
        from repro.serve import ServeScenario
        from repro.serve.sweep import ServeJob, serve_digest

        scn = ServeScenario()
        assert (serve_digest(ServeJob(scn))
                != serve_digest(ServeJob(scn, engine_mode="fast")))


class TestFastPathEngages:
    def test_study_digest_separates_modes(self):
        digests = {
            ScalingStudy(scenario_by_name("MPI-Opt"),
                         StudyConfig(engine_mode=m)).point_digest(16)
            for m in ("exact", "fast")
        }
        assert len(digests) == 2

    def test_fast_mode_replays_transfers(self):
        """The speedup is real: a fast-mode world replays (or ring-replays)
        most transfers instead of re-walking the cost model."""
        from repro.sim.fastpath import enable_fastpath
        from tests.test_mpi_collectives import make_world
        from repro.mpi.collectives.allreduce import allreduce_timing
        from repro.utils.units import MIB

        world = make_world(8)
        session = enable_fastpath(world)
        assert session is not None
        assert enable_fastpath(world) is session  # idempotent
        for _ in range(4):
            allreduce_timing(world.coster, list(range(8)), 32 * MIB,
                             algorithm="ring")
        stats = session.stats()
        assert stats["replayed_transfers"] > stats["exact_transfers"]
