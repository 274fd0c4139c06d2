"""The scaling-study harness behind Figs. 10-13.

For one :class:`~repro.core.scenarios.Scenario` and GPU count it assembles
the whole simulated stack — cluster, CUDA contexts under the visibility
policy, MPI/NCCL backend, Horovod engine — and walks training steps of the
paper's workload (EDSR, batch 4/GPU, 48x48 LR patches):

``step = forward + max(backward_with_stragglers, comm_finish) + update``

where ``comm_finish`` comes from the Horovod engine running the model's
real gradient-readiness schedule through Tensor Fusion and the backend's
collective algorithms.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field

from repro.core.calibration import (
    COMPUTE_JITTER_SIGMA,
    HOROVOD_TUNED,
    OPTIMIZER_BYTES_PER_PARAM,
    TRAIN_BATCH_PER_GPU,
)
from repro.comm.api import broadcast_weights
from repro.comm.selection import SelectionTable
from repro.compression import CompressionConfig
from repro.core.program import StepProgram, build_engine
from repro.core.scenarios import IMAGE_SPEC, Scenario, ScenarioSpec
from repro.errors import CheckpointError, ConfigError
from repro.hardware.cluster import build_cluster
from repro.hardware.specs import ClusterSpec, LASSEN
from repro.horovod.coordinator import straggler_factor
from repro.horovod.env import HorovodConfig
from repro.models.costing import ModelCostModel, ThroughputModel, TrainingMemoryModel
from repro.models.registry import get_model_cost, get_scenario_cost
from repro.parallel.layout import ParallelLayout
from repro.profiling.hvprof import Hvprof
from repro.utils.folds import fold_sum


@dataclass(frozen=True)
class StudyConfig:
    """Workload and environment of one scaling study."""

    model: str = "edsr-paper"
    batch_per_gpu: int = TRAIN_BATCH_PER_GPU
    cluster: ClusterSpec = LASSEN
    horovod: HorovodConfig = HOROVOD_TUNED
    jitter_sigma: float = COMPUTE_JITTER_SIGMA
    warmup_steps: int = 1
    measure_steps: int = 2
    # Refuse configurations whose per-GPU footprint (params + optimizer +
    # activations + fusion buffer + CUDA context) exceeds HBM — a simulated
    # run must OOM where the real one would (Fig. 9's boundary).
    check_memory: bool = True
    # Strong scaling: fix the *global* batch and shrink the per-GPU share as
    # GPUs are added (the paper runs weak scaling; this is the companion
    # experiment).  ``None`` keeps the paper's weak-scaling regime.
    global_batch: int | None = None
    # Steady-state extrapolation: once ``steady_window`` consecutive measured
    # steps agree within ``steady_rel_tol`` (relative spread), stop simulating
    # and extrapolate the remaining measure steps at the converged value.
    # With the default jitter the spread stays above any tight tolerance, so
    # this only fires for zero-jitter runs — where the measured steps agree
    # to ulp-level accumulator noise and the extrapolated mean matches a
    # full simulation within ~1e-15 relative (pinned by equivalence tests).
    steady_detect: bool = True
    steady_window: int = 3
    steady_rel_tol: float = 1e-9
    # Gradient compression spec ("none", "fp16", "bf16", "topk:<ratio>")
    # applied at the Horovod engine's wire boundary; see docs/compression.md.
    compression: str = "none"
    # Local-SGD sync period H: 1 is synchronous SGD (gradient allreduce
    # every step); H > 1 runs H-1 communication-free local steps between
    # parameter-averaging syncs.
    local_sgd_h: int = 1
    # Parallel layout: the default is pure data parallelism (dp = world
    # size).  Any tp/pp/microbatching routes the point through the hybrid
    # executor (repro.parallel); layouts fold into point digests like any
    # other config field, so dp-only and hybrid points never share cache
    # entries.
    layout: ParallelLayout = ParallelLayout()
    # Workload scenario: what one step processes.  The default (the
    # paper's single-image/single-scale workload) routes through the
    # registered cost model and the unchanged step loop, so every
    # pre-existing simulated anchor stays bit-identical.  Multi-scale
    # specs swap in the multi-head cost structure; temporal specs
    # (frames > 1) run the video BPTT loop — frames-1 communication-free
    # frame steps, then a sequence-boundary step carrying the gradient
    # allreduce and the update.  Folds into point digests like any other
    # config field.
    workload: ScenarioSpec = IMAGE_SPEC
    # MVAPICH2-style algorithm-selection table for the scenario's backend
    # (repro.comm.selection); None keeps each backend's own heuristic.
    # Folds into point digests like any other config field.
    comm_table: SelectionTable | None = None

    def __post_init__(self) -> None:
        if self.batch_per_gpu < 1:
            raise ConfigError("batch_per_gpu must be >= 1")
        if self.measure_steps < 1:
            raise ConfigError("measure_steps must be >= 1")
        if self.steady_window < 2:
            raise ConfigError("steady_window must be >= 2")
        if self.steady_rel_tol < 0:
            raise ConfigError("steady_rel_tol must be >= 0")
        if self.local_sgd_h < 1:
            raise ConfigError(
                f"local_sgd_h must be >= 1, got {self.local_sgd_h}"
            )
        if self.local_sgd_h > self.measure_steps:
            # a measurement window shorter than one period would never
            # execute a parameter sync and report zero communication
            raise ConfigError(
                f"measure_steps ({self.measure_steps}) must cover at least "
                f"one local-SGD period (local_sgd_h={self.local_sgd_h})"
            )
        if not isinstance(self.layout, ParallelLayout):
            raise ConfigError(
                f"layout must be a ParallelLayout, got {self.layout!r}"
            )
        if not self.layout.is_pure_dp and self.local_sgd_h > 1:
            raise ConfigError(
                "hybrid (tp/pp) layouts do not compose with local-SGD "
                f"(local_sgd_h={self.local_sgd_h}); run one or the other"
            )
        if not isinstance(self.workload, ScenarioSpec):
            raise ConfigError(
                f"workload must be a ScenarioSpec, got {self.workload!r}"
            )
        if self.workload.is_temporal and self.local_sgd_h > 1:
            raise ConfigError(
                "temporal (video) workloads already own the periodic step "
                "structure; they do not compose with local-SGD "
                f"(local_sgd_h={self.local_sgd_h})"
            )
        if self.workload.is_temporal and self.workload.frames > self.measure_steps:
            # a measurement window shorter than one sequence would never
            # cross a sequence boundary and report zero communication
            raise ConfigError(
                f"measure_steps ({self.measure_steps}) must cover at least "
                f"one video sequence (frames={self.workload.frames})"
            )
        if not self.workload.is_degenerate and not self.layout.is_pure_dp:
            raise ConfigError(
                "hybrid (tp/pp) layouts support only the default workload "
                f"scenario for now, got {self.workload.name!r}"
            )
        CompressionConfig.parse(self.compression)  # raises ConfigError


@dataclass
class ScalingPoint:
    """Measured state of one (scenario, gpu count) run."""

    scenario: str
    num_gpus: int
    images_per_second: float
    step_time: float
    forward_time: float
    backward_time: float
    # Communication of the last sync step not hidden behind backward,
    # max(0, comm_finish - backward).  comm_finish is when the last fused
    # message lands, and every Horovod cycle's coordination overhead
    # delays the messages after it — so this already includes
    # coordination_time; summing the two double-counts coordination.
    exposed_comm_time: float
    coordination_time: float
    update_time: float
    blocking_time: float  # pageable staging stealing compute (default path)
    comm_wall_time: float  # sum of collective durations
    message_sizes: list[int] = field(default_factory=list)
    regcache_hit_rate: float | None = None
    efficiency: float | None = None
    # Steady-state bookkeeping: how many measure steps were actually
    # simulated vs extrapolated at the converged per-step time.
    simulated_steps: int = 0
    extrapolated_steps: int = 0
    # Recovery report for runs under a fault plan: the itemized
    # time-to-solution ledger (RecoveryAccounting payload) plus the
    # world-size trajectory and fault-trace digest.  None for clean runs.
    resilience: dict | None = None
    # Hybrid-layout decomposition (dp/tp/pp, bubble fraction, tp/pp comm
    # shares, stage bounds) for points the hybrid executor priced; None
    # for pure data-parallel points.
    parallelism: dict | None = None
    # Workload scenario payload (ScenarioSpec.to_payload) for points run
    # under a non-default spec (multi-scale heads, video sequences);
    # None for the paper's degenerate single-image workload.
    workload: dict | None = None

    @property
    def per_gpu_rate(self) -> float:
        return self.images_per_second / self.num_gpus


class ScalingStudy:
    """Runs the paper's weak-scaling experiment for one scenario.

    With a ``fault_plan``, each point runs the elastic-recovery loop
    instead of the clean steady-state loop: rank failures are detected by
    a heartbeat supervisor, absorbed per the ``recovery`` policy
    (restart-from-checkpoint on the shrunk world by default), and every
    second of overhead is itemized into the point's ``resilience`` report.
    """

    def __init__(
        self,
        scenario: Scenario,
        config: StudyConfig | None = None,
        *,
        fault_plan=None,
        recovery=None,
    ):
        self.scenario = scenario
        self.config = config or StudyConfig()
        self.fault_plan = fault_plan
        self.recovery = recovery
        workload = self.config.workload
        if fault_plan is not None and not workload.is_degenerate:
            raise ConfigError(
                "fault plans support only the default workload scenario "
                f"for now, got {workload.name!r}; run the resilience study "
                "on the single-image workload"
            )
        if workload.is_degenerate:
            # the paper's workload: the registered cost model, unchanged —
            # every pre-existing simulated anchor stays bit-identical
            self.cost: ModelCostModel = get_model_cost(self.config.model)
        else:
            self.cost = get_scenario_cost(
                self.config.model,
                scales=workload.scales,
                patch=workload.patch,
                recurrent=workload.recurrent,
            )
        self.throughput = ThroughputModel(self.cost, self.config.cluster.node.gpu)
        self.memory = TrainingMemoryModel(self.cost)

    def batch_for(self, num_gpus: int) -> int:
        """Per-GPU batch at this scale (weak: constant; strong: shrinking)."""
        if self.config.global_batch is not None:
            return max(1, self.config.global_batch // num_gpus)
        return self.config.batch_per_gpu

    # -- single-GPU baseline (no communication) -------------------------------
    def single_gpu_rate(self) -> float:
        batch = self.batch_for(1)
        T = self.config.workload.frames
        if T == 1:
            return self.throughput.images_per_second(batch)
        # video: the optimizer update fires once per sequence, so it
        # amortizes over the frame steps (same arithmetic as the 1-GPU
        # point, so efficiency is exactly 1.0 there)
        step = (
            self.throughput.forward_time(batch)
            + self.throughput.backward_time(batch)
            + self._update_time() / T
        )
        return batch / step

    def _update_time(self) -> float:
        gpu = self.config.cluster.node.gpu
        return (
            self.cost.total_params * OPTIMIZER_BYTES_PER_PARAM / gpu.hbm_bandwidth
        )

    def contexts_per_gpu(self) -> int:
        """Processes holding a CUDA context on each GPU under this policy.

        Singleton visibility leaves one; the legacy full-visibility policy
        leaves one per co-located rank (the Fig. 6a overhead kernels).
        """
        gpn = self.config.cluster.node.gpus_per_node
        return self.scenario.policy.app_mask(0, gpn).count

    def check_memory_feasible(self, batch: int) -> None:
        """Raise if the per-GPU training footprint exceeds device memory."""
        gpu = self.config.cluster.node.gpu
        required = (
            self.memory.bytes_required(batch)
            + self.config.horovod.fusion_threshold
            + self.contexts_per_gpu() * gpu.context_overhead_bytes
        )
        if required > gpu.memory_bytes:
            raise ConfigError(
                f"batch {batch} of {self.cost.name} needs "
                f"{required / 2**30:.2f} GiB/GPU "
                f"({self.contexts_per_gpu()} context(s)) but {gpu.name} has "
                f"{gpu.memory_bytes / 2**30:.0f} GiB (simulated OOM)"
            )

    def max_feasible_batch(self) -> int:
        """Largest per-GPU batch that fits under this scenario's policy."""
        gpu = self.config.cluster.node.gpu
        available = (
            gpu.memory_bytes
            - self.config.horovod.fusion_threshold
            - self.contexts_per_gpu() * gpu.context_overhead_bytes
        )
        return self.memory.max_batch(available)

    # -- result cache addressing ----------------------------------------------
    def point_digest(self, num_gpus: int) -> str:
        """Content address of the point this study would produce.

        Folds in everything that determines the result: scenario (policy,
        MV2 config, backend), the full :class:`StudyConfig` (its selection
        table included, so tuned-table runs never alias untuned cached
        results), world size and per-GPU batch, the study's fault plan and
        recovery policy, and the cache version salt.
        """
        from repro.perf.digest import canonical_digest

        return canonical_digest(
            {
                "kind": "scaling-point",
                "scenario": self.scenario,
                "config": self.config,
                "num_gpus": num_gpus,
                "batch_per_gpu": self.batch_for(num_gpus),
                "fault_plan": self.fault_plan,
                "recovery": self.recovery,
            }
        )

    # -- one scale point ---------------------------------------------------------
    def run_point(
        self, num_gpus: int, *, hvprof: Hvprof | None = None
    ) -> ScalingPoint:
        """Run one point.  Cached and parallel sweeps go through
        :meth:`run`; a profiled point (``hvprof``) always runs live, since
        observers must see the event stream."""
        if not self.config.layout.is_pure_dp:
            if self.fault_plan is not None:
                raise ConfigError(
                    "hybrid (tp/pp) layouts do not support fault plans yet; "
                    "run the resilience study data-parallel"
                )
            from repro.parallel.executor import run_hybrid

            return run_hybrid(
                self, num_gpus, self.config.layout, hvprof=hvprof
            )
        if self.fault_plan is not None and num_gpus > 1:
            return self._run_point_faulty(num_gpus, hvprof=hvprof)
        cfg = self.config
        batch = self.batch_for(num_gpus)
        if cfg.check_memory:
            self.check_memory_feasible(batch)
        forward = self.throughput.forward_time(batch)
        backward = self.throughput.backward_time(batch)
        update = self._update_time()
        T = cfg.workload.frames
        workload_payload = (
            None if cfg.workload.is_degenerate else cfg.workload.to_payload()
        )
        if num_gpus == 1:
            if T > 1:
                # one update per sequence, amortized over the frame steps
                step = forward + backward + update / T
            else:
                step = forward + backward + update
            return ScalingPoint(
                scenario=self.scenario.name,
                num_gpus=1,
                images_per_second=batch / step,
                step_time=step,
                forward_time=forward,
                backward_time=backward,
                exposed_comm_time=0.0,
                coordination_time=0.0,
                update_time=update,
                blocking_time=0.0,
                comm_wall_time=0.0,
                workload=workload_payload,
            )
        world, engine = build_engine(
            build_cluster(cfg.cluster, num_gpus), num_gpus, self.scenario,
            cfg, hvprof=hvprof,
        )
        backward_eff = backward * straggler_factor(num_gpus, sigma=cfg.jitter_sigma)
        program = StepProgram(
            cfg, num_gpus, forward=forward, backward=backward_eff,
            update=update, schedule=self.cost.gradient_schedule(),
            world=world, engine=engine, hvprof=hvprof,
        )
        step_times, simulated = program.run(cfg.warmup_steps, cfg.measure_steps)
        mean_step = fold_sum(step_times) / len(step_times)
        return ScalingPoint(
            scenario=self.scenario.name,
            num_gpus=num_gpus,
            images_per_second=num_gpus * batch / mean_step,
            step_time=mean_step,
            forward_time=forward,
            backward_time=backward_eff,
            update_time=update,
            simulated_steps=simulated,
            extrapolated_steps=cfg.measure_steps - simulated,
            workload=workload_payload,
            **program.comm_fields(self.scenario.backend),
        )

    # -- elastic recovery (performance mode) --------------------------------------
    def _checkpoint_nbytes(self) -> int:
        """Bytes one checkpoint writes: fp32 weights + optimizer state."""
        return int(self.cost.total_params * (4 + OPTIMIZER_BYTES_PER_PARAM))

    def _run_point_faulty(
        self, num_gpus: int, *, hvprof: Hvprof | None = None
    ) -> ScalingPoint:
        """One point under the study's fault plan and recovery policy.

        A :class:`~repro.resilience.RecoveryLadder` walks the point's
        steps with a :class:`_PricedJob`: the watchdog declares dead
        ranks, the policy decides between restart-from-checkpoint (steps
        since the last snapshot are discarded as lost work and re-priced
        on the shrunk ring) and shrink-and-continue, chronic stragglers
        can be blacklisted, and ranks whose outage window ends can be
        regrown.  All overheads land in the point's ``resilience`` ledger.
        """
        from repro.faults.injector import FaultInjector
        from repro.resilience.ladder import RecoveryLadder

        cfg = self.config
        batch = self.batch_for(num_gpus)
        if cfg.check_memory:
            self.check_memory_feasible(batch)
        forward = self.throughput.forward_time(batch)
        backward = self.throughput.backward_time(batch)
        cluster = build_cluster(cfg.cluster, num_gpus)
        injector = FaultInjector(self.fault_plan, topology=cluster.topology())
        world, engine = build_engine(
            cluster, num_gpus, self.scenario, cfg, hvprof=hvprof,
            faults=injector,
        )
        program = StepProgram(
            cfg, num_gpus, forward=forward, backward=backward,
            update=self._update_time(), schedule=self.cost.gradient_schedule(),
            world=world, engine=engine, hvprof=hvprof,
        )
        job = _PricedJob(self, program, injector)
        ladder = RecoveryLadder(job.policy, injector, range(num_gpus))
        records = ladder.run(job, cfg.warmup_steps + cfg.measure_steps)
        measured = records[cfg.warmup_steps:]
        measured_s = fold_sum(t for t, _ in measured)
        trace_kinds: dict[str, int] = {}
        for event in injector.trace:
            trace_kinds[event.kind] = trace_kinds.get(event.kind, 0) + 1
        resilience = {
            **ladder.acct.to_payload(),
            # the independently-accumulated simulation clock: the chaos
            # invariant `productive + overheads == wall clock` checks the
            # ledger against this, not against its own sum
            "wall_clock_s": ladder.clock,
            "world_sizes": [w for _, w in records],
            "final_world_size": len(ladder.live),
            "trace_digest": injector.trace.digest(),
            "trace_events": len(injector.trace),
            "trace_kinds": {k: trace_kinds[k] for k in sorted(trace_kinds)},
        }
        return ScalingPoint(
            scenario=self.scenario.name,
            num_gpus=num_gpus,
            images_per_second=sum(w * batch for _, w in measured) / measured_s,
            step_time=measured_s / len(measured),
            forward_time=forward,
            backward_time=backward,
            update_time=program.update,
            simulated_steps=len(records) - job.extrapolated,
            extrapolated_steps=job.extrapolated,
            resilience=resilience,
            **program.comm_fields(self.scenario.backend),
        )

    # -- full sweep ---------------------------------------------------------------
    def run(
        self, gpu_counts: list[int], *, jobs: int = 1, cache=None
    ) -> list[ScalingPoint]:
        """Run the sweep through :func:`~repro.perf.parallel.run_jobs`:
        cache hits are served, and ``jobs > 1`` fans the rest out over
        worker processes.  Results are merged in ``gpu_counts`` order
        either way — worker completion order never changes the output.
        """
        from repro.perf.parallel import PointJob, run_jobs

        base = self.single_gpu_rate()
        points = run_jobs(
            [
                PointJob(
                    self.scenario, g, self.config,
                    fault_plan=self.fault_plan, recovery=self.recovery,
                )
                for g in gpu_counts
            ],
            workers=jobs,
            cache=cache,
        )
        for point in points:
            point.efficiency = point.images_per_second / (point.num_gpus * base)
        return points


class _PricedJob:
    """The performance study's hooks for the recovery ladder.

    Steps are :class:`StepProgram` phases priced on the simulated engine.
    Snapshots are priced, not written; each is rolled for corruption when
    its write completes, and a restart walks them newest to oldest,
    charging one read per snapshot tried.  Every ring change re-arms the
    steady-state detector, so a recovery transient never poisons the
    converged value; between changes, converged steps replay the steady
    value without walking the engine.
    """

    def __init__(self, study: ScalingStudy, program: StepProgram, injector):
        from repro.resilience.policy import RESTART_FROM_CHECKPOINT

        self.program = program
        self.engine = program.engine
        self.injector = injector
        self.policy = study.recovery or RESTART_FROM_CHECKPOINT
        self.sigma = study.config.jitter_sigma
        self.warmup = study.config.warmup_steps
        self.nbytes = study._checkpoint_nbytes()
        # (step, corrupt) per retained snapshot, oldest first
        self.snapshots: list[tuple[int, bool]] = []
        self.saves = 0
        self.extrapolated = 0

    def _ring_changed(self) -> None:
        if self.program.detector is not None:
            self.program.detector.rearm()

    def shrink(self, live: list[int]) -> None:
        self.engine.shrink_to(sorted(live))
        self._ring_changed()

    def regrow(self, rank: int, live: list[int]) -> float:
        self.engine.reform_to(list(live))
        self._ring_changed()
        # one comm-layer broadcast of the checkpoint payload
        rebcast = broadcast_weights(self.engine.comm, self.nbytes)
        return rebcast.time if rebcast is not None else 0.0

    def step(self, index: int, factor: float, live: list[int],
             clock: float) -> float:
        program = self.program
        detector = program.detector
        if detector is not None and (
            factor > 1.0 or self.injector.wire_corruption_active(clock)
        ):
            # a straggler slowdown perturbs the step time without any
            # membership change, so the converged value is stale.  An
            # active wire-corruption window likewise forces real steps:
            # extrapolation sends no messages, so corruption (and its CRC
            # retransmit cost) would silently vanish.
            detector.rearm()
        backward = (
            program.backward
            * straggler_factor(len(live), sigma=self.sigma)
            * factor
        )
        # Draw before extrapolating: the jitter RNG must consume the same
        # draws as a full run so a re-armed resumption stays aligned with
        # exact simulation.
        stream = program.draw(index, backward)
        if detector is not None and detector.converged():
            self.extrapolated += 1
            return detector.phase_value(index)
        seconds = program.price(index, backward, stream)
        if detector is not None and index >= self.warmup:
            detector.observe(seconds, index)
        return seconds

    def checkpoint(self, step: int, clock: float) -> float:
        cost = self.policy.checkpoint.write_cost(self.nbytes)
        corrupt = self.injector.checkpoint_corrupt(self.saves, clock + cost)
        self.snapshots.append((step, corrupt))
        self.saves += 1
        # retention rotation mirrors CheckpointManager.keep_last
        del self.snapshots[: -self.policy.checkpoint.keep_last]
        return cost

    def restore(self, clock: float) -> tuple[int, float]:
        # checksum-verified recovery: walk newest -> oldest, charging a
        # read per attempt, past corrupt snapshots
        read = 0.0
        for step, corrupt in reversed(self.snapshots):
            read += self.policy.checkpoint.read_cost(self.nbytes)
            if not corrupt:
                return step, read
            self.injector.record(
                "ckpt-corrupt-skipped", clock, detail=f"step={step}"
            )
        raise CheckpointError(
            f"no valid checkpoint survives under plan "
            f"seed={self.injector.plan.seed}: "
            f"all {len(self.snapshots)} retained snapshot(s) corrupt "
            f"(keep_last={self.policy.checkpoint.keep_last})"
        )

    def rewind(self, step: int) -> None:
        """Nothing to drop: the ladder's records are the point's steps."""


# -- cache (de)serialization ---------------------------------------------------
def point_payload(point: ScalingPoint) -> dict:
    """JSON-encodable form of a point (floats round-trip exactly)."""
    return asdict(point)


def point_from_payload(payload: dict) -> ScalingPoint:
    """Rebuild a :class:`ScalingPoint` from :func:`point_payload` output."""
    return ScalingPoint(**payload)


#: the paper's sweep: 1 node (4 GPUs) up to 128 Lassen nodes (512 GPUs)
PAPER_GPU_COUNTS = [4, 8, 16, 32, 64, 128, 256, 512]
