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
from repro.compression import CompressionConfig
from repro.core.program import StepProgram, build_engine
from repro.core.scenarios import IMAGE_SPEC, Scenario, ScenarioSpec
from repro.errors import ConfigError
from repro.hardware.cluster import build_cluster
from repro.hardware.specs import ClusterSpec, LASSEN
from repro.horovod.coordinator import straggler_factor
from repro.horovod.env import HorovodConfig
from repro.models.costing import ModelCostModel, ThroughputModel, TrainingMemoryModel
from repro.models.registry import get_model_cost, get_scenario_cost
from repro.parallel.layout import ParallelLayout
from repro.profiling.hvprof import Hvprof


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
    # Engine execution mode: "exact" walks every collective schedule through
    # the full transport cost model; "fast" attaches the repro.sim.fastpath
    # trace/replay session, which memoizes each distinct transfer once and
    # replays recurrences bit-identically (equivalence pinned by
    # tests/test_engine_equivalence.py).
    engine_mode: str = "exact"
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

    def __post_init__(self) -> None:
        if self.batch_per_gpu < 1:
            raise ConfigError("batch_per_gpu must be >= 1")
        if self.measure_steps < 1:
            raise ConfigError("measure_steps must be >= 1")
        if self.steady_window < 2:
            raise ConfigError("steady_window must be >= 2")
        if self.steady_rel_tol < 0:
            raise ConfigError("steady_rel_tol must be >= 0")
        if self.engine_mode not in ("exact", "fast"):
            raise ConfigError(
                f"engine_mode must be 'exact' or 'fast', got {self.engine_mode!r}"
            )
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
    def point_digest(
        self, num_gpus: int, *, fault_plan=None, recovery=None
    ) -> str:
        """Content address of the point this study would produce.

        Folds in everything that determines the result: scenario (policy,
        MV2 config, backend), the full :class:`StudyConfig`, world size and
        per-GPU batch, the ``MV2_*``/``HOROVOD_*``/``REPRO_SIM_*`` environment
        knobs, the fault plan and recovery policy (the study's own unless
        overridden), the digests of any active ``repro.comm`` selection
        tables (so tuned-table runs never alias untuned cached results),
        and the cache version salt.
        """
        from repro.comm.selection import active_table_digests
        from repro.perf.digest import canonical_digest, env_knobs

        if fault_plan is None:
            fault_plan = self.fault_plan
        if recovery is None:
            recovery = self.recovery
        return canonical_digest(
            {
                "kind": "scaling-point",
                "scenario": self.scenario,
                "config": self.config,
                "num_gpus": num_gpus,
                "batch_per_gpu": self.batch_for(num_gpus),
                "env": env_knobs(),
                "fault_plan": fault_plan,
                "recovery": recovery,
                "comm_tables": active_table_digests(),
            }
        )

    # -- one scale point ---------------------------------------------------------
    def run_point(
        self, num_gpus: int, *, hvprof: Hvprof | None = None, cache=None
    ) -> ScalingPoint:
        """Run one point, through the result cache when one is given.

        Profiled runs (``hvprof``) bypass the cache: observers must see the
        live event stream, and op counts depend on the number of simulated
        steps, which steady-state extrapolation would shorten.
        """
        use_cache = (
            cache is not None and getattr(cache, "enabled", True) and hvprof is None
        )
        if use_cache:
            digest = self.point_digest(num_gpus)
            hit = cache.get(digest)
            if hit is not None:
                return point_from_payload(hit)
        point = self._run_point(num_gpus, hvprof=hvprof)
        if use_cache:
            cache.put(digest, point_payload(point))
        return point

    def _run_point(
        self, num_gpus: int, *, hvprof: Hvprof | None = None
    ) -> ScalingPoint:
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
        world, engine, _ = build_engine(
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
        mean_step = sum(step_times) / len(step_times)
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

        Mirrors the functional trainer's orchestration on the performance
        model: a heartbeat supervisor detects dead ranks, the recovery
        policy decides between restart-from-checkpoint (steps since the
        last snapshot are discarded as lost work and re-simulated on the
        shrunk ring) and shrink-and-continue; chronic stragglers can be
        blacklisted, and ranks whose outage window ends can be regrown.
        All overheads land in the point's ``resilience`` ledger.
        """
        from repro.errors import RankFailedError
        from repro.faults.injector import FaultInjector
        from repro.resilience.accounting import RecoveryAccounting
        from repro.resilience.policy import RESTART_FROM_CHECKPOINT
        from repro.resilience.supervisor import HeartbeatSupervisor

        cfg = self.config
        batch = self.batch_for(num_gpus)
        if cfg.check_memory:
            self.check_memory_feasible(batch)
        forward = self.throughput.forward_time(batch)
        backward = self.throughput.backward_time(batch)
        cluster = build_cluster(cfg.cluster, num_gpus)
        injector = FaultInjector(self.fault_plan, topology=cluster.topology())
        world, engine, session = build_engine(
            cluster, num_gpus, self.scenario, cfg, hvprof=hvprof,
            faults=injector,
        )
        program = StepProgram(
            cfg, num_gpus, forward=forward, backward=backward,
            update=self._update_time(), schedule=self.cost.gradient_schedule(),
            world=world, engine=engine, hvprof=hvprof,
        )
        detector = program.detector
        policy = self.recovery or RESTART_FROM_CHECKPOINT
        supervisor = HeartbeatSupervisor(
            range(num_gpus), injector, policy.heartbeat
        )
        acct = RecoveryAccounting()
        ckpt_nbytes = self._checkpoint_nbytes()
        live = list(range(num_gpus))
        # (step_time, world_size) per completed step; truncated on restart
        records: list[tuple[float, int]] = []
        # (step, corrupt) per retained snapshot, oldest first — restart
        # walks newest -> oldest past corrupt files (checksum verification)
        snapshots: list[tuple[int, bool]] = []
        saves = 0
        clock = 0.0
        total_steps = cfg.warmup_steps + cfg.measure_steps
        extrapolated = 0

        def world_changed() -> None:
            # Steady-state extrapolation under faults: the detector re-arms
            # on every world perturbation (failure, blacklist, regrow,
            # straggler slowdown) so the recovery transient never poisons
            # the converged value; between perturbations, converged steps
            # replay the steady value without walking the engine.
            if session is not None:
                session.invalidate()
            if detector is not None:
                detector.rearm()

        if policy.restart:
            cost = policy.checkpoint.write_cost(ckpt_nbytes)
            clock += cost
            acct.note_checkpoint(cost)
            snapshots.append((0, injector.checkpoint_corrupt(saves, clock)))
            saves += 1
        while len(records) < total_steps:
            # Whole failure domains are declared atomically: every rank a
            # node/switch/partition fault took down shares one detection
            # window, and each successive group's stall is charged off the
            # *updated* clock — overlapping windows never double-charge.
            groups = supervisor.poll_domains(clock)
            dead = []
            for group in groups:
                members = [d for d in group.detections if d.rank in live]
                if not members:
                    continue
                stall = max(0.0, group.declared_at - clock)
                clock += stall
                acct.note_detection(stall)
                for d in members:
                    live.remove(d.rank)
                dead.extend(members)
            if not live:
                raise RankFailedError(
                    f"all {num_gpus} ranks failed under plan "
                    f"seed={self.fault_plan.seed}"
                )
            if dead:
                engine.shrink_to(sorted(live))
                world_changed()
                if policy.restart:
                    # checksum-verified recovery: walk newest -> oldest,
                    # charging a read per attempt, past corrupt snapshots
                    restore_step = None
                    read = 0.0
                    for snap_step, corrupt in reversed(snapshots):
                        read += policy.checkpoint.read_cost(ckpt_nbytes)
                        if not corrupt:
                            restore_step = snap_step
                            break
                        injector.record(
                            "ckpt-corrupt-skipped", clock,
                            detail=f"step={snap_step}",
                        )
                    if restore_step is None:
                        from repro.errors import CheckpointError

                        raise CheckpointError(
                            f"no valid checkpoint survives under plan "
                            f"seed={self.fault_plan.seed}: all "
                            f"{len(snapshots)} retained snapshot(s) corrupt "
                            f"(keep_last={policy.checkpoint.keep_last})"
                        )
                    lost_steps = len(records) - restore_step
                    if lost_steps > 0:
                        lost = sum(t for t, _ in records[restore_step:])
                        acct.productive_s -= lost
                        acct.note_lost_work(lost, steps=lost_steps)
                        del records[restore_step:]
                    acct.note_restart(read + policy.restart_overhead_s)
                    clock += read + policy.restart_overhead_s
                    injector.record(
                        "restart", clock,
                        detail=f"from step {restore_step} "
                               f"world={len(live)} verified",
                    )
            if policy.blacklist_after > 0:
                for rank in supervisor.over_limit(policy.blacklist_after):
                    if rank in live and len(live) > 1:
                        live.remove(rank)
                        supervisor.drop(rank)
                        engine.shrink_to(sorted(live))
                        world_changed()
                        acct.note_blacklist(rank)
                        injector.record(
                            "rank-blacklisted", clock, rank=rank,
                            detail=f"offenses>={policy.blacklist_after}",
                        )
            if policy.regrow:
                for rank in supervisor.recovered(clock):
                    live.append(rank)
                    live.sort()
                    supervisor.readmit(rank)
                    engine.reform_to(list(live))
                    world_changed()
                    # the regrown replica's weights ride the re-formed
                    # ring: one comm-layer broadcast of the checkpoint
                    # payload, charged with the restart overhead
                    rebcast = broadcast_weights(engine.comm, ckpt_nbytes)
                    rebcast_s = rebcast.time if rebcast is not None else 0.0
                    acct.note_regrow(
                        rank, policy.restart_overhead_s + rebcast_s
                    )
                    clock += policy.restart_overhead_s + rebcast_s
                    injector.record(
                        "rank-regrown", clock, rank=rank,
                        detail=f"world={len(live)}",
                    )
            step_index = len(records)
            fault_factor = 1.0
            for rank in live:
                f = injector.compute_factor(rank, clock, step_index)
                supervisor.note_compute(rank, f, clock)
                fault_factor = max(fault_factor, f)
            if (
                fault_factor > 1.0 or injector.wire_corruption_active(clock)
            ) and detector is not None:
                # a straggler slowdown perturbs the step time without any
                # membership change — the converged value is stale.  An
                # active wire-corruption window likewise forces real steps:
                # extrapolation sends no messages, so corruption (and its
                # CRC retransmit cost) would silently vanish.
                detector.rearm()
            backward_eff = (
                backward
                * straggler_factor(len(live), sigma=cfg.jitter_sigma)
                * fault_factor
            )
            # Draw before extrapolating: the jitter RNG must consume the
            # same draws as a full run so a re-armed resumption stays
            # aligned with exact simulation.
            stream = program.draw(step_index, backward_eff)
            if detector is not None and detector.converged():
                step = detector.phase_value(step_index)
                extrapolated += 1
            else:
                step = program.price(step_index, backward_eff, stream)
                if detector is not None and step_index >= cfg.warmup_steps:
                    detector.observe(step, step_index)
            records.append((step, len(live)))
            clock += step
            acct.note_productive(step)
            if policy.restart and policy.checkpoint.due(len(records)):
                cost = policy.checkpoint.write_cost(ckpt_nbytes)
                clock += cost
                acct.note_checkpoint(cost)
                snapshots.append(
                    (len(records), injector.checkpoint_corrupt(saves, clock))
                )
                saves += 1
                # retention rotation mirrors CheckpointManager.keep_last
                del snapshots[: -policy.checkpoint.keep_last]
        measured = records[cfg.warmup_steps:]
        mean_step = sum(t for t, _ in measured) / len(measured)
        trace_kinds: dict[str, int] = {}
        for event in injector.trace:
            trace_kinds[event.kind] = trace_kinds.get(event.kind, 0) + 1
        resilience = {
            **acct.to_payload(),
            # the independently-accumulated simulation clock: the chaos
            # invariant `productive + overheads == wall clock` checks the
            # ledger against this, not against its own sum
            "wall_clock_s": clock,
            "world_sizes": [w for _, w in records],
            "final_world_size": len(live),
            "trace_digest": injector.trace.digest(),
            "trace_events": len(injector.trace),
            "trace_kinds": {k: trace_kinds[k] for k in sorted(trace_kinds)},
        }
        return ScalingPoint(
            scenario=self.scenario.name,
            num_gpus=num_gpus,
            images_per_second=(
                sum(w * batch for _, w in measured)
                / sum(t for t, _ in measured)
            ),
            step_time=mean_step,
            forward_time=forward,
            backward_time=backward,
            update_time=program.update,
            simulated_steps=len(records) - extrapolated,
            extrapolated_steps=extrapolated,
            resilience=resilience,
            **program.comm_fields(self.scenario.backend),
        )

    # -- full sweep ---------------------------------------------------------------
    def run(
        self, gpu_counts: list[int], *, jobs: int = 1, cache=None
    ) -> list[ScalingPoint]:
        """Run the sweep; ``jobs > 1`` fans points out over worker processes.

        The parallel path requires a registered scenario (workers rebuild
        the study from its name); a custom scenario object falls back to
        the serial path.  Results are merged in ``gpu_counts`` order either
        way — worker completion order never changes the output.
        """
        base = self.single_gpu_rate()
        if jobs != 1 and self._parallel_safe():
            from repro.perf.parallel import (
                PointJob,
                active_table_payloads,
                run_point_jobs,
            )

            tables = active_table_payloads()
            point_jobs = [
                PointJob(
                    self.scenario.name, g, self.config,
                    fault_plan=self.fault_plan, recovery=self.recovery,
                    comm_tables=tables,
                )
                for g in gpu_counts
            ]
            points = run_point_jobs(point_jobs, workers=jobs, cache=cache)
        else:
            points = [self.run_point(g, cache=cache) for g in gpu_counts]
        for point in points:
            point.efficiency = point.images_per_second / (point.num_gpus * base)
        return points

    def _parallel_safe(self) -> bool:
        """True iff workers can reconstruct this exact study by name."""
        from repro.core.scenarios import scenario_by_name

        try:
            return scenario_by_name(self.scenario.name) == self.scenario
        except ConfigError:
            return False


# -- cache (de)serialization ---------------------------------------------------
def point_payload(point: ScalingPoint) -> dict:
    """JSON-encodable form of a point (floats round-trip exactly)."""
    return asdict(point)


def point_from_payload(payload: dict) -> ScalingPoint:
    """Rebuild a :class:`ScalingPoint` from :func:`point_payload` output."""
    return ScalingPoint(**payload)


#: the paper's sweep: 1 node (4 GPUs) up to 128 Lassen nodes (512 GPUs)
PAPER_GPU_COUNTS = [4, 8, 16, 32, 64, 128, 256, 512]
