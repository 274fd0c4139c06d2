"""Hybrid (dp x tp x pp) step execution on the simulation engine.

One hybrid step prices three interleaved communication systems against the
partitioned compute:

* **tp** — every sharded layer allgathers its activation shard forward and
  reduce-scatters the activation gradient backward, over the NVLink-aware
  hierarchical backend built on the tp group's slice of a node.  Layers tp
  cannot shard stay replicated and pay a small tp-group gradient allreduce
  per step.
* **pp** — the batch is cut into M microbatches walked through P stages;
  adjacent stages exchange the boundary activation (forward) and its
  gradient (backward) over IB, split across the tp pairs.  Both GPipe and
  1F1B fill and drain the same ``M + P - 1`` slots, so the wall time per
  phase is ``(M + P - 1) * (bottleneck stage latency + hop)`` — the classic
  bubble fraction ``(P - 1) / (M + P - 1)``; the schedules differ only in
  live-activation memory (GPipe holds M microbatches, 1F1B at most P).
* **dp** — each rank's stage shard gradients ride the ordinary Horovod
  engine (fusion, registration cache, the scenario's backend) over a
  data-parallel group whose members sit ``tp * pp`` ranks apart, i.e. on a
  derived cluster spec with ``gpus_per_node / (tp * pp)`` ranks per node.
  The allreduce overlaps the whole backward phase, PipeDream-flush style.

Every tp/pp term is a closed-form analytic envelope, so fast and exact
engine modes agree bit-identically on them; the dp engine's fast/exact
equivalence is pinned by the existing fast-engine harness.  At
``tp = pp = 1, M = 1`` the step expression degenerates exactly to the
data-parallel formula (such layouts route through the original path).
"""

from __future__ import annotations

from dataclasses import replace

from repro.core.calibration import OPTIMIZER_BYTES_PER_PARAM
from repro.core.program import StepProgram, build_engine
from repro.errors import ConfigError, HardwareError
from repro.hardware.cluster import build_cluster
from repro.hardware.specs import ClusterSpec
from repro.horovod.backend import build_backend
from repro.horovod.coordinator import straggler_factor
from repro.models.costing import ThroughputModel, TrainingMemoryModel
from repro.mpi.comm import GpuBuffer
from repro.parallel.layout import ParallelLayout
from repro.parallel.partition import (
    StageShard,
    split_stage_bounds,
    stage_models,
)


def dp_cluster_spec(spec: ClusterSpec, layout: ParallelLayout) -> ClusterSpec:
    """The data-parallel group's view of the cluster.

    One model replica occupies ``tp * pp`` consecutive ranks, so the
    members of a dp group sit that far apart: ``gpn / (tp*pp)`` of them
    share a node (or one per node once a replica fills whole nodes).  The
    derived spec keeps every link unchanged — only the rank-to-node
    packing shrinks.
    """
    fp = layout.model_parallel_size
    gpn = spec.node.gpus_per_node
    dp_gpn = max(1, gpn // fp)
    node = spec.node
    if dp_gpn != gpn:
        sockets = node.sockets if dp_gpn % node.sockets == 0 else 1
        node = replace(node, gpus_per_node=dp_gpn, sockets=sockets)
    out = spec if node is spec.node else replace(spec, node=node)
    needed = (layout.dp + dp_gpn - 1) // dp_gpn
    if needed > out.max_nodes:
        out = out.with_nodes(needed)
    return out


def check_hybrid_memory(study, layout: ParallelLayout, batch: int) -> None:
    """Raise :class:`ConfigError` when the worst stage's footprint OOMs.

    Mirrors the pure-dp feasibility check per stage shard: parameters +
    optimizer state of the resident shard, plus the live microbatches'
    activations (all M under GPipe, at most P under 1F1B), plus the fusion
    buffer and CUDA contexts.
    """
    cfg = study.config
    gpu = cfg.cluster.node.gpu
    stages = stage_models(study.cost, layout)
    mb = batch * layout.model_parallel_size // layout.microbatches
    live = (
        layout.microbatches
        if layout.schedule == "gpipe"
        else min(layout.microbatches, layout.pp)
    )
    worst, worst_stage = 0, 0
    for stage in stages:
        mem = TrainingMemoryModel(stage.cost)
        need = mem.fixed_bytes() + live * mb * mem.per_image_bytes()
        if need > worst:
            worst, worst_stage = need, stage.index
    required = (
        worst
        + cfg.horovod.fusion_threshold
        + study.contexts_per_gpu() * gpu.context_overhead_bytes
    )
    if required > gpu.memory_bytes:
        raise ConfigError(
            f"hybrid layout (dp={layout.dp}, tp={layout.tp}, "
            f"pp={layout.pp}, microbatches={layout.microbatches}, "
            f"{layout.schedule}) stage {worst_stage} needs "
            f"{required / 2**30:.2f} GiB/GPU with {live} live "
            f"microbatch(es) of {mb} image(s) but {gpu.name} has "
            f"{gpu.memory_bytes / 2**30:.0f} GiB (simulated OOM)"
        )


def _tp_comm(
    study, stages: list[StageShard], layout: ParallelLayout, mb: int
) -> tuple[list[float], list[float], list[float]]:
    """Per-stage (forward, backward, per-step sync) tp seconds.

    Forward: one activation allgather per sharded layer per microbatch;
    backward: the mirrored reduce-scatter of the activation gradients;
    sync: one per-step gradient allreduce for the replicated
    (non-shardable) layers.  All three are closed-form hierarchical
    envelopes — identical in fast and exact engine modes.
    """
    tp = layout.tp
    if tp == 1:
        zero = [0.0] * len(stages)
        return zero, list(zero), list(zero)
    cluster = build_cluster(study.config.cluster, tp)
    _, comm = build_backend(cluster, "hierarchical", num_ranks=tp)
    ag_memo: dict[int, float] = {}
    rs_memo: dict[int, float] = {}
    fwd, bwd, sync = [], [], []
    for stage in stages:
        sharded = set(stage.sharded_layers)
        f = b = 0.0
        for layer in stage.cost.layers:
            if layer.name not in sharded:
                continue
            act = layer.activation_bytes * mb  # per-rank shard bytes
            if act not in ag_memo:
                _, timing = comm.allgather(
                    [GpuBuffer.virtual(act) for _ in range(tp)]
                )
                ag_memo[act] = timing.time
                _, timing = comm.reduce_scatter(
                    [GpuBuffer.virtual(act * tp) for _ in range(tp)]
                )
                rs_memo[act] = timing.time
            f += ag_memo[act]
            b += rs_memo[act]
        s = 0.0
        if stage.replicated_params:
            timing = comm.allreduce(
                [
                    GpuBuffer.virtual(stage.replicated_params * 4)
                    for _ in range(tp)
                ]
            )
            s = timing.time
        fwd.append(f)
        bwd.append(b)
        sync.append(s)
    return fwd, bwd, sync


def _hop_time(
    study, stages: list[StageShard], layout: ParallelLayout, mb: int
) -> float:
    """Worst stage-boundary point-to-point transfer per pipeline slot.

    The full boundary activation (or its gradient, same bytes) crosses IB
    split across the tp pairs of adjacent stages.
    """
    if layout.pp == 1:
        return 0.0
    ib = study.config.cluster.ib
    return max(
        ib.transfer_time(s.boundary_activation_bytes * mb / layout.tp)
        for s in stages[:-1]
    )


def run_hybrid(study, num_gpus: int, layout: ParallelLayout, *, hvprof=None):
    """Price one hybrid point of a :class:`~repro.core.study.ScalingStudy`.

    The partitioned compute and the tp/pp terms reduce to the P=1 step
    program's walls: forward and backward are the pipeline phases' wall
    times, and the tp-group sync is a constant term outside the overlap.
    The dp engine syncs the bottleneck stage's shard gradients.
    """
    from repro.core.study import ScalingPoint

    cfg = study.config
    scenario = study.scenario
    layout = layout.resolved(num_gpus)
    layout.validate_model(study.cost)
    layout.validate_cluster(cfg.cluster.node.gpus_per_node)
    batch = study.batch_for(num_gpus)
    layout.validate_batch(batch)
    gpn = cfg.cluster.node.gpus_per_node
    needed_nodes = (num_gpus + gpn - 1) // gpn
    if needed_nodes > cfg.cluster.max_nodes:
        raise HardwareError(
            f"{cfg.cluster.name} has {cfg.cluster.max_nodes} nodes, "
            f"requested {needed_nodes}; scale the spec with "
            f"with_nodes() for beyond-capacity studies"
        )
    if cfg.check_memory:
        check_hybrid_memory(study, layout, batch)

    P, M = layout.pp, layout.microbatches
    mb = batch * layout.model_parallel_size // M
    gpu = cfg.cluster.node.gpu
    stages = stage_models(study.cost, layout)
    tp_fwd, tp_bwd, tp_sync = _tp_comm(study, stages, layout, mb)
    hop = _hop_time(study, stages, layout, mb)
    strag = straggler_factor(num_gpus, sigma=cfg.jitter_sigma)
    stage_fwd = [
        ThroughputModel(s.cost, gpu).forward_time(mb) for s in stages
    ]
    stage_bwd = [
        ThroughputModel(s.cost, gpu).backward_time(mb) * strag
        for s in stages
    ]
    slots = M + P - 1
    slot_f = max(f + c for f, c in zip(stage_fwd, tp_fwd))
    slot_b = max(b + c for b, c in zip(stage_bwd, tp_bwd))
    fwd_wall = slots * (slot_f + hop)
    bwd_wall = slots * (slot_b + hop)
    sync_step = max(tp_sync)
    update = (
        max(s.cost.total_params for s in stages)
        * OPTIMIZER_BYTES_PER_PARAM
        / gpu.hbm_bandwidth
    )

    grad_stage = stages[0]
    for stage in stages[1:]:
        if stage.cost.param_bytes > grad_stage.cost.param_bytes:
            grad_stage = stage

    world = engine = None
    if layout.dp > 1:
        world, engine, _ = build_engine(
            build_cluster(dp_cluster_spec(cfg.cluster, layout), layout.dp),
            layout.dp, scenario, cfg, hvprof=hvprof,
        )
    program = StepProgram(
        cfg, num_gpus, forward=fwd_wall, backward=bwd_wall, update=update,
        schedule=grad_stage.cost.gradient_schedule(), world=world,
        engine=engine, extra=sync_step, hvprof=hvprof,
    )
    step_times, simulated = program.run(cfg.warmup_steps, cfg.measure_steps)
    mean_step = sum(step_times) / len(step_times)
    tp_time = M * max(f + b for f, b in zip(tp_fwd, tp_bwd)) + sync_step
    pp_time = slots * 2.0 * hop
    comm = program.comm_fields(scenario.backend)
    comm["comm_wall_time"] = comm["comm_wall_time"] + tp_time + pp_time
    return ScalingPoint(
        scenario=scenario.name,
        num_gpus=num_gpus,
        images_per_second=num_gpus * batch / mean_step,
        step_time=mean_step,
        forward_time=fwd_wall,
        backward_time=bwd_wall,
        update_time=update,
        simulated_steps=simulated,
        extrapolated_steps=cfg.measure_steps - simulated,
        parallelism={
            "dp": layout.dp,
            "tp": layout.tp,
            "pp": layout.pp,
            "microbatches": M,
            "schedule": layout.schedule,
            "microbatch_size": mb,
            "bubble_fraction": (P - 1) / slots,
            "tp_comm_time": tp_time,
            "pp_hop_time": pp_time,
            "stage_bounds": [
                [s, e] for s, e in split_stage_bounds(study.cost.layers, P)
            ],
            "stage_params": [s.cost.total_params for s in stages],
            "grad_stage": grad_stage.index,
        },
        **comm,
    )
