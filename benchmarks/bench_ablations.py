"""Ablations over the design choices DESIGN.md calls out.

1. analytic vs event-driven timing engines agree;
2. Horovod cycle-time tuning (§II-D): the stock 3.5 ms cycle fragments the
   EDSR gradient stream, the tuned cycle produces Table I's large bins;
3. hierarchical vs flat-ring allreduce at multi-node scale;
4. the CUDA 10.1 gate: MV2_VISIBLE_DEVICES is inert on older runtimes;
5. fusion threshold sweep.
"""

from __future__ import annotations

import pytest

from repro.core import MPI_OPT, ScalingStudy, StudyConfig
from repro.core.calibration import HOROVOD_TUNED
from repro.cuda.runtime import CudaVersion
from repro.hardware import LASSEN, Cluster
from repro.horovod import HorovodConfig, PendingTensor, TensorFusion
from repro.models import get_model_cost
from repro.mpi import Mv2Config, MpiWorld, WorldSpec
from repro.mpi.collectives import ExecutionMode
from repro.mpi.collectives.allreduce import allreduce_timing
from repro.mpi.process import SingletonDevicePolicy
from repro.sim import Environment
from repro.utils.tables import TextTable
from repro.utils.units import MIB


def _world(num_gpus, mode, config=None):
    cluster = Cluster(Environment(), LASSEN, num_nodes=max(1, num_gpus // 4))
    spec = WorldSpec(
        num_ranks=num_gpus,
        policy=SingletonDevicePolicy(),
        config=config or Mv2Config(mv2_visible_devices="all", registration_cache=True),
    )
    return MpiWorld(cluster, spec, mode=mode)


def test_ablation_analytic_vs_event_engine(benchmark, save_report):
    """The closed-form engine must track the contention-simulating engine."""

    def compute():
        rows = []
        for nbytes in (1 * MIB, 16 * MIB, 64 * MIB):
            times = {}
            for mode in (ExecutionMode.ANALYTIC, ExecutionMode.EVENT):
                world = _world(8, mode)
                t = allreduce_timing(
                    world.coster, list(range(8)), nbytes, algorithm="hierarchical"
                )
                times[mode] = t.time
            rows.append((nbytes, times[ExecutionMode.ANALYTIC],
                         times[ExecutionMode.EVENT]))
        return rows

    rows = benchmark.pedantic(compute, rounds=1, iterations=1)
    table = TextTable(
        ["Message", "analytic (ms)", "event (ms)", "ratio"],
        title="Ablation — analytic vs event-driven collective timing",
    )
    for nbytes, analytic, event in rows:
        table.add_row(
            f"{nbytes // MIB} MiB", analytic * 1e3, event * 1e3, event / analytic
        )
    save_report("ablation_engines", table.render())
    for _, analytic, event in rows:
        assert 0.55 < event / analytic < 1.8


def test_ablation_cycle_time_tuning(benchmark, save_report):
    """§II-D: tuned cycle time turns a fragmented message stream into the
    16-64 MB fused buffers of Table I."""

    def compute():
        cost = get_model_cost("edsr-paper")
        backward = 0.30
        tensors = [
            PendingTensor(t.name, t.nbytes, ready_time=t.ready_fraction * backward)
            for t in cost.gradient_schedule()
        ]
        out = {}
        for label, cycle in (("stock 3.5 ms", 3.5e-3), ("tuned 55 ms", 55e-3)):
            plan = TensorFusion(
                HorovodConfig(cycle_time_s=cycle)
            ).plan(tensors)
            sizes = plan.message_sizes()
            out[label] = {
                "messages": len(sizes),
                "max_mb": max(sizes) / MIB,
                "large": sum(1 for s in sizes if s >= 16 * MIB),
            }
        return out

    data = benchmark.pedantic(compute, rounds=1, iterations=1)
    table = TextTable(
        ["Cycle time", "messages", "largest (MiB)", ">=16 MiB msgs"],
        title="Ablation — HOROVOD_CYCLE_TIME tuning on the EDSR stream",
    )
    for label, d in data.items():
        table.add_row(label, d["messages"], f"{d['max_mb']:.1f}", d["large"])
    save_report("ablation_cycle_time", table.render())

    assert data["stock 3.5 ms"]["large"] == 0
    assert data["tuned 55 ms"]["large"] >= 2
    assert data["tuned 55 ms"]["messages"] < data["stock 3.5 ms"]["messages"]


def test_ablation_hierarchical_vs_flat_ring(benchmark, save_report):
    """Two-level allreduce vs flat ring across 8 nodes (32 GPUs)."""

    def compute():
        world = _world(32, ExecutionMode.ANALYTIC)
        nbytes = 32 * MIB
        flat = allreduce_timing(
            world.coster, list(range(32)), nbytes, algorithm="ring"
        ).time
        world2 = _world(32, ExecutionMode.ANALYTIC)
        hier = allreduce_timing(
            world2.coster, list(range(32)), nbytes, algorithm="hierarchical"
        ).time
        return flat, hier

    flat, hier = benchmark.pedantic(compute, rounds=1, iterations=1)
    save_report(
        "ablation_hierarchical",
        f"32 MiB allreduce over 32 GPUs / 8 nodes:\n"
        f"  flat ring:    {flat * 1e3:.2f} ms\n"
        f"  hierarchical: {hier * 1e3:.2f} ms",
    )
    assert hier < flat  # node-aware two-level wins on NVLink-dense nodes


def test_ablation_cuda_version_gate(benchmark, save_report):
    """MV2_VISIBLE_DEVICES only works on CUDA >= 10.1 (paper §III-C)."""

    def compute():
        out = {}
        for label, version in (("CUDA 10.0", CudaVersion(10, 0)),
                               ("CUDA 10.2", CudaVersion(10, 2))):
            cluster = Cluster(Environment(), LASSEN, num_nodes=1)
            spec = WorldSpec(
                num_ranks=4,
                policy=SingletonDevicePolicy(),
                config=Mv2Config(mv2_visible_devices="all",
                                 registration_cache=True),
                cuda_version=version,
            )
            world = MpiWorld(cluster, spec)
            out[label] = world.transport.select(0, 1, 64 * MIB).value
        return out

    data = benchmark.pedantic(compute, rounds=1, iterations=1)
    save_report(
        "ablation_cuda_gate",
        "\n".join(f"{k}: 64 MiB intra-node transport = {v}" for k, v in data.items()),
    )
    assert data["CUDA 10.0"] == "host-staged"
    assert data["CUDA 10.2"] == "cuda-ipc"


@pytest.mark.parametrize("threshold_mib", [8, 64, 256])
def test_ablation_fusion_threshold(benchmark, threshold_mib):
    """Fusion threshold bounds message sizes without losing bytes."""

    def compute():
        cost = get_model_cost("edsr-paper")
        tensors = [
            PendingTensor(t.name, t.nbytes, ready_time=0.0)
            for t in cost.gradient_schedule()
        ]
        plan = TensorFusion(
            HorovodConfig(fusion_threshold=threshold_mib * MIB, cycle_time_s=0.0)
        ).plan(tensors)
        return plan.messages, cost.gradient_bytes

    messages, total = benchmark.pedantic(compute, rounds=1, iterations=1)
    assert sum(m.nbytes for m in messages) == total
    # fused buffers respect the threshold; a single tensor larger than the
    # threshold is sent alone (Horovod's oversize rule)
    for m in messages:
        if m.fused:
            assert m.nbytes <= threshold_mib * MIB


def test_ablation_straggler_sensitivity(benchmark, save_report):
    """Compute jitter is a real term in the 512-GPU efficiency story."""

    def compute():
        calm = StudyConfig(measure_steps=1, jitter_sigma=0.0)
        noisy = StudyConfig(measure_steps=1, jitter_sigma=0.05)
        return (
            ScalingStudy(MPI_OPT, calm).run_point(64).images_per_second,
            ScalingStudy(MPI_OPT, noisy).run_point(64).images_per_second,
        )

    calm_rate, noisy_rate = benchmark.pedantic(compute, rounds=1, iterations=1)
    save_report(
        "ablation_straggler",
        f"64-GPU MPI-Opt throughput: sigma=0 -> {calm_rate:.0f} img/s, "
        f"sigma=0.05 -> {noisy_rate:.0f} img/s",
    )
    assert noisy_rate < calm_rate


def test_ablation_response_cache(benchmark, save_report):
    """Horovod's response cache removes the per-rank coordinator cost on
    repeated tensor sets — a scale-relevant term at 512 ranks."""

    def compute():
        from repro.hardware.cluster import build_cluster
        from repro.comm import build_communicator
        from repro.horovod.engine import HorovodEngine
        from repro.mpi.process import WorldSpec
        from repro.models import get_model_cost

        cost = get_model_cost("edsr-paper")
        stream = [
            PendingTensor(t.name, t.nbytes, ready_time=t.ready_fraction * 0.30)
            for t in cost.gradient_schedule()
        ]
        out = {}
        for label, cached in (("off", False), ("on", True)):
            cluster = build_cluster(LASSEN, 128)
            spec = WorldSpec(num_ranks=128, policy=MPI_OPT.policy,
                             config=MPI_OPT.mv2)
            _, comm = build_communicator(cluster, "mpi", world_spec=spec)
            engine = HorovodEngine(
                comm,
                HorovodConfig(cycle_time_s=55e-3, response_cache=cached),
            )
            engine.run_step(stream, backward_time=0.30)  # warm the cache
            timing = engine.run_step(stream, backward_time=0.30)
            out[label] = timing.coordination_time
        return out

    data = benchmark.pedantic(compute, rounds=1, iterations=1)
    save_report(
        "ablation_response_cache",
        f"coordination per step at 128 GPUs: cache off {data['off'] * 1e3:.2f} ms, "
        f"cache on {data['on'] * 1e3:.2f} ms",
    )
    assert data["on"] < 0.5 * data["off"]


def test_ablation_eager_threshold(benchmark, save_report):
    """MV2_IBA_EAGER_THRESHOLD: small messages want the copy-based eager
    path (no handshake), large ones want zero-copy rendezvous."""

    def compute():
        from repro.hardware import Cluster as _Cluster
        from repro.mpi import MpiWorld as _World
        from repro.mpi.transports import TransportModel as _TM
        from repro.mpi.process import build_world as _build
        from repro.utils.units import KIB as _KIB

        rows = []
        for nbytes in (4 * _KIB, 64 * _KIB, 1 * MIB):
            times = {}
            for label, threshold in (("16K", 16 * _KIB), ("1M", 1 * MIB)):
                cluster = _Cluster(Environment(), LASSEN, num_nodes=2)
                config = Mv2Config(
                    mv2_visible_devices="all", registration_cache=True,
                    eager_threshold=threshold,
                )
                spec = WorldSpec(num_ranks=8, policy=SingletonDevicePolicy(),
                                 config=config)
                tm = _TM(cluster, config, _build(cluster, spec))
                tm.begin_collective()
                times[label] = tm.cost(0, 4, nbytes, src_buffer=1,
                                       dst_buffer=2).total
            rows.append((nbytes, times["16K"], times["1M"]))
        return rows

    rows = benchmark.pedantic(compute, rounds=1, iterations=1)
    table = TextTable(
        ["Size", "threshold 16K (us)", "threshold 1M (us)"],
        title="Ablation — MV2_IBA_EAGER_THRESHOLD (inter-node, cold cache)",
    )
    for nbytes, t16, t1m in rows:
        table.add_row(f"{nbytes}", f"{t16 * 1e6:.1f}", f"{t1m * 1e6:.1f}")
    save_report("ablation_eager_threshold", table.render())
    # 64 KiB message: eager (big threshold) avoids handshake+registration
    assert rows[1][2] < rows[1][1]
    # 1 MiB message: zero-copy rendezvous (small threshold) wins over the
    # double-copy eager path
    assert rows[2][1] < rows[2][2]
