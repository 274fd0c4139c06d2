"""Perf-regression harness: times the canonical workloads and writes
``BENCH_perf.json``.

Unlike the ``bench_fig*`` files (pytest-benchmark suites reproducing the
paper's figures), this runs standalone, with no benchmark plugin.  The
command line is the harness's (``benchmarks/harness.py``); CI runs::

    python benchmarks/bench_perf.py --quick --out BENCH_perf.json \
        --check-baseline benchmarks/baselines/BENCH_perf_baseline.json

Workloads:

* **fig10_sweep** — the Fig. 10 scenario sweep three ways: serial with
  every step simulated (the pre-perf-layer behaviour), through the fast
  path (steady-state extrapolation + result cache, cold), and again warm.
  Asserts the >=3x warm speedup and the paper-shape invariants (MPI-Opt
  beats MPI at scale) on the fast-path results.
* **fig14_profile** — the hvprof profiling run behind Fig. 14 / Table I,
  asserting the Table I bin structure (large bins improve >30%, small
  bins barely move).
* **functional_16rank** — a real 16-rank data-parallel training step
  (gradients actually averaged), the end-to-end latency anchor.
* **event_engine** — event-mode hierarchical allreduce at 16 ranks, run
  ``EVENT_RUNS`` times in fresh worlds; the median ``simulated
  events/sec`` is the regression metric compared against the baseline
  (wall-clock is too machine-dependent to gate on, and one quick run
  lasts about 0.05 s, short enough for host noise to decide it).  The
  median may fall ``EVENTS_FLOOR`` (30%) below the baseline's.
"""

from __future__ import annotations

import statistics
import tempfile

import numpy as np

# harness before repro: it puts ``src`` on ``sys.path``
from harness import floor, main, ratio, timed

from repro.core import MPI_DEFAULT, MPI_OPT, ScalingStudy, StudyConfig
from repro.core.scenarios import scenario_by_name
from repro.hardware import LASSEN, Cluster
from repro.horovod import HorovodConfig, HorovodEngine
from repro.mpi import MpiWorld, WorldSpec
from repro.mpi.collectives import ExecutionMode
from repro.mpi.collectives.allreduce import allreduce_timing
from repro.perf import ResultCache
from repro.profiling import Hvprof, improvement_summary
from repro.sim import Environment

MIB = 1024 * 1024
#: event-engine runs per report, each in a fresh world; the gate reads
#: their median rate
EVENT_RUNS = 5
#: allowed fall of the median events/sec below its baseline
EVENTS_FLOOR = floor(0.30)


def _bench_config(**overrides) -> StudyConfig:
    """Zero-jitter performance mode: every step identical, so steady-state
    extrapolation is exact and results are machine-independent."""
    defaults = dict(measure_steps=8, jitter_sigma=0.0)
    defaults.update(overrides)
    return StudyConfig(**defaults)


def _sweep(scenarios, gpu_counts, config, **run_kwargs) -> dict:
    return {
        name: ScalingStudy(scenario_by_name(name), config).run(
            gpu_counts, **run_kwargs
        )
        for name in scenarios
    }


def time_fig10_sweep(quick: bool, jobs: int) -> dict:
    scenarios = ["MPI", "MPI-Opt"] if quick else ["MPI", "MPI-Opt", "NCCL"]
    gpu_counts = [4, 8, 16, 32] if quick else [4, 8, 16, 32, 64, 128, 256, 512]
    serial_cfg = _bench_config(steady_detect=False)
    fast_cfg = _bench_config()

    serial, serial_s = timed(_sweep, scenarios, gpu_counts, serial_cfg)
    with tempfile.TemporaryDirectory() as tmp:
        cache = ResultCache(tmp)
        cold, cold_s = timed(
            _sweep, scenarios, gpu_counts, fast_cfg, jobs=jobs, cache=cache
        )
        warm, warm_s = timed(
            _sweep, scenarios, gpu_counts, fast_cfg, jobs=jobs, cache=cache
        )
        cache_stats = cache.stats()

    # fast-path correctness: warm is byte-identical to cold (same digests),
    # and extrapolation tracks the fully-simulated serial run to ulp noise
    for name in scenarios:
        for pc, pw, ps in zip(cold[name], warm[name], serial[name]):
            assert pw.step_time == pc.step_time, "warm cache diverged from cold"
            assert abs(pc.step_time - ps.step_time) <= 1e-12 * ps.step_time, (
                f"extrapolated {name}@{pc.num_gpus} drifted: "
                f"{pc.step_time} vs {ps.step_time}"
            )

    # paper shape (Fig. 10/12): the optimized stack scales better
    top = gpu_counts[-1]
    mpi_eff = next(p for p in warm["MPI"] if p.num_gpus == top).efficiency
    opt_eff = next(p for p in warm["MPI-Opt"] if p.num_gpus == top).efficiency
    assert opt_eff > mpi_eff, (
        f"MPI-Opt efficiency ({opt_eff:.3f}) must beat MPI ({mpi_eff:.3f}) "
        f"at {top} GPUs"
    )

    speedup_warm = ratio(serial_s, warm_s)
    assert speedup_warm >= 3.0, (
        f"warm fast path only {speedup_warm:.1f}x over serial (need >=3x)"
    )
    return {
        "scenarios": scenarios,
        "gpu_counts": gpu_counts,
        "serial_s": serial_s,
        "cold_s": cold_s,
        "warm_s": warm_s,
        "speedup_cold": ratio(serial_s, cold_s),
        "speedup_warm": speedup_warm,
        "mpi_efficiency_top": mpi_eff,
        "mpi_opt_efficiency_top": opt_eff,
        "cache": cache_stats,
    }


def time_fig14_profile(quick: bool) -> dict:
    steps = 20 if quick else 100
    config = StudyConfig(measure_steps=steps)

    def profile() -> dict[str, Hvprof]:
        profiles = {}
        for scenario in (MPI_DEFAULT, MPI_OPT):
            hv = profiles[scenario.name] = Hvprof()
            ScalingStudy(scenario, config).run_point(4, hvprof=hv)
        return profiles

    profiles, wall_s = timed(profile)

    # Table I bin structure: large bins improve ~50%, total lands 30-62%
    summary = improvement_summary(profiles["MPI"], profiles["MPI-Opt"])
    large = [
        summary[label]
        for label in ("16 MB - 32 MB", "32 MB - 64 MB")
        if label in summary and summary[label] != 0.0
    ]
    assert large, "no populated large bins in the hvprof profile"
    for improvement in large:
        assert improvement > 30.0, f"large-bin improvement {improvement:.1f}% < 30%"
    assert 30.0 < summary["Total"] < 62.0, (
        f"total improvement {summary['Total']:.1f}% outside the Table I band"
    )
    return {"steps": steps, "wall_s": wall_s, "total_improvement_pct": summary["Total"]}


def time_functional_step(quick: bool) -> dict:
    """Real 16-rank data-parallel training steps: gradients actually
    computed by the numpy autograd stack and averaged through the MPI
    communicator (the integration-suite workload at benchmark scale)."""
    from repro.data import DegradationConfig, SRDataset, SyntheticDiv2k
    from repro.models import EDSR, EDSR_TINY
    from repro.trainer import DistributedTrainer

    num_ranks = 16
    steps = 1 if quick else 3
    cluster = Cluster(Environment(), LASSEN, num_nodes=num_ranks // 4)
    spec = WorldSpec(
        num_ranks=num_ranks, policy=MPI_OPT.policy, config=MPI_OPT.mv2
    )
    world = MpiWorld(cluster, spec)
    engine = HorovodEngine(world.communicator(), HorovodConfig(cycle_time_s=1e-3))
    src = SyntheticDiv2k(height=32, width=32, seed=3)
    dataset = SRDataset(src, split="train", degradation=DegradationConfig(scale=2))

    def train():
        trainer = DistributedTrainer(
            lambda rank: EDSR(EDSR_TINY, rng=np.random.default_rng(50 + rank)),
            engine, dataset, batch_per_rank=1, lr_patch=8, seed=4,
        )
        return trainer.train(steps=steps)

    result, wall_s = timed(train)
    assert len(result.losses) == steps
    return {"ranks": num_ranks, "steps": steps, "wall_s": wall_s}


def _event_run(iterations: int) -> tuple[int, float, float]:
    """``iterations`` event-mode hierarchical allreduces on a fresh
    16-rank world: (events, wall seconds, simulated seconds)."""
    num_ranks = 16
    cluster = Cluster(Environment(), LASSEN, num_nodes=num_ranks // 4)
    spec = WorldSpec(
        num_ranks=num_ranks, policy=MPI_OPT.policy, config=MPI_OPT.mv2
    )
    world = MpiWorld(cluster, spec, mode=ExecutionMode.EVENT)
    ranks = list(range(num_ranks))

    def run() -> float:
        sim_time = 0.0
        for _ in range(iterations):
            t = allreduce_timing(
                world.coster, ranks, 16 * MIB, algorithm="hierarchical"
            )
            sim_time += t.time
        return sim_time

    sim_time, wall_s = timed(run)
    return cluster.env.events_processed, wall_s, sim_time


def time_event_engine(quick: bool) -> dict:
    """Event-mode hierarchical allreduce: the events/sec regression metric,
    the median of ``EVENT_RUNS`` runs."""
    iterations = 30 if quick else 100
    runs = [_event_run(iterations) for _ in range(EVENT_RUNS)]
    events, _, sim_time = runs[0]
    # the simulation is deterministic: only the wall clock may differ
    assert all(r[0] == events and r[2] == sim_time for r in runs), runs
    walls = [wall_s for _, wall_s, _ in runs]
    rates = [ratio(events, wall_s) for wall_s in walls]
    return {
        "iterations": iterations,
        "wall_s": walls,
        "events": events,
        "rates": rates,
        "events_per_sec": statistics.median(rates),
        "simulated_time_s": sim_time,
    }


def measure(args) -> dict:
    print("[bench_perf] fig10 sweep ...")
    sweep = time_fig10_sweep(args.quick, args.jobs)
    print("[bench_perf]   serial {serial_s:.2f}s  cold {cold_s:.2f}s  "
          "warm {warm_s:.3f}s  ({speedup_warm:.0f}x warm)".format(**sweep))
    print("[bench_perf] fig14 hvprof profile ...")
    profile = time_fig14_profile(args.quick)
    print("[bench_perf]   {wall_s:.2f}s, Table I total "
          "{total_improvement_pct:.1f}%".format(**profile))
    print("[bench_perf] functional 16-rank step ...")
    functional = time_functional_step(args.quick)
    print("[bench_perf]   {wall_s:.2f}s".format(**functional))
    print(f"[bench_perf] event engine ({EVENT_RUNS} runs) ...")
    event = time_event_engine(args.quick)
    print("[bench_perf]   {} events per run, {} events/s, median {:.0f}/s".format(
        event["events"], " / ".join(f"{r:.0f}" for r in event["rates"]),
        event["events_per_sec"]))
    return {
        "jobs": args.jobs,
        "workloads": {
            "fig10_sweep": sweep,
            "fig14_profile": profile,
            "functional_16rank": functional,
            "event_engine": event,
        },
        "events_per_sec": event["events_per_sec"],
        "sweep_speedup_warm": sweep["speedup_warm"],
    }


def check(report: dict, baseline: dict) -> list[str]:
    return EVENTS_FLOOR("median events/sec", report["events_per_sec"],
                        baseline.get("events_per_sec"))


if __name__ == "__main__":
    raise SystemExit(main("perf", __doc__, measure, check, jobs=True))
