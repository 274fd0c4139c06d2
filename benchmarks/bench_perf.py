"""Perf-regression harness: times the canonical workloads and writes
``BENCH_perf.json``.

Unlike the ``bench_fig*`` files (pytest-benchmark suites reproducing the
paper's figures), this is a standalone script so CI can run it without a
benchmark plugin and diff the result against a committed baseline::

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
  lasts about 0.05 s, short enough for host noise to decide it).
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import sys
import tempfile
from time import perf_counter

sys.path.insert(
    0, os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "src")
)

import numpy as np

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


def _bench_config(**overrides) -> StudyConfig:
    """Zero-jitter performance mode: every step identical, so steady-state
    extrapolation is exact and results are machine-independent."""
    defaults = dict(measure_steps=8, jitter_sigma=0.0)
    defaults.update(overrides)
    return StudyConfig(**defaults)


def _cached_sweep(scenarios, gpu_counts, config, jobs: int, cache) -> dict:
    return {
        name: ScalingStudy(scenario_by_name(name), config).run(
            gpu_counts, jobs=jobs, cache=cache
        )
        for name in scenarios
    }


def time_fig10_sweep(quick: bool, jobs: int) -> dict:
    scenarios = ["MPI", "MPI-Opt"] if quick else ["MPI", "MPI-Opt", "NCCL"]
    gpu_counts = [4, 8, 16, 32] if quick else [4, 8, 16, 32, 64, 128, 256, 512]
    serial_cfg = _bench_config(steady_detect=False)
    fast_cfg = _bench_config()

    t0 = perf_counter()
    serial = {
        name: ScalingStudy(scenario_by_name(name), serial_cfg).run(gpu_counts)
        for name in scenarios
    }
    serial_s = perf_counter() - t0

    with tempfile.TemporaryDirectory() as tmp:
        cache = ResultCache(tmp)
        t0 = perf_counter()
        cold = _cached_sweep(scenarios, gpu_counts, fast_cfg, jobs, cache)
        cold_s = perf_counter() - t0
        t0 = perf_counter()
        warm = _cached_sweep(scenarios, gpu_counts, fast_cfg, jobs, cache)
        warm_s = perf_counter() - t0
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

    speedup_warm = serial_s / warm_s if warm_s > 0 else float("inf")
    assert speedup_warm >= 3.0, (
        f"warm fast path only {speedup_warm:.1f}x over serial (need >=3x)"
    )
    return {
        "scenarios": scenarios,
        "gpu_counts": gpu_counts,
        "serial_s": serial_s,
        "cold_s": cold_s,
        "warm_s": warm_s,
        "speedup_cold": serial_s / cold_s if cold_s > 0 else float("inf"),
        "speedup_warm": speedup_warm,
        "mpi_efficiency_top": mpi_eff,
        "mpi_opt_efficiency_top": opt_eff,
        "cache": cache_stats,
    }


def time_fig14_profile(quick: bool) -> dict:
    steps = 20 if quick else 100
    config = StudyConfig(measure_steps=steps)
    profiles = {}
    t0 = perf_counter()
    for scenario in (MPI_DEFAULT, MPI_OPT):
        hv = Hvprof()
        ScalingStudy(scenario, config).run_point(4, hvprof=hv)
        profiles[scenario.name] = hv
    wall_s = perf_counter() - t0

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

    t0 = perf_counter()
    trainer = DistributedTrainer(
        lambda rank: EDSR(EDSR_TINY, rng=np.random.default_rng(50 + rank)),
        engine, dataset, batch_per_rank=1, lr_patch=8, seed=4,
    )
    result = trainer.train(steps=steps)
    wall_s = perf_counter() - t0
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
    t0 = perf_counter()
    sim_time = 0.0
    for _ in range(iterations):
        t = allreduce_timing(world.coster, ranks, 16 * MIB, algorithm="hierarchical")
        sim_time += t.time
    wall_s = perf_counter() - t0
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
    rates = [events / wall_s if wall_s > 0 else float("inf") for wall_s in walls]
    return {
        "iterations": iterations,
        "wall_s": walls,
        "events": events,
        "rates": rates,
        "events_per_sec": statistics.median(rates),
        "simulated_time_s": sim_time,
    }


def check_baseline(report: dict, baseline_path: str, tolerance: float) -> list[str]:
    with open(baseline_path, "r", encoding="utf-8") as fh:
        baseline = json.load(fh)
    failures = []
    base_rate = baseline.get("events_per_sec")
    rate = report["events_per_sec"]
    if base_rate and rate < base_rate * (1.0 - tolerance):
        failures.append(
            f"median events/sec regressed: {rate:.0f} < {base_rate:.0f} "
            f"- {tolerance:.0%} tolerance"
        )
    return failures


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--quick", action="store_true",
                        help="reduced sweep for CI smoke runs")
    parser.add_argument("--out", default="BENCH_perf.json")
    parser.add_argument("--jobs", type=int, default=max(1, os.cpu_count() or 1))
    parser.add_argument("--check-baseline", default=None, metavar="PATH",
                        help="fail if median events/sec regresses vs this baseline")
    parser.add_argument("--tolerance", type=float, default=0.30,
                        help="allowed median events/sec regression fraction")
    args = parser.parse_args(argv)

    workloads = {}
    print(f"[bench_perf] fig10 sweep ({'quick' if args.quick else 'full'}) ...")
    workloads["fig10_sweep"] = time_fig10_sweep(args.quick, args.jobs)
    print(
        "[bench_perf]   serial {serial_s:.2f}s  cold {cold_s:.2f}s  "
        "warm {warm_s:.3f}s  ({speedup_warm:.0f}x warm)".format(
            **workloads["fig10_sweep"]
        )
    )
    print("[bench_perf] fig14 hvprof profile ...")
    workloads["fig14_profile"] = time_fig14_profile(args.quick)
    print("[bench_perf]   {wall_s:.2f}s, Table I total {total_improvement_pct:.1f}%".format(
        **workloads["fig14_profile"]))
    print("[bench_perf] functional 16-rank step ...")
    workloads["functional_16rank"] = time_functional_step(args.quick)
    print("[bench_perf]   {wall_s:.2f}s".format(**workloads["functional_16rank"]))
    print(f"[bench_perf] event engine ({EVENT_RUNS} runs) ...")
    event = workloads["event_engine"] = time_event_engine(args.quick)
    print("[bench_perf]   {} events per run, {} events/s, median {:.0f}/s".format(
        event["events"], " / ".join(f"{r:.0f}" for r in event["rates"]),
        event["events_per_sec"]))

    report = {
        "quick": args.quick,
        "jobs": args.jobs,
        "workloads": workloads,
        "events_per_sec": workloads["event_engine"]["events_per_sec"],
        "sweep_speedup_warm": workloads["fig10_sweep"]["speedup_warm"],
    }
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=2, sort_keys=True)
        fh.write("\n")
    print(f"[bench_perf] wrote {args.out}")

    if args.check_baseline:
        failures = check_baseline(report, args.check_baseline, args.tolerance)
        for failure in failures:
            print(f"[bench_perf] FAIL: {failure}", file=sys.stderr)
        if failures:
            return 1
        print(f"[bench_perf] baseline check passed ({args.check_baseline})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
