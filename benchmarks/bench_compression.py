"""Compression-suite regression harness: writes ``BENCH_compression.json``.

The command line is the harness's (``benchmarks/harness.py``); CI runs::

    python benchmarks/bench_compression.py --quick \
        --out BENCH_compression.json \
        --check-baseline benchmarks/baselines/BENCH_compression_baseline.json

Workloads:

* **wire_reduction** — scaling points per compression mode;
  reports simulated bytes-on-wire per training step and throughput.  The
  acceptance claim is asserted inline: fp16 reduces bytes-on-wire by
  >= 1.7x at 512 ranks (it is exactly 2.0x by construction — the assert
  guards the wiring, the baseline guards the exact byte counts).  Top-k
  and local-SGD report both the wire reduction *and* the simulated
  throughput so the speed/accuracy trade stays visible.
* **psnr** — functional 4-rank EDSR training under each mode; asserts
  |PSNR(fp16) - PSNR(fp32)| <= 0.05 dB and reports top-k / local-SGD
  accuracy next to their speed numbers.  PSNR is baseline-checked with a
  tolerance (BLAS reductions are not bit-stable across machines); the
  simulated byte counts are machine-independent and checked exactly.
"""

from __future__ import annotations

import numpy as np

# harness before repro: it puts ``src`` on ``sys.path``
from harness import anchors, drift, main, timed

from repro.compression import CompressionConfig
from repro.core.scenarios import scenario_by_name
from repro.core.study import ScalingStudy, StudyConfig
from repro.data import DegradationConfig, SRDataset, SyntheticDiv2k
from repro.hardware import LASSEN, Cluster
from repro.horovod import HorovodConfig, HorovodEngine
from repro.models import EDSR, EDSR_TINY
from repro.mpi import MpiWorld, Mv2Config, WorldSpec
from repro.mpi.process import SingletonDevicePolicy
from repro.sim import Environment
from repro.trainer import DistributedTrainer, evaluate_sr

FP16_MIN_WIRE_REDUCTION = 1.7   # acceptance floor at 512 ranks
FP16_MAX_PSNR_DELTA_DB = 0.05   # acceptance ceiling vs fp32
#: PSNR may move this many dB: BLAS reductions vary across machines
PSNR_DRIFT = drift(absolute=0.2)


def run_scaling_point(num_gpus: int, **cfg) -> dict:
    study = ScalingStudy(scenario_by_name("MPI-Opt"), StudyConfig(**cfg))
    point, wall_s = timed(study.run_point, num_gpus)
    return {
        "bytes_per_step": sum(point.message_sizes),
        "messages_per_step": len(point.message_sizes),
        "images_per_second": point.images_per_second,
        "wall_s": wall_s,
    }


def time_wire_reduction(quick: bool) -> dict:
    # (label, config, ranks, period): a local-SGD run records the bytes
    # of one parameter-sync step, which amortizes over H training steps.
    # The sparse allgather sweep is the slow cell; keep it off the 512
    # column in quick mode.
    grid = [
        ("none", {}, 512, 1),
        ("fp16", {"compression": "fp16"}, 512, 1),
        ("bf16", {"compression": "bf16"}, 512, 1),
        ("local-sgd-h4", {"local_sgd_h": 4, "measure_steps": 8}, 512, 4),
        ("topk:0.01", {"compression": "topk:0.01"}, 64 if quick else 512, 1),
    ]
    points: dict[str, dict] = {}
    for label, cfg, ranks, period in grid:
        point = run_scaling_point(ranks, **cfg)
        point["ranks"] = ranks
        point["sync_period"] = period
        points[f"{label}x{ranks}"] = point

    dense = points["nonex512"]["bytes_per_step"]
    reductions = {
        key: dense * p["sync_period"] / p["bytes_per_step"]
        for key, p in points.items()
        if p["ranks"] == 512 and p["bytes_per_step"]
    }
    fp16_reduction = reductions["fp16x512"]
    assert fp16_reduction >= FP16_MIN_WIRE_REDUCTION, (
        f"fp16 bytes-on-wire reduction {fp16_reduction:.2f}x at 512 ranks "
        f"is below the {FP16_MIN_WIRE_REDUCTION}x acceptance floor"
    )
    return {
        "points": points,
        "wire_reduction_vs_dense": reductions,
        "fp16_reduction": fp16_reduction,
        # machine-independent: simulated bytes + throughput per mode
        "anchors": {
            key: [p["bytes_per_step"], p["images_per_second"]]
            for key, p in points.items()
        },
    }


def run_functional(compression: str, local_sgd_h: int, steps: int) -> dict:
    cluster = Cluster(Environment(), LASSEN, num_nodes=1)
    spec = WorldSpec(num_ranks=4, policy=SingletonDevicePolicy(),
                     config=Mv2Config(mv2_visible_devices="all"))
    world = MpiWorld(cluster, spec)
    engine = HorovodEngine(
        world.communicator(), HorovodConfig(cycle_time_s=2e-3),
        compression=CompressionConfig.parse(compression),
    )
    dataset = SRDataset(SyntheticDiv2k(height=24, width=24, seed=7),
                        split="train",
                        degradation=DegradationConfig(scale=2))
    trainer = DistributedTrainer(
        lambda rank: EDSR(EDSR_TINY, rng=np.random.default_rng(50 + rank)),
        engine, dataset, batch_per_rank=1, lr_patch=8,
        local_sgd_h=local_sgd_h,
    )
    result, wall_s = timed(trainer.train, steps)
    metrics = evaluate_sr(trainer.models[0], dataset, max_images=4)
    return {
        "psnr": metrics["psnr"],
        "final_loss": result.final_loss,
        "simulated_images_per_second": result.simulated_images_per_second,
        "wall_s": wall_s,
    }


def time_psnr(quick: bool) -> dict:
    steps = 30 if quick else 60
    runs = {
        "none": run_functional("none", 1, steps),
        "fp16": run_functional("fp16", 1, steps),
        "topk:0.01": run_functional("topk:0.01", 1, steps),
        "local-sgd-h4": run_functional("none", 4, steps),
    }
    fp16_delta = abs(runs["fp16"]["psnr"] - runs["none"]["psnr"])
    assert fp16_delta <= FP16_MAX_PSNR_DELTA_DB, (
        f"fp16 PSNR delta {fp16_delta:.4f} dB vs fp32 exceeds the "
        f"{FP16_MAX_PSNR_DELTA_DB} dB acceptance ceiling"
    )
    return {
        "steps": steps,
        "runs": runs,
        "fp16_psnr_delta_db": fp16_delta,
        "psnr": {label: r["psnr"] for label, r in runs.items()},
    }


def measure(args) -> dict:
    print("[bench_compression] wire reduction ...")
    wire = time_wire_reduction(args.quick)
    for key, ratio in sorted(wire["wire_reduction_vs_dense"].items()):
        print(f"[bench_compression]   {key}: {ratio:.2f}x fewer bytes")
    print("[bench_compression] functional PSNR ...")
    psnr = time_psnr(args.quick)
    for label, run in psnr["runs"].items():
        print(f"[bench_compression]   {label}: psnr={run['psnr']:.4f} dB  "
              f"sim={run['simulated_images_per_second']:.1f} img/s  "
              f"wall={run['wall_s']:.1f}s")
    print(f"[bench_compression]   fp16 delta {psnr['fp16_psnr_delta_db']:.4f} "
          f"dB (<= {FP16_MAX_PSNR_DELTA_DB})")
    return {
        "workloads": {"wire_reduction": wire, "psnr": psnr},
        "anchors": wire["anchors"],
        "fp16_reduction": wire["fp16_reduction"],
        "psnr": psnr["psnr"],
    }


def check(report: dict, baseline: dict) -> list[str]:
    if baseline.get("quick") != report["quick"]:
        # grid sizes differ; nothing is comparable like-for-like
        return []
    # simulated byte counts and throughputs are machine-independent: exact
    failures = anchors(report["anchors"], baseline.get("anchors", {}))
    psnr = report["workloads"]["psnr"]["psnr"]
    for label, base in baseline.get("psnr", {}).items():
        if label in psnr:
            failures += PSNR_DRIFT(f"PSNR({label})", psnr[label], base)
    return failures


if __name__ == "__main__":
    raise SystemExit(main("compression", __doc__, measure, check))
