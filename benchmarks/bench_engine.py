"""Engine fast-path regression harness: writes ``BENCH_engine.json``.

Standalone (no pytest-benchmark plugin) like ``bench_comm.py`` so CI can
run it directly and diff against a committed baseline::

    python benchmarks/bench_engine.py --quick --out BENCH_engine.json \
        --check-baseline benchmarks/baselines/BENCH_engine_baseline.json

Workloads:

* **scaling_study** — runs the default scaling study (MPI-Opt, default
  ``StudyConfig``) point by point on the walk oracle
  (``repro.sim.fastpath.walk_oracle``, reported as ``exact``) and on the
  default engine with its ring closed form (``fast``), asserting
  full-dataclass bit-identity at every world size and recording the
  wall-clock speedup.  The acceptance gate: the largest world must run
  at least ``--min-speedup`` (default 5x) faster on the default engine.
  The *simulated* images/s anchors are
  machine-independent and baseline-checked exactly — any drift means
  the cost model changed (regenerate the baseline and bump the digest
  salt).
* **serve_trace** — generates the homogeneous-Poisson arrival trace with
  the walk oracle's scalar loop and the default vectorized generator,
  asserting the traces are
  identical and reporting the generation speedup (informational: trace
  generation is not the serving bottleneck).
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys
from time import perf_counter

sys.path.insert(
    0, os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "src")
)

from repro.core import ScalingStudy, StudyConfig, scenario_by_name
from repro.sim.fastpath import walk_oracle


def run_point(num_gpus: int, mode: str):
    """One point on the walk oracle (``"exact"``) or the default engine."""
    study = ScalingStudy(scenario_by_name("MPI-Opt"), StudyConfig())
    with walk_oracle(mode == "exact"):
        t0 = perf_counter()
        point = study.run_point(num_gpus)
        return point, perf_counter() - t0


def time_scaling_study(quick: bool) -> dict:
    gpu_counts = (64, 512) if quick else (16, 64, 128, 256, 512)
    points = {}
    anchors = {}
    speedups = {}
    for num_gpus in gpu_counts:
        exact, exact_s = run_point(num_gpus, "exact")
        fast, fast_s = run_point(num_gpus, "fast")
        assert dataclasses.asdict(exact) == dataclasses.asdict(fast), (
            f"default engine diverged from the walk oracle at {num_gpus} GPUs"
        )
        anchors[str(num_gpus)] = fast.images_per_second
        speedups[str(num_gpus)] = exact_s / fast_s if fast_s > 0 else float("inf")
        points[num_gpus] = (exact_s, fast_s)
    largest = str(max(gpu_counts))
    return {
        "gpu_counts": list(gpu_counts),
        "exact_s": {str(g): points[g][0] for g in gpu_counts},
        "fast_s": {str(g): points[g][1] for g in gpu_counts},
        "speedups": speedups,
        "largest_world_speedup": speedups[largest],
        # machine-independent: simulated images/s per world size
        "anchors": anchors,
    }


def time_serve_trace(quick: bool) -> dict:
    from repro.serve.workload import WorkloadConfig, generate_arrivals

    duration_s = 120.0 if quick else 600.0
    cfg = WorkloadConfig(kind="poisson", rate_rps=200.0)
    with walk_oracle():
        t0 = perf_counter()
        exact = generate_arrivals(cfg, duration_s, 7)
        exact_s = perf_counter() - t0
    t0 = perf_counter()
    fast = generate_arrivals(cfg, duration_s, 7)
    fast_s = perf_counter() - t0
    assert exact == fast, "vectorized Poisson trace diverged from scalar loop"
    return {
        "requests": len(exact),
        "exact_s": exact_s,
        "fast_s": fast_s,
        "speedup": exact_s / fast_s if fast_s > 0 else float("inf"),
    }


def check_baseline(report: dict, baseline_path: str) -> list[str]:
    with open(baseline_path, "r", encoding="utf-8") as fh:
        baseline = json.load(fh)
    failures = []
    # simulated throughputs are machine-independent: exact match
    anchors = report["anchors"]
    for key, base_rate in baseline.get("anchors", {}).items():
        got = anchors.get(key)
        if got is not None and got != base_rate:
            failures.append(
                f"anchor {key} GPUs drifted: {got!r} != baseline {base_rate!r} "
                f"(cost model changed — regenerate baseline + bump salt)"
            )
    return failures


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--quick", action="store_true",
                        help="reduced grid for CI smoke runs")
    parser.add_argument("--out", default="BENCH_engine.json")
    parser.add_argument("--check-baseline", default=None, metavar="PATH",
                        help="fail on simulated-throughput drift")
    parser.add_argument("--min-speedup", type=float, default=5.0,
                        help="required speedup of the default engine over "
                             "the walk oracle at the largest world size")
    args = parser.parse_args(argv)

    workloads = {}
    print(f"[bench_engine] scaling study "
          f"({'quick' if args.quick else 'full'}) ...")
    workloads["scaling_study"] = time_scaling_study(args.quick)
    for g in workloads["scaling_study"]["gpu_counts"]:
        key = str(g)
        print("[bench_engine]   {:>4} GPUs  exact {:.3f}s  fast {:.3f}s  "
              "speedup {:.1f}x".format(
                  g,
                  workloads["scaling_study"]["exact_s"][key],
                  workloads["scaling_study"]["fast_s"][key],
                  workloads["scaling_study"]["speedups"][key]))
    print("[bench_engine] serve arrival trace ...")
    workloads["serve_trace"] = time_serve_trace(args.quick)
    print("[bench_engine]   {requests} arrivals  exact {exact_s:.3f}s  "
          "fast {fast_s:.3f}s  speedup {speedup:.1f}x".format(
              **workloads["serve_trace"]))

    report = {
        "quick": args.quick,
        "workloads": workloads,
        "anchors": workloads["scaling_study"]["anchors"],
        "largest_world_speedup":
            workloads["scaling_study"]["largest_world_speedup"],
    }
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=2, sort_keys=True)
        fh.write("\n")
    print(f"[bench_engine] wrote {args.out}")

    failures = []
    speedup = report["largest_world_speedup"]
    if speedup < args.min_speedup:
        failures.append(
            f"default-engine speedup at the largest world is {speedup:.1f}x, "
            f"below the {args.min_speedup:.1f}x acceptance floor"
        )
    if args.check_baseline:
        failures += check_baseline(report, args.check_baseline)
    for failure in failures:
        print(f"[bench_engine] FAIL: {failure}", file=sys.stderr)
    if failures:
        return 1
    if args.check_baseline:
        print(f"[bench_engine] baseline check passed ({args.check_baseline})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
