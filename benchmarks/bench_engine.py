"""Engine fast-path regression harness: writes ``BENCH_engine.json``.

The command line is the harness's (``benchmarks/harness.py``); CI runs::

    python benchmarks/bench_engine.py --quick --out BENCH_engine.json \
        --check-baseline benchmarks/baselines/BENCH_engine_baseline.json

Workloads:

* **scaling_study** — runs the default scaling study (MPI-Opt, default
  ``StudyConfig``) point by point on the walk oracle
  (``repro.sim.fastpath.walk_oracle``, reported as ``exact``) and on the
  default engine with its ring closed form (``fast``), asserting
  full-dataclass bit-identity at every world size and recording the
  wall-clock speedup.  The acceptance gate: the largest world must run
  at least ``MIN_SPEEDUP`` (5x) faster on the default engine, on every
  run, with or without a baseline.
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

import dataclasses

# harness before repro: it puts ``src`` on ``sys.path``
from harness import anchors, main, ratio, timed

from repro.core import ScalingStudy, StudyConfig, scenario_by_name
from repro.sim.fastpath import walk_oracle

#: required speedup of the default engine over the walk oracle at the
#: largest world size
MIN_SPEEDUP = 5.0


def run_point(num_gpus: int, mode: str):
    """One point on the walk oracle (``"exact"``) or the default engine."""
    study = ScalingStudy(scenario_by_name("MPI-Opt"), StudyConfig())
    with walk_oracle(mode == "exact"):
        return timed(study.run_point, num_gpus)


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
        speedups[str(num_gpus)] = ratio(exact_s, fast_s)
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
        exact, exact_s = timed(generate_arrivals, cfg, duration_s, 7)
    fast, fast_s = timed(generate_arrivals, cfg, duration_s, 7)
    assert exact == fast, "vectorized Poisson trace diverged from scalar loop"
    return {
        "requests": len(exact),
        "exact_s": exact_s,
        "fast_s": fast_s,
        "speedup": ratio(exact_s, fast_s),
    }


def measure(args) -> dict:
    print("[bench_engine] scaling study ...")
    study = time_scaling_study(args.quick)
    for g in study["gpu_counts"]:
        key = str(g)
        print("[bench_engine]   {:>4} GPUs  walk oracle {:.3f}s  default "
              "engine {:.3f}s  speedup {:.1f}x".format(
                  g, study["exact_s"][key], study["fast_s"][key],
                  study["speedups"][key]))
    print("[bench_engine] serve arrival trace ...")
    trace = time_serve_trace(args.quick)
    print("[bench_engine]   {requests} arrivals  walk oracle {exact_s:.3f}s  "
          "default engine {fast_s:.3f}s  speedup {speedup:.1f}x".format(
              **trace))
    return {
        "workloads": {"scaling_study": study, "serve_trace": trace},
        "anchors": study["anchors"],
        "largest_world_speedup": study["largest_world_speedup"],
    }


def check(report: dict, baseline: dict) -> list[str]:
    failures = []
    speedup = report["largest_world_speedup"]
    if speedup < MIN_SPEEDUP:
        failures.append(
            f"default-engine speedup at the largest world is {speedup:.1f}x, "
            f"below the {MIN_SPEEDUP:.1f}x acceptance floor"
        )
    # simulated throughputs are machine-independent: exact match
    return failures + anchors(report["anchors"], baseline.get("anchors", {}))


if __name__ == "__main__":
    raise SystemExit(main("engine", __doc__, measure, check))
