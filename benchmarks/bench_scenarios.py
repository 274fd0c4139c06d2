"""Scenario-layer regression harness: multi-scale and video workloads end
to end (study points and serving sessions), writing ``BENCH_scenarios.json``.

Standalone like ``bench_perf.py`` (no benchmark plugin needed) so CI can
run it and diff against a committed baseline::

    python benchmarks/bench_scenarios.py --quick --out BENCH_scenarios.json \
        --check-baseline benchmarks/baselines/BENCH_scenarios_baseline.json

Workloads:

* **study_scenarios** — the multiscale8 (x2/x4/x8 heads) and video
  (8-frame BPTT) study points at 16 ranks, run on the walk oracle
  (``repro.sim.fastpath.walk_oracle``, uncached) and on the default
  engine cold then warm through the result cache; asserts fast == exact
  and warm == cold byte-identically.  The regression gate is the simulated
  ``images_per_second`` / ``step_time`` per spec: fully deterministic, so
  any drift means the scenario pricing or the periodic step structure
  changed — intentional changes must update the baseline (and the cache
  salt).
* **video_serve** — the session-affine video serving cell with a
  mid-stream replica failure on the walk oracle and the default engine;
  asserts frame
  conservation per session, failure detection, at least one session
  re-home, and fast/exact identity.  Gated on the jitter-buffer SLO
  metrics (late-frame ratio, rebuffers, p99 frame latency) and goodput.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import tempfile
from time import perf_counter

sys.path.insert(
    0, os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "src")
)

from repro.core import (
    MPI_OPT,
    MULTISCALE8_SPEC,
    VIDEO_SPEC,
    ScalingStudy,
    StudyConfig,
)
from repro.core.study import point_payload
from repro.faults import FaultPlan, RankFailure
from repro.perf import ResultCache
from repro.serve import (
    VIDEO_MIX,
    BatchingConfig,
    ServeScenario,
    WorkloadConfig,
    simulate_serve,
)
from repro.sim.fastpath import walk_oracle

SEED = 7
NUM_GPUS = 16


def _study_config(spec, steps: int) -> StudyConfig:
    return StudyConfig(measure_steps=steps, warmup_steps=1, workload=spec)


def time_study_scenarios(quick: bool) -> dict:
    steps = 16 if quick else 48
    specs = {"multiscale8": MULTISCALE8_SPEC, "video": VIDEO_SPEC}
    out = {}
    with tempfile.TemporaryDirectory() as tmp:
        cache = ResultCache(tmp)
        for name, spec in specs.items():
            config = _study_config(spec, steps)
            t0 = perf_counter()
            # uncached: the oracle enters no digest, so a cached walk would
            # serve the default engine's run
            with walk_oracle():
                [exact] = ScalingStudy(MPI_OPT, config).run([NUM_GPUS])
            [fast] = ScalingStudy(MPI_OPT, config).run([NUM_GPUS], cache=cache)
            cold_s = perf_counter() - t0
            assert point_payload(exact) == point_payload(fast), (
                f"{name}: default engine diverged from the walk oracle"
            )
            t0 = perf_counter()
            [warm] = ScalingStudy(MPI_OPT, config).run([NUM_GPUS], cache=cache)
            warm_s = perf_counter() - t0
            assert point_payload(warm) == point_payload(exact), (
                f"{name}: warm cache diverged from cold"
            )
            payload = point_payload(exact)
            assert payload["workload"] == spec.to_payload()
            out[name] = {
                "cold_s": cold_s,
                "warm_s": warm_s,
                "images_per_second": exact.images_per_second,
                "step_time": exact.step_time,
            }
        assert cache.stats()["hits"] >= len(specs)
    return {"num_gpus": NUM_GPUS, "measure_steps": steps, "specs": out}


def _video_scenario() -> ServeScenario:
    return ServeScenario(
        name="bench-video",
        workload=WorkloadConfig(kind="video", rate_rps=2.0, classes=VIDEO_MIX),
        batching=BatchingConfig(mix_scales=False),
        session_affinity=True,
    )


def time_video_serve(quick: bool) -> dict:
    duration_s = 40.0 if quick else 60.0
    # replica 0 is never the autoscaler's scale-down victim, so the
    # failure is guaranteed to land on live streams
    plan = FaultPlan(
        faults=(RankFailure(rank=0, time=duration_s / 3, down_s=25.0),)
    )
    t0 = perf_counter()
    with walk_oracle():
        exact = simulate_serve(
            _video_scenario(), duration_s=duration_s, seed=SEED,
            fault_plan=plan,
        )
    fast = simulate_serve(
        _video_scenario(), duration_s=duration_s, seed=SEED, fault_plan=plan
    )
    wall_s = perf_counter() - t0
    assert exact.to_payload() == fast.to_payload(), (
        "video serve: default engine diverged from the walk oracle"
    )
    s = exact.summary
    v = s["video"]
    assert s["completed"] + s["shed"] == s["arrived"], "requests dropped"
    assert v["frames_completed"] + v["frames_shed"] == v["frames_arrived"], (
        "frames dropped"
    )
    assert s["detections"] >= 1, "failure never detected"
    assert v["rehomes"] >= 1, "no session re-homed across the failure"
    return {
        "duration_s": duration_s,
        "wall_s": wall_s,
        "sessions": v["sessions"],
        "rehomes": v["rehomes"],
        "frames_completed": v["frames_completed"],
        "late_frame_ratio": v["late_frame_ratio"],
        "rebuffers": v["rebuffers"],
        "frame_p99_ms": v["frame_latency_ms"]["p99"],
        "goodput_rps": s["goodput_rps"],
    }


#: the deterministic metrics the baseline gates on, per workload
GATED = {
    "study_scenarios": ("images_per_second", "step_time"),
    "video_serve": (
        "frames_completed", "late_frame_ratio", "rebuffers",
        "frame_p99_ms", "goodput_rps",
    ),
}


def _drift(name: str, want: float, have: float, tolerance: float) -> str | None:
    if abs(have - want) > tolerance * max(abs(want), 1e-12):
        return (
            f"{name} drifted: {have:.6g} vs baseline {want:.6g} "
            f"(tolerance {tolerance:.0%}) — scenario semantics changed; "
            f"update the baseline and bump CACHE_VERSION_SALT if intentional"
        )
    return None


def check_baseline(report: dict, baseline_path: str, tolerance: float) -> list[str]:
    with open(baseline_path, "r", encoding="utf-8") as fh:
        baseline = json.load(fh)
    failures = []
    base_specs = baseline["workloads"]["study_scenarios"]["specs"]
    got_specs = report["workloads"]["study_scenarios"]["specs"]
    for spec, base in base_specs.items():
        got = got_specs.get(spec)
        if got is None:
            failures.append(f"spec {spec} missing from the study sweep")
            continue
        for metric in GATED["study_scenarios"]:
            bad = _drift(f"{spec}.{metric}", base[metric], got[metric], tolerance)
            if bad:
                failures.append(bad)
    base_serve = baseline["workloads"]["video_serve"]
    got_serve = report["workloads"]["video_serve"]
    for metric in GATED["video_serve"]:
        bad = _drift(
            f"video_serve.{metric}", base_serve[metric], got_serve[metric],
            tolerance,
        )
        if bad:
            failures.append(bad)
    return failures


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--quick", action="store_true",
                        help="reduced durations for CI smoke runs")
    parser.add_argument("--out", default="BENCH_scenarios.json")
    parser.add_argument("--jobs", type=int, default=max(1, os.cpu_count() or 1))
    parser.add_argument("--check-baseline", default=None, metavar="PATH",
                        help="fail if simulated scenario metrics drift")
    parser.add_argument("--tolerance", type=float, default=1e-6,
                        help="allowed relative drift (simulated metrics are "
                             "deterministic, so this is float-noise margin)")
    args = parser.parse_args(argv)

    workloads = {}
    print(
        f"[bench_scenarios] study points "
        f"({'quick' if args.quick else 'full'}) ..."
    )
    workloads["study_scenarios"] = time_study_scenarios(args.quick)
    for spec, row in workloads["study_scenarios"]["specs"].items():
        print(
            f"[bench_scenarios]   {spec}: {row['images_per_second']:.1f} "
            f"img/s  cold {row['cold_s']:.2f}s  warm {row['warm_s']:.3f}s"
        )
    print("[bench_scenarios] video serve ...")
    workloads["video_serve"] = time_video_serve(args.quick)
    print(
        "[bench_scenarios]   {sessions} session(s), {rehomes} re-home(s), "
        "{frames_completed} frames, late ratio {late_frame_ratio:.3f} "
        "in {wall_s:.2f}s".format(**workloads["video_serve"])
    )

    report = {
        "quick": args.quick,
        "jobs": args.jobs,
        "seed": SEED,
        "workloads": workloads,
    }
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=2, sort_keys=True)
        fh.write("\n")
    print(f"[bench_scenarios] wrote {args.out}")

    if args.check_baseline:
        failures = check_baseline(report, args.check_baseline, args.tolerance)
        for failure in failures:
            print(f"[bench_scenarios] FAIL: {failure}", file=sys.stderr)
        if failures:
            return 1
        print(f"[bench_scenarios] baseline check passed ({args.check_baseline})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
