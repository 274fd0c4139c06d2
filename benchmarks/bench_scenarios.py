"""Scenario-layer regression harness: multi-scale and video workloads end
to end (study points and serving sessions), writing ``BENCH_scenarios.json``.

The command line is the harness's (``benchmarks/harness.py``); CI runs::

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

import tempfile

# harness before repro: it puts ``src`` on ``sys.path``
from harness import drift, main, rows, timed

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


def _point(config: StudyConfig, **run_kwargs):
    [point] = ScalingStudy(MPI_OPT, config).run([NUM_GPUS], **run_kwargs)
    return point


def _cold(config: StudyConfig, cache: ResultCache):
    """The point on the walk oracle, then cold on the default engine."""
    # uncached: the oracle enters no digest, so a cached walk would
    # serve the default engine's run
    with walk_oracle():
        exact = _point(config)
    return exact, _point(config, cache=cache)


def time_study_scenarios(quick: bool) -> dict:
    steps = 16 if quick else 48
    specs = {"multiscale8": MULTISCALE8_SPEC, "video": VIDEO_SPEC}
    out = {}
    with tempfile.TemporaryDirectory() as tmp:
        cache = ResultCache(tmp)
        for name, spec in specs.items():
            config = _study_config(spec, steps)
            (exact, fast), cold_s = timed(_cold, config, cache)
            assert point_payload(exact) == point_payload(fast), (
                f"{name}: default engine diverged from the walk oracle"
            )
            warm, warm_s = timed(_point, config, cache=cache)
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

    def serve():
        return simulate_serve(
            _video_scenario(), duration_s=duration_s, seed=SEED,
            fault_plan=plan,
        )

    def both():
        with walk_oracle():
            exact = serve()
        return exact, serve()

    (exact, fast), wall_s = timed(both)
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


#: the deterministic metrics the baseline gates on, per workload; the
#: bound is float-noise margin
STUDY_GATES = dict.fromkeys(("images_per_second", "step_time"), drift(1e-6))
VIDEO_GATES = dict.fromkeys(
    ("frames_completed", "late_frame_ratio", "rebuffers", "frame_p99_ms",
     "goodput_rps"),
    drift(1e-6),
)


def measure(args) -> dict:
    print("[bench_scenarios] study points ...")
    study = time_study_scenarios(args.quick)
    for spec, row in study["specs"].items():
        print(
            f"[bench_scenarios]   {spec}: {row['images_per_second']:.1f} "
            f"img/s  cold {row['cold_s']:.2f}s  warm {row['warm_s']:.3f}s"
        )
    print("[bench_scenarios] video serve ...")
    video = time_video_serve(args.quick)
    print(
        "[bench_scenarios]   {sessions} session(s), {rehomes} re-home(s), "
        "{frames_completed} frames, late ratio {late_frame_ratio:.3f} "
        "in {wall_s:.2f}s".format(**video)
    )
    return {
        "seed": SEED,
        "workloads": {"study_scenarios": study, "video_serve": video},
    }


def check(report: dict, baseline: dict) -> list[str]:
    if not baseline:
        return []
    got, base = report["workloads"], baseline["workloads"]
    failures = rows(
        got["study_scenarios"]["specs"], base["study_scenarios"]["specs"],
        "spec", STUDY_GATES,
    )
    for metric, gate in VIDEO_GATES.items():
        failures += gate(
            f"video_serve.{metric}", got["video_serve"][metric],
            base["video_serve"][metric],
        )
    return failures


if __name__ == "__main__":
    raise SystemExit(main("scenarios", __doc__, measure, check))
