"""Serving-tier regression harness: times the canonical serving sweep and
writes ``BENCH_serve.json``.

Standalone like ``bench_perf.py`` (no benchmark plugin needed) so CI can
run it and diff against a committed baseline::

    python benchmarks/bench_serve.py --quick --out BENCH_serve.json \
        --check-baseline benchmarks/baselines/BENCH_serve_baseline.json

Workloads:

* **policy_sweep** — the Poisson serving scenario under all three routing
  policies, cold (simulated) then warm (cache hits), asserting the warm
  results are byte-identical to cold.  The regression gate is the
  *simulated* per-policy ``p99_ms`` and ``goodput_rps``: these are fully
  deterministic, so any drift means the serving timing semantics changed
  — intentional changes must update the baseline (and the cache salt).
* **failover** — a replica killed mid-run; asserts the accounting
  invariant (every request completed or shed, none dropped) and that the
  watchdog detected the failure and retried its orphans.
* **engine_rate** — simulated serving events/sec (informational; too
  machine-dependent to gate on).
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

from repro.faults import FaultPlan, RankFailure
from repro.perf import ResultCache, run_jobs
from repro.serve import (
    POLICY_NAMES,
    ServeJob,
    ServeScenario,
    simulate_serve,
)

SEED = 7


def _jobs(duration_s: float) -> list[ServeJob]:
    return [
        ServeJob(
            ServeScenario(name=f"bench-{policy}", routing=policy),
            duration_s=duration_s,
            seed=SEED,
        )
        for policy in POLICY_NAMES
    ]


def time_policy_sweep(quick: bool, workers: int) -> dict:
    duration_s = 30.0 if quick else 60.0
    jobs = _jobs(duration_s)
    with tempfile.TemporaryDirectory() as tmp:
        cache = ResultCache(tmp)
        t0 = perf_counter()
        cold = run_jobs(jobs, workers=workers, cache=cache)
        cold_s = perf_counter() - t0
        t0 = perf_counter()
        warm = run_jobs(jobs, workers=workers, cache=cache)
        warm_s = perf_counter() - t0
        stats = cache.stats()

    for a, b in zip(cold, warm):
        assert a.to_payload() == b.to_payload(), "warm cache diverged from cold"

    policies = {}
    for report in cold:
        s = report.summary
        assert s["arrived"] == s["completed"] + s["shed"], (
            f"{report.policy}: requests dropped"
        )
        policies[report.policy] = {
            "p99_ms": s["latency_ms"]["p99"],
            "goodput_rps": s["goodput_rps"],
            "slo_attainment": s["slo_attainment"],
        }
    return {
        "duration_s": duration_s,
        "cold_s": cold_s,
        "warm_s": warm_s,
        "cache": stats,
        "policies": policies,
    }


def time_failover(quick: bool) -> dict:
    duration_s = 20.0 if quick else 60.0
    plan = FaultPlan(faults=(RankFailure(rank=0, time=duration_s / 4),))
    t0 = perf_counter()
    report = simulate_serve(
        ServeScenario(name="bench-failover"),
        duration_s=duration_s,
        seed=SEED,
        fault_plan=plan,
    )
    wall_s = perf_counter() - t0
    s = report.summary
    assert s["arrived"] == s["completed"] + s["shed"], "requests dropped"
    assert s["detections"] == 1, "failure never detected"
    assert s["retried_requests"] >= 1, "no failover retries recorded"
    return {
        "duration_s": duration_s,
        "wall_s": wall_s,
        "retried_requests": s["retried_requests"],
        "cold_starts": s["cold_starts"],
    }


def time_engine_rate(quick: bool) -> dict:
    """Wall-clock rate of the serving event loop (informational)."""
    duration_s = 30.0 if quick else 120.0
    t0 = perf_counter()
    report = simulate_serve(
        ServeScenario(name="bench-rate"), duration_s=duration_s, seed=SEED
    )
    wall_s = perf_counter() - t0
    arrived = report.summary["arrived"]
    return {
        "duration_s": duration_s,
        "wall_s": wall_s,
        "requests": arrived,
        "requests_per_wall_sec": arrived / wall_s if wall_s > 0 else float("inf"),
    }


def check_baseline(report: dict, baseline_path: str, tolerance: float) -> list[str]:
    with open(baseline_path, "r", encoding="utf-8") as fh:
        baseline = json.load(fh)
    failures = []
    for policy, base in baseline.get("policies", {}).items():
        got = report["workloads"]["policy_sweep"]["policies"].get(policy)
        if got is None:
            failures.append(f"policy {policy} missing from the sweep")
            continue
        for metric in ("p99_ms", "goodput_rps"):
            want, have = base[metric], got[metric]
            if abs(have - want) > tolerance * max(abs(want), 1e-12):
                failures.append(
                    f"{policy}.{metric} drifted: {have:.6g} vs baseline "
                    f"{want:.6g} (tolerance {tolerance:.0%}) — serving "
                    f"timing semantics changed; update the baseline and "
                    f"bump CACHE_VERSION_SALT if intentional"
                )
    return failures


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--quick", action="store_true",
                        help="reduced durations for CI smoke runs")
    parser.add_argument("--out", default="BENCH_serve.json")
    parser.add_argument("--jobs", type=int, default=max(1, os.cpu_count() or 1))
    parser.add_argument("--check-baseline", default=None, metavar="PATH",
                        help="fail if simulated serving metrics drift")
    parser.add_argument("--tolerance", type=float, default=1e-6,
                        help="allowed relative drift (simulated metrics are "
                             "deterministic, so this is float-noise margin)")
    args = parser.parse_args(argv)

    workloads = {}
    print(f"[bench_serve] policy sweep ({'quick' if args.quick else 'full'}) ...")
    workloads["policy_sweep"] = time_policy_sweep(args.quick, args.jobs)
    print(
        "[bench_serve]   cold {cold_s:.2f}s  warm {warm_s:.3f}s".format(
            **workloads["policy_sweep"]
        )
    )
    print("[bench_serve] failover ...")
    workloads["failover"] = time_failover(args.quick)
    print(
        "[bench_serve]   {wall_s:.2f}s, {retried_requests} retried, "
        "{cold_starts} cold start(s)".format(**workloads["failover"])
    )
    print("[bench_serve] engine rate ...")
    workloads["engine_rate"] = time_engine_rate(args.quick)
    print(
        "[bench_serve]   {requests} requests in {wall_s:.2f}s = "
        "{requests_per_wall_sec:.0f}/s".format(**workloads["engine_rate"])
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
    print(f"[bench_serve] wrote {args.out}")

    if args.check_baseline:
        failures = check_baseline(report, args.check_baseline, args.tolerance)
        for failure in failures:
            print(f"[bench_serve] FAIL: {failure}", file=sys.stderr)
        if failures:
            return 1
        print(f"[bench_serve] baseline check passed ({args.check_baseline})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
