"""Serving-tier regression harness: times the canonical serving sweep and
writes ``BENCH_serve.json``.

The command line is the harness's (``benchmarks/harness.py``); CI runs::

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

import tempfile

# harness before repro: it puts ``src`` on ``sys.path``
from harness import drift, main, ratio, rows, timed

from repro.faults import FaultPlan, RankFailure
from repro.perf import ResultCache, run_jobs
from repro.serve import (
    POLICY_NAMES,
    ServeJob,
    ServeScenario,
    simulate_serve,
)

SEED = 7
#: the per-policy metrics the baseline gates on; they are deterministic,
#: so the bound is float-noise margin
POLICY_GATES = dict.fromkeys(("p99_ms", "goodput_rps"), drift(1e-6))


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
        cold, cold_s = timed(run_jobs, jobs, workers=workers, cache=cache)
        warm, warm_s = timed(run_jobs, jobs, workers=workers, cache=cache)
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
    report, wall_s = timed(
        simulate_serve,
        ServeScenario(name="bench-failover"),
        duration_s=duration_s,
        seed=SEED,
        fault_plan=plan,
    )
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
    report, wall_s = timed(
        simulate_serve,
        ServeScenario(name="bench-rate"), duration_s=duration_s, seed=SEED,
    )
    arrived = report.summary["arrived"]
    return {
        "duration_s": duration_s,
        "wall_s": wall_s,
        "requests": arrived,
        "requests_per_wall_sec": ratio(arrived, wall_s),
    }


def measure(args) -> dict:
    print("[bench_serve] policy sweep ...")
    sweep = time_policy_sweep(args.quick, args.jobs)
    print("[bench_serve]   cold {cold_s:.2f}s  warm {warm_s:.3f}s".format(**sweep))
    print("[bench_serve] failover ...")
    failover = time_failover(args.quick)
    print("[bench_serve]   {wall_s:.2f}s, {retried_requests} retried, "
          "{cold_starts} cold start(s)".format(**failover))
    print("[bench_serve] engine rate ...")
    rate = time_engine_rate(args.quick)
    print("[bench_serve]   {requests} requests in {wall_s:.2f}s = "
          "{requests_per_wall_sec:.0f}/s".format(**rate))
    return {
        "jobs": args.jobs,
        "seed": SEED,
        "workloads": {
            "policy_sweep": sweep, "failover": failover, "engine_rate": rate,
        },
    }


def check(report: dict, baseline: dict) -> list[str]:
    return rows(
        report["workloads"]["policy_sweep"]["policies"],
        baseline.get("policies", {}), "policy", POLICY_GATES,
    )


if __name__ == "__main__":
    raise SystemExit(main("serve", __doc__, measure, check, jobs=True))
