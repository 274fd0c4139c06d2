"""Chaos-campaign regression harness: runs a reduced invariant-checked
campaign and writes ``BENCH_chaos.json``.

The command line is the harness's (``benchmarks/harness.py``); CI runs::

    python benchmarks/bench_chaos.py --quick --out BENCH_chaos.json \
        --check-baseline benchmarks/baselines/BENCH_chaos_baseline.json

Workloads:

* **campaign** — switch-failure, partition, and node-failure scenarios
  under both recovery policies, cold (simulated) then warm (cache hits),
  asserting every machine-checked invariant is green and that the warm
  campaign digest is identical to the cold one.  The regression gate is
  the per-cell simulated ``goodput`` and ``final_world_size`` plus the
  invariant count: these are fully deterministic, so any drift means the
  fault/recovery/timing semantics changed — intentional changes must
  update the baseline (and bump ``CACHE_VERSION_SALT``).
* **cell_rate** — wall-clock seconds per campaign cell (informational;
  machine-dependent, never gated).
"""

from __future__ import annotations

import tempfile

# harness before repro: it puts ``src`` on ``sys.path``
from harness import drift, exact, main, rows, timed

from repro.chaos import CampaignConfig, run_campaign
from repro.perf import ResultCache

SCENARIOS = ("switch-failure", "partition", "node-failure")
POLICIES = ("restart", "shrink")
#: the campaign's metrics are deterministic: this is float-noise margin
DRIFT = drift(1e-6)


def _config(quick: bool) -> CampaignConfig:
    return CampaignConfig(
        scenarios=SCENARIOS,
        policies=POLICIES,
        seeds=1 if quick else 3,
        num_gpus=16,
        measure_steps=16 if quick else 40,
    )


def time_campaign(quick: bool, workers: int) -> dict:
    config = _config(quick)
    with tempfile.TemporaryDirectory() as tmp:
        cache = ResultCache(tmp)
        cold, cold_s = timed(run_campaign, config, jobs=workers, cache=cache)
        warm, warm_s = timed(run_campaign, config, jobs=workers, cache=cache)
        stats = cache.stats()

    assert cold.ok, f"red invariants: {cold.failures()}"
    assert warm.digest == cold.digest, "warm cache diverged from cold"
    assert warm.rows == cold.rows, "warm cache diverged from cold"

    cells = {}
    checked = 0
    for row in cold.rows:
        checked += len(row["invariants"])
        r = row["exact"]["resilience"]
        key = f"{row['scenario']}/{row['policy']}/seed{row['seed']}"
        cells[key] = {
            "goodput": r["goodput"],
            "final_world_size": r["final_world_size"],
            "restarts": r["restarts"],
        }
    return {
        "cells": cells,
        "invariants_checked": checked,
        "digest": cold.digest,
        "cold_s": cold_s,
        "warm_s": warm_s,
        "cache": stats,
    }


def time_cell_rate(campaign: dict) -> dict:
    """Wall-clock cost per cell (informational)."""
    n = len(campaign["cells"])
    cold_s = campaign["cold_s"]
    return {
        "cells": n,
        "cold_s": cold_s,
        "seconds_per_cell": cold_s / n if n else 0.0,
    }


def measure(args) -> dict:
    print("[bench_chaos] campaign ...")
    campaign = time_campaign(args.quick, args.jobs)
    print(
        "[bench_chaos]   {n} cell(s), {inv} invariant(s) green, "
        "cold {cold_s:.2f}s  warm {warm_s:.3f}s".format(
            n=len(campaign["cells"]), inv=campaign["invariants_checked"],
            **campaign,
        )
    )
    cell_rate = time_cell_rate(campaign)
    print("[bench_chaos]   {seconds_per_cell:.2f}s per cell".format(**cell_rate))
    return {
        "jobs": args.jobs,
        "workloads": {"campaign": campaign, "cell_rate": cell_rate},
    }


def check(report: dict, baseline: dict) -> list[str]:
    campaign = report["workloads"]["campaign"]
    base = baseline.get("campaign", {})
    failures = []
    if "invariants_checked" in base:
        failures += exact(
            "invariants_checked", campaign["invariants_checked"],
            base["invariants_checked"],
            why="an invariant was added or silently dropped",
        )
    return failures + rows(
        campaign["cells"], base.get("cells", {}), "cell",
        {"final_world_size": exact, "restarts": exact, "goodput": DRIFT},
    )


if __name__ == "__main__":
    raise SystemExit(main("chaos", __doc__, measure, check, jobs=True))
