"""Hybrid-parallelism regression harness: writes ``BENCH_parallelism.json``.

The command line is the harness's (``benchmarks/harness.py``); CI runs::

    python benchmarks/bench_parallelism.py --quick \
        --out BENCH_parallelism.json \
        --check-baseline benchmarks/baselines/BENCH_parallelism_baseline.json

Workloads:

* **crossover** — the planner at 8192 simulated ranks.  The acceptance
  claim is asserted inline: the best hybrid layout beats the best pure
  data-parallel layout by >= 1.2x on simulated step time (measured
  ~1.35x: at that scale the dp allreduce dominates, and tp=4 cuts the
  synchronized gradient volume per rank four-fold while its NVLink
  activation collectives stay on-node).  Quick mode trims the search to
  the pp=1 column — the claim's winner lives there; the full grid adds
  the pipelined layouts for the baseline to pin.
* **small_scale** — the full planner grid at 512 ranks, where pure dp
  still wins (the crossover is real, not an artifact of the hybrid
  pricing path being uniformly cheaper).

Every anchor is a simulated time — machine-independent, checked exactly
against the baseline.
"""

from __future__ import annotations

# harness before repro: it puts ``src`` on ``sys.path``
from harness import anchors, main, timed

from repro.parallel.planner import PlannerConfig, plan_hybrid

HYBRID_MIN_SPEEDUP = 1.2  # acceptance floor: best hybrid vs pure dp at 8192


def layout_key(row: dict) -> str:
    return (
        f"dp{row['dp']}-tp{row['tp']}-pp{row['pp']}-mb{row['microbatches']}"
    )


def run_plan(config: PlannerConfig, jobs: int) -> dict:
    report, wall_s = timed(plan_hybrid, config, jobs=jobs)
    return {
        "ranks": config.ranks,
        "candidates": report["candidates"],
        "best": layout_key(report["best"]),
        "best_step_time": report["best"]["step_time"],
        "pure_dp_step_time": report["best_pure_dp"]["step_time"],
        "hybrid_step_time": report["best_hybrid"]["step_time"],
        "hybrid_speedup": report["hybrid_speedup"],
        "step_times": {
            layout_key(r): r["step_time"] for r in report["points"]
        },
        "wall_s": wall_s,
    }


def time_crossover(quick: bool, jobs: int) -> dict:
    config = PlannerConfig(
        ranks=8192,
        max_pp=1 if quick else 4,
        microbatches=(8, 16),
    )
    plan = run_plan(config, jobs)
    speedup = plan["hybrid_speedup"]
    assert speedup >= HYBRID_MIN_SPEEDUP, (
        f"best hybrid layout is only {speedup:.3f}x over pure dp at 8192 "
        f"ranks — below the {HYBRID_MIN_SPEEDUP}x acceptance floor"
    )
    assert plan["best"] != f"dp{config.ranks}-tp1-pp1-mb1", (
        "pure dp won at 8192 ranks; the hybrid crossover claim is broken"
    )
    return plan


def time_small_scale(jobs: int) -> dict:
    plan = run_plan(PlannerConfig(ranks=512, microbatches=(8, 16)), jobs)
    # sanity, not a perf gate: at 512 ranks dp comm is cheap enough that
    # sacrificing per-rank batch (tp) or eating bubbles (pp) cannot pay
    assert plan["best"] == "dp512-tp1-pp1-mb1", (
        f"expected pure dp to win at 512 ranks, got {plan['best']}"
    )
    return plan


def measure(args) -> dict:
    print("[bench_parallelism] 8192-rank crossover ...")
    c = time_crossover(args.quick, args.jobs)
    print(f"[bench_parallelism]   best {c['best']}: "
          f"{c['best_step_time'] * 1e3:.2f} ms vs pure dp "
          f"{c['pure_dp_step_time'] * 1e3:.2f} ms "
          f"({c['hybrid_speedup']:.3f}x, wall {c['wall_s']:.1f}s)")
    print("[bench_parallelism] 512-rank control ...")
    s = time_small_scale(args.jobs)
    print(f"[bench_parallelism]   best {s['best']}: "
          f"{s['best_step_time'] * 1e3:.2f} ms over {s['candidates']} "
          f"candidate(s) (wall {s['wall_s']:.1f}s)")
    return {
        "workloads": {"crossover": c, "small_scale": s},
        "anchors": {
            f"x{plan['ranks']}:{key}": value
            for plan in (c, s)
            for key, value in plan["step_times"].items()
        },
        "hybrid_speedup": c["hybrid_speedup"],
    }


def check(report: dict, baseline: dict) -> list[str]:
    if baseline.get("quick") != report["quick"]:
        # grid sizes differ; nothing is comparable like-for-like
        return []
    return anchors(report["anchors"], baseline.get("anchors", {}))


if __name__ == "__main__":
    raise SystemExit(main("parallelism", __doc__, measure, check, jobs=True))
