"""Compare two ``run.py --out`` results files, metric by metric.

    python3 benchmarks/e2e/compare.py parent.json change.json

For each (workload, end-to-end metric) pair it prints both sides' median
and quartiles and a verdict:

* ``worse``: the change's median is worse than the parent's by more than
  the metric's bound;
* ``better``: it is better by more than the bound and by more than the
  parent's own spread (the distance between its quartiles);
* ``unresolved``: either side's spread is wider than the bound, and not
  every run of one side beats every run of the other;
* ``unchanged``: otherwise.

Bounds: ``end_to_end`` in ``BENCHMARK.json`` for the wall-clock metrics
and 1e-6 relative for the deterministic ``sim_*`` metrics.  A higher mean
``failed_ratio`` is worse however small the rise.  ``wall_s``, ``ref_s``
and the per-layer metrics have no bound: the first two are printed with
the verdict ``-``, per-layer metrics are listed where the files differ.
Exits 1 if any verdict is ``worse``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import sys

from run import ROOT, SIM_METRICS, quartiles

SIM_BOUND = 1e-6


def bounds() -> dict[str, float]:
    """The end-to-end bounds fixed in BENCHMARK.json."""
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    return {m["name"]: m["bound"] for m in spec["end_to_end"]}


def _relative(delta: float, base: float) -> float:
    if base:
        return delta / abs(base)
    return 0.0 if delta == 0 else math.copysign(math.inf, delta)


def spread(values: list[float]) -> float:
    """Distance between the quartiles as a share of the median."""
    q = quartiles(values)
    return _relative(q["q3"] - q["q1"], q["median"])


def verdict(parent: list[float], change: list[float], better: str,
            bound: float) -> str:
    """better, worse, unchanged or unresolved (see the module docstring)."""
    sign = 1.0 if better == "lower" else -1.0
    a, b = quartiles(parent)["median"], quartiles(change)["median"]
    worse_by = sign * _relative(b - a, a)
    parent_spread = spread(parent)
    if max(parent_spread, spread(change)) > bound:
        if all(sign * (y - x) < 0 for x in parent for y in change):
            return "better"
        if all(sign * (y - x) > 0 for x in parent for y in change):
            return "worse"
        return "unresolved"
    if worse_by > bound:
        return "worse"
    if -worse_by > max(bound, parent_spread):
        return "better"
    return "unchanged"


def failure_verdict(parent: list[float], change: list[float]) -> str:
    """Any rise in the mean failed ratio is worse; a median would hide one."""
    a, b = statistics.fmean(parent), statistics.fmean(change)
    return "worse" if b > a else "better" if b < a else "unchanged"


def _fmt(m: dict) -> str:
    return (f"{m['median']:.6g} [{m['q1']:.6g}, {m['q3']:.6g}] "
            f"n={m['n']}")


def compare(parent: dict, change: dict, limits: dict[str, float]):
    """Rows of (workload, metric, parent, change, verdict) and layer diffs."""
    rows, layer_rows = [], []
    for name, a in parent["workloads"].items():
        b = change["workloads"].get(name)
        if b is None:
            continue
        for metric, ma in a["metrics"].items():
            mb = b["metrics"].get(metric)
            if mb is None:
                continue
            if metric == "failed_ratio":
                v = failure_verdict(ma["values"], mb["values"])
            elif metric in limits or metric in SIM_METRICS:
                v = verdict(ma["values"], mb["values"], ma["better"],
                            limits.get(metric, SIM_BOUND))
            else:
                v = "-"
            rows.append((name, metric, ma, mb, v))
        for metric, la in a.get("layers", {}).items():
            lb = b.get("layers", {}).get(metric)
            if lb is not None and lb["value"] != la["value"]:
                layer_rows.append((name, metric, la["value"], lb["value"]))
    return rows, layer_rows


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent")
    parser.add_argument("change")
    args = parser.parse_args(argv)
    with open(args.parent, encoding="utf-8") as fh:
        parent = json.load(fh)
    with open(args.change, encoding="utf-8") as fh:
        change = json.load(fh)
    if parent["seed"] != change["seed"]:
        print(f"note: seeds differ ({parent['seed']} vs {change['seed']}); "
              f"seeded workloads' sim_* metrics will too")
    rows, layer_rows = compare(parent, change, bounds())
    print(f"{'workload':<17s} {'metric':<21s} {'parent':<38s} "
          f"{'change':<38s} verdict")
    for name, metric, ma, mb, v in rows:
        print(f"{name:<17s} {metric:<21s} {_fmt(ma):<38s} {_fmt(mb):<38s} {v}")
    if layer_rows:
        print("\nper-layer metrics that differ (no bound):")
        for name, metric, va, vb in layer_rows:
            print(f"  {name:<17s} {metric:<36s} {va:.6g} -> {vb:.6g}")
    judged = [r[4] for r in rows if r[4] != "-"]
    print(f"\n{len(judged)} bounded pairs: " + ", ".join(
        f"{judged.count(v)} {v}"
        for v in ("better", "worse", "unchanged", "unresolved")
    ))
    return 1 if "worse" in judged else 0


if __name__ == "__main__":
    sys.exit(main())
