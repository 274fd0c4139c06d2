"""The one harness behind the gated bench runners.

``benchmarks/bench_{chaos,comm,compression,engine,parallelism,perf,
scenarios,serve}.py`` each pin one subsystem's simulated numbers against
``benchmarks/baselines/BENCH_<name>_baseline.json``.  A runner supplies
two functions and hands them to :func:`main`:

* ``measure(args) -> report`` runs its workloads, prints its progress
  lines and asserts its acceptance claims inline;
* ``check(report, baseline) -> failures`` judges the report with the
  gates below.  ``baseline`` is ``{}`` when none is given, so only the
  runner's absolute floors apply.

Every runner takes the same command line::

    python benchmarks/bench_<name>.py [--quick] [--out BENCH_<name>.json]
        [--check-baseline PATH] [--jobs N]

``--quick`` runs the reduced grid CI runs.  The report goes to ``--out``
as sorted JSON, with ``quick`` added.  ``--check-baseline`` judges it
against a committed baseline, and any failure exits 1.  ``--jobs``
(worker processes, default one per CPU) exists only on the runners that
fan out.  Every wall number is taken by :func:`timed`.

Three gates, each ``gate(name, have, want) -> failures``:

* :func:`exact` for simulated anchors: they are machine-independent, so
  any difference means the cost model changed;
* :func:`drift` for deterministic floats, within a relative bound (or
  an absolute one, for PSNR);
* :func:`floor` for wall-clock rates, which may fall only a fraction
  below their baseline.

:func:`anchors` applies :func:`exact` over a dict of anchors, and
:func:`rows` applies any gates over a table of rows.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from time import perf_counter

sys.path.insert(
    0, os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "src")
)


def timed(call, *args, **kwargs):
    """Run ``call(*args, **kwargs)``; return ``(result, wall seconds)``."""
    t0 = perf_counter()
    result = call(*args, **kwargs)
    return result, perf_counter() - t0


def ratio(num: float, den: float) -> float:
    """``num / den``, or infinity when a timer read zero."""
    return num / den if den > 0 else float("inf")


def exact(name: str, have, want, why: str = "cost model changed: "
          "regenerate the baseline and bump the salt") -> list[str]:
    """Gate: a simulated value equal to its baseline, bit for bit."""
    if have == want:
        return []
    return [f"{name} drifted: {have!r} != baseline {want!r} ({why})"]


def anchors(have: dict, want: dict) -> list[str]:
    """:func:`exact` on every baseline anchor the report also holds (a
    quick report holds part of a full baseline's grid)."""
    return [
        failure
        for key, base in want.items() if key in have
        for failure in exact(f"anchor {key}", have[key], base)
    ]


def drift(rel: float = 0.0, *, absolute: float = 0.0):
    """Gate: a float within ``rel`` of its baseline, relative to it, or
    within ``absolute`` of it."""
    def gate(name: str, have: float, want: float) -> list[str]:
        bound = max(rel * max(abs(want), 1e-12), absolute)
        if abs(have - want) <= bound:
            return []
        return [f"{name} drifted: {have:.6g} vs baseline {want:.6g} "
                f"(bound {bound:.3g})"]
    return gate


def floor(frac: float):
    """Gate: a wall-clock rate no more than ``frac`` below its baseline;
    no baseline rate, no gate."""
    def gate(name: str, have: float, want: float | None) -> list[str]:
        if not want or have >= want * (1.0 - frac):
            return []
        return [f"{name} regressed: {have:.0f} < {want:.0f} - {frac:.0%} "
                f"tolerance"]
    return gate


def rows(have: dict, want: dict, kind: str, gates: dict) -> list[str]:
    """Judge each baseline row's gated metrics against the report's row
    of the same key; a row the report lacks is a failure."""
    failures = []
    for key, base in want.items():
        got = have.get(key)
        if got is None:
            failures.append(f"{kind} {key} missing from the report")
            continue
        for metric, gate in gates.items():
            failures += gate(f"{key}.{metric}", got[metric], base[metric])
    return failures


def main(name: str, doc: str, measure, check, *, jobs: bool = False) -> int:
    """Parse the command line, measure, write the report and judge it;
    return the exit status."""
    parser = argparse.ArgumentParser(description=doc.splitlines()[0])
    parser.add_argument("--quick", action="store_true",
                        help="reduced grid for CI smoke runs")
    parser.add_argument("--out", default=f"BENCH_{name}.json")
    parser.add_argument("--check-baseline", metavar="PATH",
                        help="judge the report against this baseline")
    if jobs:
        parser.add_argument("--jobs", type=int,
                            default=max(1, os.cpu_count() or 1),
                            help="worker processes")
    args = parser.parse_args()

    prefix = f"[bench_{name}]"
    print(f"{prefix} {'quick' if args.quick else 'full'} run")
    report = measure(args)
    report["quick"] = args.quick
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=2, sort_keys=True)
        fh.write("\n")
    print(f"{prefix} wrote {args.out}")

    baseline = {}
    if args.check_baseline:
        with open(args.check_baseline, encoding="utf-8") as fh:
            baseline = json.load(fh)
    failures = check(report, baseline)
    for failure in failures:
        print(f"{prefix} FAIL: {failure}", file=sys.stderr)
    if failures:
        return 1
    if args.check_baseline:
        print(f"{prefix} baseline check passed ({args.check_baseline})")
    return 0
