"""End-to-end benchmark: five workloads, each sample in a fresh process.

One workload for a fixed time, last stdout line a JSON result::

    python3 benchmarks/e2e/run.py --workload serve_mix --seed 7 --seconds 20 --trace 0

Every workload, interleaved over rounds (w1..w5, w1..w5, ...) so that a
slow spell on the host lands on every workload rather than one, plus one
traced sample per workload with ``--trace 1``::

    python3 benchmarks/e2e/run.py --seed 7 --repeats 5 --trace 1 --out a.json
    python3 benchmarks/e2e/compare.py a.json b.json

Each sample runs ``worker.py`` in a new interpreter with one thread, no
worker pools and no result cache, the way a command-line user pays for
it.  Wall-clock metrics are medians over the samples; simulated-clock
metrics and output digests must repeat exactly.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time

import layers

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
WORKER = os.path.join(HERE, "worker.py")

WORKLOADS = (
    "paper_sweep", "plan_4096", "serve_mix", "chaos_campaign",
    "train_functional",
)

#: metrics a user of the simulator sees: (name, unit, better).  wall_ref is
#: the timed call's wall time in units of a fixed loop timed just before
#: and after it (see reference.py), which cancels most of a shared host's
#: slow spells; wall_s and ref_s are reported beside it, unbounded.
END_TO_END = (
    ("wall_ref", "ref", "lower"),
    ("setup_s", "s", "lower"),
    ("peak_rss_mb", "MB", "lower"),
)
UNBOUNDED = (
    ("wall_s", "s", "lower"),
    ("ref_s", "s", "lower"),
)

#: simulated-clock metrics: name -> (unit, better).  Deterministic for a
#: given seed, so two runs of one commit agree to the last digit.
SIM_METRICS = {
    "sim_img_per_s": ("img/s", "higher"),
    "sim_scaling_eff": ("ratio", "higher"),
    "sim_goodput_rps": ("req/s", "higher"),
    "sim_p99_ms": ("ms", "lower"),
    "sim_late_frame_ratio": ("ratio", "lower"),
    "sim_train_goodput": ("ratio", "higher"),
}

#: untraced samples a fixed-time run always takes, so set-up and wall time
#: are medians even when one sample outlasts the time budget
MIN_SAMPLES = 3
SAMPLE_TIMEOUT_S = 150


class BenchError(RuntimeError):
    """The benchmark itself could not run (not a failed check)."""


def quartiles(values: list[float]) -> dict:
    """Median, first and third quartile (``statistics.quantiles``) and n."""
    if len(values) == 1:
        q1 = median = q3 = values[0]
    else:
        q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3, "n": len(values)}


def spawn(workload: str, seed: int, trace: bool) -> dict:
    """One sample in a fresh interpreter; returns the worker's record."""
    src = os.path.join(ROOT, "src")
    env = dict(
        os.environ,
        PYTHONPATH=os.pathsep.join(
            p for p in (src, os.environ.get("PYTHONPATH")) if p
        ),
        # set and dict order, and so every count, repeat across processes
        PYTHONHASHSEED="0",
        OMP_NUM_THREADS="1",
        OPENBLAS_NUM_THREADS="1",
        MKL_NUM_THREADS="1",
    )
    cmd = [
        sys.executable, WORKER, "--workload", workload, "--seed", str(seed),
        "--trace", str(int(trace)),
    ]
    try:
        proc = subprocess.run(
            cmd, cwd=ROOT, env=env, capture_output=True, text=True,
            timeout=SAMPLE_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired:
        raise BenchError(
            f"{workload} sample exceeded {SAMPLE_TIMEOUT_S} s"
        ) from None
    if proc.stderr:
        sys.stderr.write(proc.stderr)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(
            f"{workload} worker exited {proc.returncode} without a record"
        )
    return json.loads(lines[-1])


def measure(workload: str, seed: int, seconds: float, trace: bool):
    """Samples of one workload until the next would overrun ``seconds``.

    Untraced samples alternate with traced ones when ``trace`` is set
    (at least one of each); otherwise at least :data:`MIN_SAMPLES`.
    """
    start = time.monotonic()
    samples = {False: [], True: []}
    took = {}
    while True:
        traced = trace and len(samples[True]) < len(samples[False])
        enough = samples[True] if trace else (
            len(samples[False]) >= MIN_SAMPLES
        )
        if enough:
            estimate = took.get(traced, max(took.values()))
            if time.monotonic() - start + estimate > seconds:
                break
        began = time.monotonic()
        samples[traced].append(spawn(workload, seed, traced))
        took[traced] = time.monotonic() - began
    return samples[False], samples[True]


def rounds(seed: int, repeats: int, trace: bool):
    """Interleaved rounds over every workload, then one traced sample each."""
    untraced = {name: [] for name in WORKLOADS}
    for r in range(repeats):
        for name in WORKLOADS:
            print(f"[e2e] round {r + 1}/{repeats}: {name}", flush=True)
            untraced[name].append(spawn(name, seed, False))
    traced = {name: [] for name in WORKLOADS}
    if trace:
        for name in WORKLOADS:
            print(f"[e2e] traced pass: {name}", flush=True)
            traced[name].append(spawn(name, seed, True))
    return untraced, traced


def summarize(untraced: list[dict], traced: list[dict]) -> dict:
    """Checks, digests and per-metric statistics of one workload's samples."""
    records = untraced + traced
    attempted = sum(r["attempted"] for r in records)
    failures = [f for r in records for f in r["failures"]]
    digests = sorted({r["digest"] for r in records if "digest" in r})
    # every sample after the first must reproduce its outputs exactly
    attempted += len(records) - 1
    if len(digests) > 1:
        failures.append(f"outputs differ across samples: {len(digests)} digests")
    timed = [r for r in untraced if "wall_s" in r]
    if not timed:
        raise BenchError("every untraced sample raised")
    metrics = {
        name: _stat([r[name] for r in timed], unit, better)
        for name, unit, better in END_TO_END + UNBOUNDED
    }
    metrics["failed_ratio"] = _stat(
        [r["failed"] / r["attempted"] for r in untraced], "ratio", "lower"
    )
    for name, (unit, better) in SIM_METRICS.items():
        values = [r["sim"][name] for r in timed if name in r.get("sim", {})]
        if values:
            metrics[name] = _stat(values, unit, better)
    out = {
        "attempted": attempted,
        "failed": len(failures),
        "failures": failures[:20],
        "digests": digests,
        "metrics": metrics,
    }
    ledgers = [r["layers"] for r in traced if "layers" in r]
    if traced and not ledgers:
        raise BenchError("every traced sample raised")
    if ledgers:
        walls = [r["wall_s"] for r in traced if "layers" in r]
        overhead = statistics.median(walls) / metrics["wall_s"]["median"]
        out["layers"] = {
            name: {
                "value": overhead if name == "trace.overhead_ratio"
                else statistics.median(ledger[name] for ledger in ledgers),
                "unit": unit,
                "better": better,
            }
            for name, unit, better in layers.PER_LAYER
        }
    return out


def _stat(values: list[float], unit: str, better: str) -> dict:
    return {"unit": unit, "better": better, "values": values, **quartiles(values)}


def result_line(summary: dict, trace: bool) -> dict:
    """The one-line JSON result of a fixed-time run."""
    if trace:
        metrics = {
            name: {"value": m["value"], "unit": m["unit"]}
            for name, m in summary["layers"].items()
        }
    else:
        metrics = {
            name: {"value": summary["metrics"][name]["median"], "unit": unit}
            for name, unit, _ in END_TO_END
        }
    return {
        "correct": summary["failed"] == 0,
        "attempted": summary["attempted"],
        "failed": summary["failed"],
        "metrics": metrics,
    }


def report_lines(name: str, summary: dict) -> list[str]:
    """Every metric by name and unit, with median, quartiles and n."""
    lines = [
        f"{name}: {summary['attempted'] - summary['failed']}/"
        f"{summary['attempted']} checks passed"
    ]
    lines += [f"  FAILED {f}" for f in summary["failures"]]
    for metric, m in summary["metrics"].items():
        lines.append(
            f"  {metric:<28s} {m['median']:.6g} {m['unit']}  "
            f"[q1 {m['q1']:.6g}, q3 {m['q3']:.6g}, n={m['n']}]"
        )
    ledger = summary.get("layers", {})
    zero = [metric for metric, m in ledger.items() if m["value"] == 0]
    for metric, m in ledger.items():
        if m["value"] != 0:
            lines.append(f"  {metric:<36s} {m['value']:.6g} {m['unit']}")
    if zero:
        lines.append(f"  ({len(zero)} per-layer metrics are 0 here)")
    return lines


def fingerprint(records: list[dict]) -> dict:
    """The machine and toolchain a results file was measured on."""
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next(
                line.split(":", 1)[1].strip()
                for line in fh if line.startswith("model name")
            )
    except (OSError, StopIteration):
        pass
    return {
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "python": records[0]["python"],
        "numpy": records[0]["numpy"],
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__.splitlines()[0],
        formatter_class=argparse.RawDescriptionHelpFormatter,
        epilog="\n".join(__doc__.splitlines()[2:]),
    )
    parser.add_argument("--workload", choices=WORKLOADS,
                        help="run one workload for --seconds")
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--seconds", type=float, default=20.0,
                        help="time budget of a one-workload run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="add traced samples and the per-layer metrics")
    parser.add_argument("--repeats", type=int, default=5,
                        help="rounds over every workload (without --workload)")
    parser.add_argument("--out", help="write the full results as JSON")
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0 or args.repeats < 1:
        parser.error("--seed must be >= 0, --seconds > 0, --repeats >= 1")
    if not os.path.isdir(os.path.join(ROOT, "src", "repro")):
        print(f"e2e: no src/repro under {ROOT}; run from a full checkout",
              file=sys.stderr)
        return 2
    trace = bool(args.trace)
    try:
        if args.workload:
            names = [args.workload]
            u, t = measure(args.workload, args.seed, args.seconds, trace)
            untraced, traced = {args.workload: u}, {args.workload: t}
        else:
            names = list(WORKLOADS)
            untraced, traced = rounds(args.seed, args.repeats, trace)
        summaries = {n: summarize(untraced[n], traced[n]) for n in names}
    except BenchError as exc:
        print(f"e2e: {exc}", file=sys.stderr)
        return 1
    for name in names:
        print("\n".join(report_lines(name, summaries[name])))
    if args.out:
        results = {
            "seed": args.seed,
            "fingerprint": fingerprint(untraced[names[0]]),
            "workloads": summaries,
        }
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(results, fh, indent=1, sort_keys=True)
            fh.write("\n")
        print(f"[e2e] wrote {args.out}")
    if args.workload:
        print(json.dumps(result_line(summaries[args.workload], trace)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
