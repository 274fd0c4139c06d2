"""The gated bench runners' checks, judged without running a workload.

Each runner's ``check`` passes on the committed root ``BENCH_<name>.json``
against its baseline, and each regression a gate exists for gives exactly
one failure.  A stub runner shows what ``harness.main`` does with a
report and its failures.
"""

import importlib
import json
import math
import subprocess
import sys
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parent.parent
BENCH_DIR = REPO / "benchmarks"
sys.path.insert(0, str(BENCH_DIR))

NAMES = (
    "chaos", "comm", "compression", "engine", "parallelism", "perf",
    "scenarios", "serve",
)


def load(name: str):
    """The runner module, its committed report and its baseline."""
    module = importlib.import_module(f"bench_{name}")
    report = json.loads((REPO / f"BENCH_{name}.json").read_text())
    baseline_path = BENCH_DIR / "baselines" / f"BENCH_{name}_baseline.json"
    return module, report, json.loads(baseline_path.read_text())


def at(report: dict, path: tuple):
    """The dict holding the last key of ``path``, and that key."""
    *parents, leaf = path
    for key in parents:
        report = report[key]
    return report, leaf


@pytest.mark.parametrize("name", NAMES)
def test_committed_report_passes_its_baseline(name):
    module, report, baseline = load(name)
    assert module.check(report, baseline) == []


@pytest.mark.parametrize("name", ("comm", "compression", "engine", "parallelism"))
def test_one_ulp_on_one_anchor_fails(name):
    module, report, baseline = load(name)
    key = next(k for k in baseline["anchors"] if k in report["anchors"])
    anchors = report["anchors"]
    if isinstance(anchors[key], list):  # compression: [bytes, images/s]
        anchors, key = anchors[key], 1
    anchors[key] = math.nextafter(anchors[key], math.inf)
    assert len(module.check(report, baseline)) == 1


CELLS = ("workloads", "campaign", "cells")
SPECS = ("workloads", "study_scenarios", "specs")
POLICIES = ("workloads", "policy_sweep", "policies")


@pytest.mark.parametrize("name, path", [
    ("chaos", CELLS + ("partition/shrink/seed0", "goodput")),
    ("scenarios", SPECS + ("video", "step_time")),
    ("scenarios", ("workloads", "video_serve", "goodput_rps")),
    ("serve", POLICIES + ("jsq", "p99_ms")),
])
def test_drift_past_one_in_a_million_fails(name, path):
    module, report, baseline = load(name)
    holder, leaf = at(report, path)
    value = holder[leaf]
    holder[leaf] = value * (1 + 0.5e-6)
    assert module.check(report, baseline) == []
    holder[leaf] = value * (1 + 2e-6)
    assert len(module.check(report, baseline)) == 1


@pytest.mark.parametrize("name, key, lowest", [
    ("perf", "events_per_sec", 0.70),
    ("comm", "routed_ops_per_sec", 0.50),
])
def test_wall_rate_below_its_floor_fails(name, key, lowest):
    """``lowest``: the least share of the baseline rate that passes."""
    module, report, baseline = load(name)
    report[key] = (lowest + 0.01) * baseline[key]
    assert module.check(report, baseline) == []
    report[key] = (lowest - 0.01) * baseline[key]
    assert len(module.check(report, baseline)) == 1


@pytest.mark.parametrize("name, path", [
    ("chaos", CELLS + ("switch-failure/restart/seed0",)),
    ("serve", POLICIES + ("rr",)),
    ("scenarios", SPECS + ("multiscale8",)),
])
def test_missing_row_fails(name, path):
    module, report, baseline = load(name)
    holder, key = at(report, path)
    del holder[key]
    [failure] = module.check(report, baseline)
    assert key in failure and "missing" in failure


def test_engine_speedup_floor_holds_without_a_baseline():
    module, report, _ = load("engine")
    report["largest_world_speedup"] = 5.0
    assert module.check(report, {}) == []
    report["largest_world_speedup"] = 4.9
    assert len(module.check(report, {})) == 1


STUB = '''"""Stub runner: one measurement, an absolute floor and an exact gate."""
import sys
sys.path.insert(0, {bench_dir!r})
from harness import exact, main

def measure(args):
    return {{"zeta": {{"b": 2, "a": 1}}, "value": 2.0 if args.quick else 0.5}}

def check(report, baseline):
    failures = [] if report["value"] >= 1.0 else ["value below its floor"]
    if "value" in baseline:
        failures += exact("value", report["value"], baseline["value"])
    return failures

if __name__ == "__main__":
    raise SystemExit(main("stub", __doc__, measure, check))
'''


def test_harness_main_writes_sorted_report_and_exit_status(tmp_path):
    runner = tmp_path / "bench_stub.py"
    runner.write_text(STUB.format(bench_dir=str(BENCH_DIR)))
    for name, value in (("good", 2.0), ("bad", 3.0)):
        (tmp_path / f"{name}.json").write_text(json.dumps({"value": value}))

    def run(*args):
        return subprocess.run(
            [sys.executable, str(runner), *args], cwd=tmp_path,
            capture_output=True, text=True, timeout=60,
        )

    assert run("--quick").returncode == 0
    text = (tmp_path / "BENCH_stub.json").read_text()
    report = json.loads(text)
    assert report == {"quick": True, "value": 2.0, "zeta": {"a": 1, "b": 2}}
    assert text == json.dumps(report, indent=2, sort_keys=True) + "\n"

    # the runner's own floor is judged on every run, baseline or not
    below = run("--out", "full.json")
    assert below.returncode == 1
    assert "FAIL: value below its floor" in below.stderr
    assert json.loads((tmp_path / "full.json").read_text())["quick"] is False

    passed = run("--quick", "--check-baseline", "good.json")
    assert passed.returncode == 0
    assert "baseline check passed" in passed.stdout
    drifted = run("--quick", "--check-baseline", "bad.json")
    assert drifted.returncode == 1
    assert "FAIL: value drifted" in drifted.stderr
