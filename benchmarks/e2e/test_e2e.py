"""Tests of the end-to-end benchmark: PYTHONPATH=src python -m pytest benchmarks/e2e"""

from __future__ import annotations

import json
import math
import os

import pytest

import compare
import layers
import run
import worker
import workloads
from repro.chaos import CampaignConfig
from repro.perf.digest import canonical_digest

REPRO = "/x/src/repro"
BENCH = "/x/benchmarks/e2e"


@pytest.mark.parametrize("path, layer", [
    (f"{REPRO}/sim/fastpath.py", "sim.fastpath"),
    (f"{REPRO}/sim/engine.py", "sim"),
    (f"{REPRO}/mpi/collectives/base.py", "mpi"),
    (f"{REPRO}/errors.py", "repro"),
    (f"{REPRO}/__main__.py", "repro"),
    (f"{REPRO}/newpkg/mod.py", "other"),
    (f"{BENCH}/workloads.py", "other"),
    ("/usr/lib/python3.11/json/encoder.py", None),
    ("~", None),
    ("<string>", None),
])
def test_layer_of(path, layer):
    assert layers.layer_of(path, REPRO, BENCH) == layer


def _classify(func):
    return layers.layer_of(func[0], REPRO, BENCH)


def test_outside_time_is_charged_to_the_calling_layer():
    root = (f"{BENCH}/worker.py", 1, "main")
    a = (f"{REPRO}/mpi/a.py", 1, "a")
    b = (f"{REPRO}/net/b.py", 1, "b")
    builtin = ("~", 0, "<built-in method builtins.len>")
    numpy_py = ("/usr/lib/numpy/core.py", 1, "f")
    numpy_c = ("~", 0, "<method 'sum' of 'numpy.ndarray' objects>")
    # func -> (cc, nc, tt, ct, callers); callers[c] -> (nc, cc, tt, ct)
    stats = {
        root: (1, 1, 0.1, 4.2, {}),
        a: (1, 1, 1.0, 4.1, {root: (1, 1, 1.0, 4.1)}),
        b: (3, 3, 2.0, 2.8, {a: (3, 3, 2.0, 2.8)}),
        builtin: (15, 15, 0.5, 0.5, {
            a: (10, 10, 0.3, 0.3), b: (5, 5, 0.2, 0.2)}),
        numpy_py: (1, 1, 0.4, 0.6, {b: (1, 1, 0.4, 0.6)}),
        numpy_c: (2, 2, 0.2, 0.2, {numpy_py: (2, 2, 0.2, 0.2)}),
    }
    self_s, calls = layers.charge(stats, _classify)
    assert self_s["mpi"] == pytest.approx(1.3)
    assert self_s["net"] == pytest.approx(2.8)
    assert self_s["other"] == pytest.approx(0.1)
    assert sum(self_s.values()) == pytest.approx(4.2)
    assert calls["mpi"] == 1 and calls["net"] == 3
    assert calls["other"] == 0


def test_time_stuck_in_an_outside_cycle_is_conserved_as_other():
    x = ("/usr/lib/x.py", 1, "x")
    y = ("/usr/lib/y.py", 1, "y")
    stats = {
        x: (1, 2, 0.3, 0.5, {y: (1, 1, 0.3, 0.5)}),
        y: (1, 2, 0.2, 0.5, {x: (1, 1, 0.2, 0.5)}),
    }
    self_s, _ = layers.charge(stats, _classify)
    assert self_s["other"] == pytest.approx(0.5)


def test_quartiles_match_statistics_quantiles():
    assert run.quartiles([5.0, 1.0, 4.0, 2.0, 3.0]) == {
        "median": 3.0, "q1": 1.5, "q3": 4.5, "n": 5}
    assert run.quartiles([2.0]) == {"median": 2.0, "q1": 2.0, "q3": 2.0, "n": 1}
    assert compare.spread([1.0, 2.0, 3.0, 4.0, 5.0]) == pytest.approx(1.0)


TIGHT = [1.00, 1.01, 0.99, 1.00, 1.01]


@pytest.mark.parametrize("parent, change, better, bound, expected", [
    (TIGHT, TIGHT, "lower", 0.1, "unchanged"),
    (TIGHT, [v * 1.05 for v in TIGHT], "lower", 0.1, "unchanged"),
    (TIGHT, [v * 1.2 for v in TIGHT], "lower", 0.1, "worse"),
    (TIGHT, [v * 0.8 for v in TIGHT], "lower", 0.1, "better"),
    (TIGHT, [v * 0.8 for v in TIGHT], "higher", 0.1, "worse"),
    # spread wider than the bound: unresolved unless one side dominates
    ([1.0, 1.5, 0.7, 1.2, 0.9], [1.1, 1.6, 0.8, 1.3, 1.0], "lower", 0.1,
     "unresolved"),
    ([1.0, 1.5, 0.7, 1.2, 0.9], [2.0, 2.5, 1.7, 2.2, 1.9], "lower", 0.1,
     "worse"),
    # deterministic metrics: any move past 1e-6 counts
    ([4086.39] * 3, [4086.39] * 3, "higher", 1e-6, "unchanged"),
    ([4086.39] * 3, [4086.0] * 3, "higher", 1e-6, "worse"),
])
def test_compare_verdicts(parent, change, better, bound, expected):
    assert compare.verdict(parent, change, better, bound) == expected


def test_one_failed_run_is_worse_even_when_the_median_hides_it():
    assert compare.failure_verdict([0.0] * 3, [0.0, 0.1, 0.0]) == "worse"
    assert compare.failure_verdict([0.0] * 3, [0.0] * 3) == "unchanged"


def _record(digest="d", failed=0, wall=1.0, **extra):
    return {"attempted": 3, "failed": failed,
            "failures": ["x"] * failed, "digest": digest, "wall_s": wall,
            "ref_s": 0.02, "wall_ref": wall / 0.02, "setup_s": 0.3,
            "peak_rss_mb": 50.0,
            "sim": {"sim_img_per_s": 10.0}, **extra}


def test_summary_fails_when_outputs_differ_across_samples():
    same = run.summarize([_record(), _record(wall=1.2), _record()], [])
    assert same["failed"] == 0 and same["attempted"] == 3 * 3 + 2
    assert same["metrics"]["wall_s"]["median"] == 1.0
    assert same["metrics"]["wall_ref"]["median"] == pytest.approx(50.0)
    assert same["metrics"]["sim_img_per_s"]["values"] == [10.0] * 3
    differ = run.summarize([_record(), _record(digest="e")], [])
    assert differ["failed"] == 1


def test_result_line_holds_exactly_the_declared_metrics():
    ledger = {name: 0.5 for name, _, _ in layers.PER_LAYER}
    traced = _record(wall=3.0, layers=ledger)
    summary = run.summarize([_record(), _record()], [traced])
    untraced_line = run.result_line(summary, trace=False)
    traced_line = run.result_line(summary, trace=True)
    spec = _spec()
    for line, declared in ((untraced_line, spec["end_to_end"]),
                           (traced_line, spec["per_layer"])):
        assert set(line) == {"correct", "attempted", "failed", "metrics"}
        assert line["correct"] is True
        assert list(line["metrics"]) == [m["name"] for m in declared]
        assert all(line["metrics"][m["name"]]["unit"] == m["unit"]
                   for m in declared)
    assert traced_line["metrics"]["trace.overhead_ratio"]["value"] == 3.0


def _spec() -> dict:
    with open(os.path.join(run.ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def test_benchmark_json_matches_the_code():
    spec = _spec()
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert list(run.WORKLOADS) == list(workloads.WORKLOADS)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["end_to_end"]] \
        == list(run.END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] \
        == list(layers.PER_LAYER)
    setup = next(m for m in spec["end_to_end"] if m["name"] == "setup_s")
    assert setup["bound"] == max(m["bound"] for m in spec["end_to_end"])


SMOKE = {
    "paper_sweep": dict(gpu_counts=(4, 16)),
    "plan_4096": dict(ranks=64),
    "serve_mix": dict(duration_s=30.0),
    "chaos_campaign": dict(config=CampaignConfig(
        scenarios=("node-failure", "serve-failover"), policies=("restart",),
        seeds=1,
    )),
    "train_functional": dict(ranks=4, steps=2),
}


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_reduced_workload_runs_and_checks(name):
    workload = workloads.WORKLOADS[name](3, **SMOKE[name])
    evaluation = workload.evaluate(workload.run())
    assert evaluation.checks
    failed = [label for label, ok in evaluation.checks if not ok]
    if name == "plan_4096":
        # at 64 ranks pure dp wins; only the shape of the plan is checked
        assert "3 candidates priced" not in failed
    else:
        assert failed == []
    assert len(canonical_digest(evaluation.digest_payload)) == 64
    assert set(evaluation.sim) <= set(run.SIM_METRICS)
    assert all(math.isfinite(v) for v in evaluation.sim.values())
    assert set(evaluation.counters) <= set(layers.COUNTER_NAMES)


def test_traced_ledger_conserves_time_and_sees_the_fast_path():
    workload = workloads.PlanHybrid(0, ranks=64)
    _, wall_s, stats, sessions = worker._profiled(workload.run)
    ledger, residual = worker._ledger(stats, sessions)
    assert wall_s > 0 and residual <= 0.01
    shares = [ledger[f"{layer}.self_share"] for layer in layers.LAYERS]
    assert sum(shares) == pytest.approx(1.0, rel=0.01)
    assert ledger["sim.fastpath.replay_ratio"] > 0
    assert ledger["mpi.calls"] > 0
