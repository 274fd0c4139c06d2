"""Smoke tests that run every example end-to-end (small budgets).

Examples are the public face of the repo; these tests keep them working.
Each example's ``main()`` is invoked in-process with downsized arguments.
"""

import runpy
import sys

import pytest

EXAMPLES = "examples"


def run_example(monkeypatch, capsys, script: str, argv: list[str]) -> str:
    monkeypatch.setattr(sys, "argv", [script] + argv)
    runpy.run_path(f"{EXAMPLES}/{script}", run_name="__main__")
    return capsys.readouterr().out


def test_quickstart(monkeypatch, capsys):
    out = run_example(monkeypatch, capsys, "quickstart.py",
                      ["--steps", "15", "--batch", "2", "--patch", "8"])
    assert "trained 15 steps" in out
    assert "bicubic" in out


def test_visibility_mechanism(monkeypatch, capsys):
    out = run_example(monkeypatch, capsys, "visibility_mechanism.py", [])
    assert "host-staged" in out
    assert "cuda-ipc" in out
    assert "MV2_VISIBLE_DEVICES" in out or "MV2-effective" in out


def test_batch_size_sweep(monkeypatch, capsys):
    out = run_example(monkeypatch, capsys, "batch_size_sweep.py", [])
    assert "OOM" in out
    assert "max batch" in out


def test_scaling_study(monkeypatch, capsys):
    out = run_example(
        monkeypatch, capsys, "scaling_study.py",
        ["--max-gpus", "8", "--scenarios", "MPI,MPI-Opt", "--steps", "1"],
    )
    assert "Scaling efficiency" in out
    assert "speedup" in out


def test_profile_allreduce(monkeypatch, capsys):
    out = run_example(monkeypatch, capsys, "profile_allreduce.py",
                      ["--steps", "5", "--gpus", "4"])
    assert "Table I" in out
    assert "recommend" in out


def test_train_edsr_distributed(monkeypatch, capsys):
    out = run_example(monkeypatch, capsys, "train_edsr_distributed.py",
                      ["--steps", "2", "--ranks", "2", "--batch", "1"])
    assert "replicas still in sync: True" in out


def test_tune_horovod(monkeypatch, capsys):
    out = run_example(
        monkeypatch, capsys, "tune_horovod.py",
        ["--gpus", "4", "--thresholds", "64", "--cycles", "3.5,25"],
    )
    assert "best" in out


def test_model_zoo_comparison(monkeypatch, capsys):
    out = run_example(monkeypatch, capsys, "model_zoo_comparison.py",
                      ["--steps", "10", "--val-images", "1"])
    assert "bicubic" in out
    assert "EDSR (tiny)" in out


def test_reproduce_paper(monkeypatch, capsys, tmp_path):
    out = run_example(
        monkeypatch, capsys, "reproduce_paper.py",
        ["--max-gpus", "8", "--steps", "1", "--profile-steps", "3",
         "--out", str(tmp_path / "report.txt")],
    )
    assert "Fig. 1" in out
    assert "Table I" in out
    assert (tmp_path / "report.txt").exists()


def test_inject_faults(monkeypatch, capsys):
    out = run_example(
        monkeypatch, capsys, "inject_faults.py",
        ["--ranks", "4", "--steps", "4", "--fail-rank", "2"],
    )
    assert "runs identical: True" in out
    assert "drift 0.0" in out
    assert "world size over time" in out
    assert "rank-dead" in out


def test_serve_traffic(monkeypatch, capsys):
    out = run_example(monkeypatch, capsys, "serve_traffic.py",
                      ["--duration", "90", "--seed", "11"])
    assert "failure detected and failed over" in out
    assert "within the 1000 ms SLO" in out
