"""Unit tests for the performance layer (``repro.perf``).

Covers the content-addressed digest (stability and sensitivity), the
on-disk result cache (byte-identical hits, clean ``--no-cache`` bypass),
steady-state detection, im2col workspace reuse, and the CLI surface
(``--jobs``, ``--no-cache``, ``--profile``, ``cache``).
"""

from __future__ import annotations

import dataclasses
import json
import os

import numpy as np
import pytest

from repro.__main__ import main
from repro.core import ScalingStudy, StudyConfig, scenario_by_name
from repro.core.study import point_from_payload, point_payload
from repro.errors import ConfigError
from repro.faults import FaultPlan, StragglerFault
from repro.horovod import HorovodConfig
from repro.perf import (
    CACHE_VERSION_SALT,
    PeriodicSteadyState,
    ResultCache,
    canonical_digest,
)
from repro.perf.digest import canonical_json


class TestCanonicalDigest:
    def test_stable_across_calls_and_dict_order(self):
        a = {"model": "edsr-paper", "gpus": 16, "knobs": {"x": 1, "y": 2}}
        b = {"knobs": {"y": 2, "x": 1}, "gpus": 16, "model": "edsr-paper"}
        assert canonical_digest(a) == canonical_digest(b)

    def test_sensitive_to_any_field(self):
        base = {"model": "edsr-paper", "gpus": 16}
        assert canonical_digest(base) != canonical_digest({**base, "gpus": 32})
        assert canonical_digest(base) != canonical_digest(
            {**base, "model": "edsr-tiny"}
        )

    def test_salt_invalidates_wholesale(self):
        obj = {"gpus": 16}
        other = CACHE_VERSION_SALT + "-next"
        assert canonical_digest(obj) != canonical_digest(obj, salt=other)
        assert canonical_digest(obj) == canonical_digest(
            obj, salt=CACHE_VERSION_SALT
        )

    def test_floats_round_trip_exactly(self):
        # repr-based canonicalization: nearby floats must not collide
        assert canonical_digest(0.1) != canonical_digest(
            0.1 + 2.7755575615628914e-17
        )

    def test_dataclasses_and_enums_canonicalize(self):
        config = StudyConfig(jitter_sigma=0.0)
        text = canonical_json(config)
        assert "StudyConfig" in text
        assert canonical_digest(config) == canonical_digest(StudyConfig(jitter_sigma=0.0))
        assert canonical_digest(config) != canonical_digest(StudyConfig())

    def test_unserializable_object_raises(self):
        with pytest.raises(ConfigError):
            canonical_digest({"fn": open})  # builtin: no __dict__/__slots__ state


class TestEnvKnobs:
    def test_point_digest_ignores_unrelated_env(self, monkeypatch):
        """A point is determined by its job alone: no environment variable
        reaches the simulation, so none enters the digest, while the
        config field an MV2 or Horovod knob maps to does."""
        study = ScalingStudy(scenario_by_name("MPI"), StudyConfig())
        before = study.point_digest(16)
        for name in ("SOME_UNRELATED_VAR", "MV2_SOME_TUNABLE",
                     "HOROVOD_FUSION_THRESHOLD", "REPRO_SIM_SEED"):
            monkeypatch.setenv(name, "42")
        assert study.point_digest(16) == before
        horovod = HorovodConfig.from_env({"HOROVOD_FUSION_THRESHOLD": "42"})
        fused = StudyConfig(horovod=horovod)
        assert ScalingStudy(
            scenario_by_name("MPI"), fused
        ).point_digest(16) != before


class TestPointDigest:
    def test_stable_and_scale_sensitive(self):
        study = ScalingStudy(scenario_by_name("MPI-Opt"), StudyConfig())
        assert study.point_digest(16) == study.point_digest(16)
        assert study.point_digest(16) != study.point_digest(32)

    def test_scenario_and_model_sensitive(self):
        config = StudyConfig()
        mpi = ScalingStudy(scenario_by_name("MPI"), config)
        opt = ScalingStudy(scenario_by_name("MPI-Opt"), config)
        assert mpi.point_digest(16) != opt.point_digest(16)
        tiny = ScalingStudy(
            scenario_by_name("MPI"), StudyConfig(model="edsr-tiny")
        )
        assert mpi.point_digest(16) != tiny.point_digest(16)

    def test_fault_plan_sensitive(self):
        def digest(plan):
            return ScalingStudy(
                scenario_by_name("MPI"), StudyConfig(), fault_plan=plan
            ).point_digest(16)

        clean = digest(None)
        plan = FaultPlan(seed=3, faults=(StragglerFault(rank=0, factor=2.0),))
        assert digest(plan) != clean
        # empty plan is still a distinct configuration from "no plan"
        assert digest(FaultPlan(seed=3)) != clean


class TestResultCache:
    def test_miss_then_hit_round_trip(self, tmp_path):
        cache = ResultCache(str(tmp_path))
        digest = "0" * 64
        assert cache.get(digest) is None
        cache.put(digest, {"x": [1, 2], "y": 0.25})
        assert cache.get(digest) == {"x": [1, 2], "y": 0.25}
        stats = cache.stats()
        assert stats["hits"] == 1 and stats["misses"] == 1
        assert cache.entry_count() == 1

    def test_disabled_cache_bypasses_cleanly(self, tmp_path):
        cache = ResultCache(str(tmp_path), enabled=False)
        digest = "1" * 64
        cache.put(digest, {"x": 1})
        assert cache.get(digest) is None
        assert list(tmp_path.iterdir()) == []

    def test_torn_write_counts_as_miss(self, tmp_path):
        cache = ResultCache(str(tmp_path))
        digest = "2" * 64
        os.makedirs(str(tmp_path), exist_ok=True)
        with open(os.path.join(str(tmp_path), f"{digest}.json"), "w") as fh:
            fh.write('{"truncated": ')
        assert cache.get(digest) is None

    def test_malformed_digest_rejected(self, tmp_path):
        cache = ResultCache(str(tmp_path))
        with pytest.raises(ConfigError):
            cache.get("../../etc/passwd")
        with pytest.raises(ConfigError):
            cache.put("abc", {})

    def test_clear_removes_entries(self, tmp_path):
        cache = ResultCache(str(tmp_path))
        cache.put("3" * 64, {"v": 1})
        cache.put("4" * 64, {"v": 2})
        assert cache.clear() == 2
        assert cache.entry_count() == 0


class TestStudyCacheIntegration:
    def test_cached_point_identical_to_fresh(self, tmp_path):
        study = ScalingStudy(scenario_by_name("MPI-Opt"), StudyConfig())
        cache = ResultCache(str(tmp_path))
        fresh = study.run([8], cache=cache)
        cached = study.run([8], cache=cache)
        assert dataclasses.asdict(cached[0]) == dataclasses.asdict(fresh[0])
        assert cache.hits == 1

    def test_cache_payload_is_byte_identical_json(self, tmp_path):
        study = ScalingStudy(scenario_by_name("MPI"), StudyConfig())
        cache = ResultCache(str(tmp_path))
        [point] = study.run([8], cache=cache)
        digest = study.point_digest(8)
        raw = cache.get(digest)
        # the cache holds the point as run_point returns it: the sweep
        # attaches efficiency afterwards
        point = dataclasses.replace(point, efficiency=None)
        assert point_from_payload(raw) == point
        # a JSON round trip of the payload is byte-identical (floats repr)
        assert json.loads(json.dumps(raw)) == point_payload(point)

    def test_no_cache_means_no_files(self, tmp_path):
        study = ScalingStudy(scenario_by_name("MPI"), StudyConfig())
        cache = ResultCache(str(tmp_path), enabled=False)
        study.run([8], cache=cache)
        assert list(tmp_path.iterdir()) == []


class TestSteadyStateDetector:
    """Period 1 is the plain window detector over raw step times."""

    def test_requires_sane_parameters(self):
        with pytest.raises(ConfigError):
            PeriodicSteadyState(1, window=1)
        with pytest.raises(ConfigError):
            PeriodicSteadyState(1, rel_tol=-1.0)
        with pytest.raises(ConfigError):
            PeriodicSteadyState(1).steady_value()

    def test_converges_on_identical_samples(self):
        det = PeriodicSteadyState(1, window=3, rel_tol=0.0)
        for _ in range(2):
            det.observe(0.5)
        assert not det.converged()
        det.observe(0.5)
        assert det.converged()
        assert det.steady_value() == 0.5

    def test_does_not_converge_on_jittered_samples(self):
        det = PeriodicSteadyState(1, window=3, rel_tol=1e-9)
        for s in (0.5, 0.51, 0.49, 0.502, 0.498):
            det.observe(s)
            assert not det.converged()

    def test_wide_tolerance_converges_with_mean(self):
        det = PeriodicSteadyState(1, window=3, rel_tol=0.1)
        for s in (0.50, 0.51, 0.49):
            det.observe(s)
        assert det.converged()
        assert det.steady_value() == pytest.approx(0.5)
        # period 1 extrapolates the window mean, not the last sample
        assert det.extrapolate(0, 2) == [det.steady_value()] * 2

    def test_rearm_forgets_converged_window(self):
        """Regression: after a world perturbation the detector must demand
        a *fresh* window — a stale pre-fault window must never keep
        reporting the old converged value."""
        det = PeriodicSteadyState(1, window=3, rel_tol=0.0)
        for _ in range(3):
            det.observe(0.5)
        assert det.converged()
        det.rearm()
        assert not det.converged()
        with pytest.raises(ConfigError):
            det.steady_value()  # no samples survive the re-arm
        # fewer than `window` post-recovery samples: still not converged,
        # even though the pre-fault window would have straddled them
        det.observe(0.8)
        det.observe(0.8)
        assert not det.converged()
        det.observe(0.8)
        assert det.converged()
        assert det.steady_value() == 0.8
        assert det.steady_value() == 0.8  # post-recovery value, not 0.5

    def test_faulty_run_extrapolates_post_fault_step_time(self):
        """End-to-end regression for the mid-run-fault re-arm: with zero
        jitter the detector converges *before* the failure, so without the
        re-arm the extrapolated tail would replay the 8-rank step time on
        a 7-rank world.  The extrapolating run must match the full
        simulation."""
        from repro.faults import RankFailure
        from repro.resilience import RecoveryPolicy

        def run(steady_detect):
            study = ScalingStudy(
                scenario_by_name("MPI-Opt"),
                StudyConfig(warmup_steps=1, measure_steps=12,
                            jitter_sigma=0.0, steady_detect=steady_detect),
                fault_plan=FaultPlan(
                    seed=11, faults=[RankFailure(rank=3, time=2.0)]),
                recovery=RecoveryPolicy(restart=False),
            )
            return study.run_point(8)

        full = run(False)
        extrapolated = run(True)
        assert full.extrapolated_steps == 0
        assert extrapolated.extrapolated_steps > 0
        assert extrapolated.images_per_second == pytest.approx(
            full.images_per_second, rel=1e-12)
        assert extrapolated.step_time == pytest.approx(
            full.step_time, rel=1e-12)
        assert (extrapolated.resilience["final_world_size"]
                == full.resilience["final_world_size"] == 7)


class TestConvWorkspace:
    def test_buffer_reused_per_shape(self):
        from repro.tensor.functional import ConvWorkspace

        ws = ConvWorkspace()
        a = ws.buffer((2, 3, 4), np.float64)
        b = ws.buffer((2, 3, 4), np.float64)
        c = ws.buffer((2, 3, 5), np.float64)
        assert a is b and a is not c
        assert ws.nbytes() == a.nbytes + c.nbytes

    def test_workspace_conv_matches_fresh_allocation(self):
        from repro.tensor import functional as F
        from repro.tensor.functional import ConvWorkspace
        from repro.tensor.tensor import Tensor

        rng = np.random.default_rng(11)
        w = Tensor(rng.normal(size=(4, 3, 3, 3)), requires_grad=True)
        ws = ConvWorkspace()
        for _ in range(3):  # reuse across calls must not corrupt anything
            x1 = Tensor(rng.normal(size=(2, 3, 6, 6)), requires_grad=True)
            x2 = Tensor(x1.data.copy(), requires_grad=True)
            out_ws = F.conv2d(x1, w, stride=1, padding=1, workspace=ws)
            out_ref = F.conv2d(x2, w, stride=1, padding=1)
            assert np.array_equal(out_ws.data, out_ref.data)
            out_ws.sum().backward()
            gw_ws = w.grad.copy()
            w.grad = None
            out_ref.sum().backward()
            assert np.array_equal(gw_ws, w.grad)
            assert np.array_equal(x1.grad, x2.grad)
            w.grad = None
        assert len(ws._buffers) == 1

    def test_conv2d_layer_owns_a_workspace(self):
        from repro.tensor.nn.layers import Conv2d
        from repro.tensor.tensor import Tensor

        layer = Conv2d(3, 4, 3, rng=np.random.default_rng(0))
        x = Tensor(np.random.default_rng(1).normal(size=(1, 3, 8, 8)))
        layer.forward(x)
        buffers = dict(layer._workspace._buffers)
        layer.forward(x)
        assert dict(layer._workspace._buffers).keys() == buffers.keys()
        assert all(
            layer._workspace._buffers[k] is buffers[k] for k in buffers
        )


class TestCli:
    def test_scale_with_cache_and_jobs(self, tmp_path, capsys):
        cache_dir = str(tmp_path / "cache")
        argv = [
            "scale", "--gpus", "4,8", "--jobs", "1",
            "--cache-dir", cache_dir,
        ]
        assert main(argv) == 0
        first = capsys.readouterr().out
        assert "result cache" in first
        assert main(argv) == 0
        second = capsys.readouterr().out
        assert "2 hit(s)" in second
        # the rendered table is identical on the warm pass
        assert first.splitlines()[:7] == second.splitlines()[:7]

    def test_scale_no_cache_writes_nothing(self, tmp_path, capsys):
        cache_dir = tmp_path / "cache"
        assert main([
            "scale", "--gpus", "4", "--no-cache",
            "--cache-dir", str(cache_dir),
        ]) == 0
        assert "result cache" not in capsys.readouterr().out
        assert not cache_dir.exists()

    def test_profile_flag_writes_pstats(self, tmp_path, capsys):
        out = str(tmp_path / "prof.pstats")
        assert main(["--profile", "--profile-out", out, "models"]) == 0
        text = capsys.readouterr().out
        assert "cumulative" in text
        assert f"profile written to {out}" in text
        import pstats

        stats = pstats.Stats(out)
        assert stats.total_calls > 0

    def test_cache_subcommand_stats_and_clear(self, tmp_path, capsys):
        cache_dir = str(tmp_path / "cache")
        ResultCache(cache_dir).put("5" * 64, {"v": 1})
        assert main(["cache", "stats", "--cache-dir", cache_dir]) == 0
        assert "entries: 1" in capsys.readouterr().out
        assert main(["cache", "clear", "--cache-dir", cache_dir]) == 0
        assert "removed 1" in capsys.readouterr().out
        assert ResultCache(cache_dir).entry_count() == 0
