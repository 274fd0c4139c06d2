"""Tests for the first-class scenario layer: workload specs, multi-scale
costing, the recurrent video model + temporal trainer, video study points
(bit-identity across engines/jobs/cache), video serving sessions
(affinity, failover, jitter-buffer SLO), and the scale-pure batcher."""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import (
    IMAGE_SPEC,
    MPI_OPT,
    MULTISCALE8_SPEC,
    MULTISCALE_SPEC,
    SCENARIO_SPECS,
    VIDEO_SPEC,
    ScalingStudy,
    ScenarioSpec,
    StudyConfig,
    scenario_spec_by_name,
)
from repro.core.study import point_payload
from repro.errors import ConfigError
from repro.faults import FaultPlan, RankFailure
from repro.models import (
    EDSR_TINY,
    SUPPORTED_SCALES,
    ModelCostModel,
    RecurrentEDSR,
    get_scenario_cost,
    upsampler_stage_factors,
)
from repro.perf import ResultCache
from repro.serve import (
    VIDEO_MIX,
    BatchingConfig,
    DynamicBatcher,
    Request,
    RequestClass,
    ServeScenario,
    WorkloadConfig,
    generate_arrivals,
    simulate_serve,
)
from repro.sim.fastpath import walk_oracle
from repro.tensor.optim import Adam
from repro.trainer import synthetic_video, train_video_sr

FAST = settings(max_examples=25, deadline=None)


# -- ScenarioSpec --------------------------------------------------------------

class TestScenarioSpec:
    def test_image_spec_is_the_degenerate_case(self):
        assert IMAGE_SPEC.is_degenerate
        assert not IMAGE_SPEC.is_temporal
        assert IMAGE_SPEC.sample_shape() == (1, 3, 48, 48)

    def test_non_degenerate_members(self):
        assert not MULTISCALE_SPEC.is_degenerate
        assert not MULTISCALE8_SPEC.is_degenerate
        assert not VIDEO_SPEC.is_degenerate
        assert VIDEO_SPEC.is_temporal
        assert VIDEO_SPEC.sample_shape() == (8, 3, 48, 48)

    def test_lookup_by_name(self):
        for spec in SCENARIO_SPECS:
            assert scenario_spec_by_name(spec.name) is spec
        with pytest.raises(ConfigError):
            scenario_spec_by_name("holographic")

    def test_payload_roundtrip_is_json_plain(self):
        payload = VIDEO_SPEC.to_payload()
        assert payload == {
            "name": "video", "patch": 48, "scales": [2], "frames": 8,
            "frame_rate_fps": 24.0, "recurrent": True,
        }

    @pytest.mark.parametrize("kwargs", [
        dict(patch=4),
        dict(scales=()),
        dict(scales=(5,)),
        dict(scales=(4, 2)),          # not increasing
        dict(scales=(2, 2)),          # not unique
        dict(frames=0),
        dict(frames=2, frame_rate_fps=0.0),
        dict(frames=1, recurrent=True),  # hidden state needs >= 2 frames
    ])
    def test_validation_raises_typed_errors(self, kwargs):
        with pytest.raises(ConfigError):
            ScenarioSpec(name="bad", **kwargs)


# -- multi-scale costing -------------------------------------------------------

class TestMultiScaleCosting:
    def test_supported_scales_replace_the_old_special_case(self):
        # x3 used to be an ad-hoc branch; now every supported factor has a
        # declared stage plan and everything else is a typed ConfigError
        assert upsampler_stage_factors(2) == (2,)
        assert upsampler_stage_factors(3) == (3,)
        assert upsampler_stage_factors(4) == (2, 2)
        assert upsampler_stage_factors(8) == (2, 2, 2)
        for bad in (1, 5, 6, 7):
            with pytest.raises(ConfigError):
                upsampler_stage_factors(bad)

    def test_multi_head_params_match_the_trainable_model(self):
        for scales, recurrent in [
            ((2,), False), ((2, 4), False), ((2, 4, 8), False), ((2,), True),
        ]:
            cost = ModelCostModel.for_edsr_multi(
                EDSR_TINY, scales, recurrent=recurrent
            )
            model = RecurrentEDSR(EDSR_TINY, scales, recurrent=recurrent)
            assert cost.total_params == model.num_parameters(), (
                scales, recurrent,
            )

    def test_single_scale_collapses_to_the_registered_model(self):
        # the degenerate spec must not move any existing anchor
        single = ModelCostModel.for_edsr(EDSR_TINY)
        multi = ModelCostModel.for_edsr_multi(EDSR_TINY, (2,))
        assert multi.total_params == single.total_params
        assert multi.gradient_bytes == single.gradient_bytes

    def test_more_heads_cost_more(self):
        x2 = get_scenario_cost("edsr-paper", scales=(2,))
        x248 = get_scenario_cost("edsr-paper", scales=(2, 4, 8))
        assert x248.total_params > x2.total_params
        assert x248.flops_forward > x2.flops_forward

    def test_recurrent_fusion_is_priced(self):
        plain = ModelCostModel.for_edsr_multi(EDSR_TINY, (2,))
        rec = ModelCostModel.for_edsr_multi(EDSR_TINY, (2,), recurrent=True)
        assert rec.total_params > plain.total_params
        assert any("temporal.fuse" in l.name for l in rec.layers)

    def test_non_edsr_presets_are_rejected(self):
        with pytest.raises(ConfigError):
            get_scenario_cost("resnet50", scales=(2, 4))


# -- the trainable video model + temporal trainer ------------------------------

class TestVideoTraining:
    def test_forward_shapes_and_hidden_carry(self):
        model = RecurrentEDSR(EDSR_TINY, (2, 4), recurrent=True)
        from repro.tensor import Tensor
        x = Tensor(np.random.default_rng(0).random((2, 3, 8, 8), dtype=np.float32))
        outs, hidden = model(x)
        assert set(outs) == {2, 4}
        assert outs[2].data.shape == (2, 3, 16, 16)
        assert outs[4].data.shape == (2, 3, 32, 32)
        assert hidden.data.shape == (2, EDSR_TINY.n_feats, 8, 8)
        outs2, hidden2 = model(x, hidden)
        # the carried state changes the outputs (the fusion conv is live)
        assert not np.allclose(outs[2].data, outs2[2].data)
        assert hidden2.data.shape == hidden.data.shape

    def test_loss_decreases_over_sequences(self):
        model = RecurrentEDSR(EDSR_TINY, (2,), recurrent=True)
        clips = synthetic_video(
            sequences=6, frames=3, batch=2, patch=8, scales=(2,), seed=0
        )
        result = train_video_sr(model, clips, Adam(model.parameters(), lr=2e-3))
        assert result.sequences == 6
        assert result.final_loss < result.losses[0]
        assert set(result.per_scale_losses) == {2}
        assert len(result.per_scale_losses[2]) == 6
        assert result.frames_per_second > 0

    def test_synthetic_video_is_seed_deterministic(self):
        a = list(synthetic_video(
            sequences=2, frames=2, batch=1, patch=8, scales=(2, 4), seed=3))
        b = list(synthetic_video(
            sequences=2, frames=2, batch=1, patch=8, scales=(2, 4), seed=3))
        for (lr_a, hr_a), (lr_b, hr_b) in zip(a, b):
            assert np.array_equal(lr_a, lr_b)
            for s in (2, 4):
                assert np.array_equal(hr_a[s], hr_b[s])


# -- study integration ---------------------------------------------------------

STUDY_FAST = StudyConfig(measure_steps=16, warmup_steps=1)


def study_config(spec, **overrides):
    return dataclasses.replace(STUDY_FAST, workload=spec, **overrides)


class TestStudyScenarios:
    def test_config_rejects_conflicting_cadences(self):
        # video owns the periodic step structure; local-SGD may not stack
        with pytest.raises(ConfigError):
            study_config(VIDEO_SPEC, local_sgd_h=4)

    def test_config_requires_a_full_sequence(self):
        with pytest.raises(ConfigError):
            study_config(VIDEO_SPEC, measure_steps=4)

    def test_fault_plans_only_run_the_degenerate_workload(self):
        plan = FaultPlan(seed=0, faults=(RankFailure(rank=1, time=1.0),))
        with pytest.raises(ConfigError):
            ScalingStudy(MPI_OPT, study_config(VIDEO_SPEC), fault_plan=plan)

    def test_degenerate_spec_changes_nothing(self):
        base = ScalingStudy(MPI_OPT, STUDY_FAST).run_point(4)
        explicit = ScalingStudy(
            MPI_OPT, study_config(IMAGE_SPEC)
        ).run_point(4)
        assert point_payload(base) == point_payload(explicit)
        assert point_payload(base)["workload"] is None

    @pytest.mark.parametrize("spec", [MULTISCALE_SPEC, VIDEO_SPEC])
    def test_fast_exact_identity(self, spec):
        study = ScalingStudy(MPI_OPT, study_config(spec))
        with walk_oracle():
            exact = study.run_point(4)
        fast = study.run_point(4)
        assert point_payload(exact) == point_payload(fast)
        assert point_payload(exact)["workload"] == spec.to_payload()

    @pytest.mark.parametrize("spec", [MULTISCALE8_SPEC, VIDEO_SPEC])
    def test_jobs_and_cache_identity(self, spec, tmp_path):
        cache = ResultCache(str(tmp_path))
        study = ScalingStudy(MPI_OPT, study_config(spec))
        serial = study.run([1, 2, 4])
        parallel = study.run([1, 2, 4], jobs=2, cache=cache)
        warm = study.run([1, 2, 4], jobs=2, cache=cache)
        for a, b, c in zip(serial, parallel, warm):
            assert point_payload(a) == point_payload(b) == point_payload(c)
        assert cache.stats()["hits"] >= 3

    def test_video_sequences_amortize_the_update(self):
        """Non-boundary frames skip the collective: a video point beats a
        still-image point of the same per-step compute at scale."""
        image = ScalingStudy(MPI_OPT, STUDY_FAST).run_point(16)
        video = ScalingStudy(MPI_OPT, study_config(VIDEO_SPEC)).run_point(16)
        # frames-1 of every T steps are communication-free, so the mean
        # step time must come in under the every-step-allreduce workload
        assert video.step_time < image.step_time

    def test_multiscale_costs_more_than_single_scale(self):
        image = ScalingStudy(MPI_OPT, STUDY_FAST).run_point(4)
        multi = ScalingStudy(
            MPI_OPT, study_config(MULTISCALE8_SPEC)
        ).run_point(4)
        assert multi.step_time > image.step_time


# -- video serving: sessions, affinity, failover -------------------------------

def video_workload(rate=2.0):
    return WorkloadConfig(kind="video", rate_rps=rate, classes=VIDEO_MIX)


def video_scenario(name="video-test", **overrides):
    defaults = dict(
        name=name,
        workload=video_workload(),
        batching=BatchingConfig(mix_scales=False),
        session_affinity=True,
    )
    defaults.update(overrides)
    return ServeScenario(**defaults)


class TestVideoWorkload:
    def test_request_class_validates_streaming_fields(self):
        with pytest.raises(ConfigError):
            RequestClass("bad", patch=48, scale=5)
        with pytest.raises(ConfigError):
            RequestClass("bad", patch=48, scale=2, frames=0)
        with pytest.raises(ConfigError):
            RequestClass("bad", patch=48, scale=2, frames=2,
                         frame_rate_fps=0.0)
        with pytest.raises(ConfigError):
            RequestClass("bad", patch=48, scale=2, deadline_s=0.0)

    def test_video_trace_is_seed_deterministic(self):
        cfg = video_workload()
        a = generate_arrivals(cfg, 30.0, seed=5)
        b = generate_arrivals(cfg, 30.0, seed=5)
        assert a == b
        assert a != generate_arrivals(cfg, 30.0, seed=6)
        # sessions expand to per-frame requests with dense rids
        assert [r.rid for r in a] == list(range(len(a)))
        assert all(r.session is not None for r in a)

    def test_sessions_pace_frames_at_the_class_rate(self):
        arrivals = generate_arrivals(video_workload(), 30.0, seed=1)
        by_session = {}
        for r in arrivals:
            by_session.setdefault(r.session, []).append(r)
        assert len(by_session) > 2
        for frames in by_session.values():
            frames.sort(key=lambda r: r.frame)
            cls = frames[0].cls
            assert [r.frame for r in frames] == list(range(cls.frames))
            gaps = {
                round(b.arrival - a.arrival, 9)
                for a, b in zip(frames, frames[1:])
            }
            assert gaps == {round(1.0 / cls.frame_rate_fps, 9)}

    def test_single_frame_classes_keep_the_historical_trace(self):
        # a mix whose classes are all single-frame takes the pre-session
        # return path: no expansion, no session ids, no renumbering —
        # existing digests and baselines are untouched
        classes = (RequestClass("still-x2", patch=48, scale=2),)
        video = WorkloadConfig(kind="video", rate_rps=20.0, classes=classes)
        a = generate_arrivals(video, 20.0, seed=7)
        assert all(r.session is None and r.frame == 0 for r in a)
        assert [r.rid for r in a] == list(range(len(a)))
        poisson = WorkloadConfig(kind="poisson", rate_rps=20.0)
        b = generate_arrivals(poisson, 20.0, seed=7)
        assert all(r.session is None for r in b)


class TestScalePureBatching:
    def test_pop_batch_never_mixes_scales(self):
        batcher = DynamicBatcher(BatchingConfig(max_batch=8, mix_scales=False))
        x2 = RequestClass("x2", patch=48, scale=2)
        x4 = RequestClass("x4", patch=48, scale=4)
        for rid, cls in enumerate([x2, x2, x4, x4, x2]):
            batcher.enqueue(Request(rid=rid, cls=cls, arrival=0.0), now=0.0)
        seen = []
        while len(batcher):
            batch = batcher.pop_batch(now=10.0)
            assert len({r.cls.scale for r in batch}) == 1
            seen.append([r.rid for r in batch])
        # FIFO is preserved: the head run cuts at the first scale change
        assert seen == [[0, 1], [2, 3], [4]]

    def test_default_config_still_mixes(self):
        batcher = DynamicBatcher(BatchingConfig(max_batch=8))
        x2 = RequestClass("x2", patch=48, scale=2)
        x4 = RequestClass("x4", patch=48, scale=4)
        for rid, cls in enumerate([x2, x4]):
            batcher.enqueue(Request(rid=rid, cls=cls, arrival=0.0), now=0.0)
        assert len(batcher.pop_batch(now=10.0)) == 2


class TestVideoServing:
    def test_clean_run_reports_jitter_buffer_slo(self):
        report = simulate_serve(video_scenario(), duration_s=40.0, seed=3)
        s = report.summary
        assert s["completed"] + s["shed"] == s["arrived"]
        v = s["video"]
        assert v["frames_completed"] + v["frames_shed"] == v["frames_arrived"]
        assert v["sessions"] >= 2
        assert 0.0 <= v["late_frame_ratio"] <= 1.0
        assert v["frame_latency_ms"]["p99"] >= v["frame_latency_ms"]["p50"]
        assert any("sessions" in line for line in report.lines())

    def test_image_summaries_carry_no_video_block(self):
        report = simulate_serve(ServeScenario(), duration_s=20.0, seed=0)
        assert "video" not in report.summary

    def test_affinity_pins_every_session_to_one_replica(self):
        report = simulate_serve(video_scenario(), duration_s=40.0, seed=3)
        homes = {}
        for rec in report.ledger.records.values():
            if rec["outcome"] != "completed":
                continue
            homes.setdefault(rec["session"], set()).add(rec["replica"])
        assert homes
        assert all(len(replicas) == 1 for replicas in homes.values())
        assert report.summary["video"]["rehomes"] == 0

    def test_mid_stream_replica_death_rehomes_whole_sessions(self):
        # replica 0 is never the autoscaler's scale-down victim (that is
        # always the highest id), so this failure lands on live streams
        plan = FaultPlan(
            seed=0, faults=(RankFailure(rank=0, time=20.0, down_s=25.0),)
        )
        report = simulate_serve(
            video_scenario(), duration_s=60.0, seed=3, fault_plan=plan
        )
        s = report.summary
        v = s["video"]
        assert s["detections"] >= 1
        assert v["rehomes"] >= 1
        # per-session frame conservation, and a session's completed frames
        # split across at most two homes (pre- and post-failover)
        sessions = {}
        for rec in report.ledger.records.values():
            sessions.setdefault(rec["session"], []).append(rec)
        for recs in sessions.values():
            done = [r for r in recs if r["outcome"] == "completed"]
            shed = [r for r in recs if r["outcome"] == "shed"]
            assert len(done) + len(shed) == len(recs)
            assert len({r["replica"] for r in done}) <= 2
        assert v["frames_completed"] + v["frames_shed"] == v["frames_arrived"]

    def test_video_cell_is_engine_mode_identical(self):
        plan = FaultPlan(
            seed=0, faults=(RankFailure(rank=0, time=20.0, down_s=25.0),)
        )
        with walk_oracle():
            exact = simulate_serve(
                video_scenario(), duration_s=40.0, seed=1, fault_plan=plan
            )
        fast = simulate_serve(
            video_scenario(), duration_s=40.0, seed=1, fault_plan=plan
        )
        assert exact.to_payload() == fast.to_payload()

    def test_streaming_classes_imply_affinity(self):
        scenario = ServeScenario(workload=video_workload())
        assert scenario.affinity_active
        assert not ServeScenario().affinity_active


# -- the chaos campaign's video cell -------------------------------------------

class TestVideoChaosCell:
    def test_video_failover_cell_checks_session_conservation(self):
        from repro.chaos import CampaignConfig, run_campaign

        config = CampaignConfig(
            scenarios=("video-failover",), policies=("restart",),
            seeds=1, serve_duration_s=40.0,
        )
        report = run_campaign(config)
        assert report.ok, report.failures()
        (row,) = report.rows
        names = [inv["name"] for inv in row["invariants"]]
        assert "session-conservation" in names
        assert "fast-exact-identity" in names
        assert row["exact"]["summary"]["video"]["rehomes"] >= 1


# -- property-based: video arrival traces --------------------------------------

class TestVideoTraceProperties:
    @given(seed=st.integers(0, 2**31 - 1), rate=st.floats(0.5, 6.0))
    @FAST
    def test_trace_deterministic_and_frame_paced(self, seed, rate):
        cfg = WorkloadConfig(kind="video", rate_rps=rate, classes=VIDEO_MIX)
        a = generate_arrivals(cfg, 15.0, seed=seed)
        b = generate_arrivals(cfg, 15.0, seed=seed)
        assert a == b
        times = [r.arrival for r in a]
        assert times == sorted(times)
        by_session = {}
        for r in a:
            by_session.setdefault(r.session, []).append(r)
        for frames in by_session.values():
            frames.sort(key=lambda r: r.frame)
            fps = frames[0].cls.frame_rate_fps
            for prev, cur in zip(frames, frames[1:]):
                assert cur.arrival - prev.arrival \
                    == pytest.approx(1.0 / fps, abs=1e-9)

    @given(seed=st.integers(0, 2**31 - 1))
    @FAST
    def test_every_session_is_a_full_clip(self, seed):
        arrivals = generate_arrivals(video_workload(), 15.0, seed=seed)
        by_session = {}
        for r in arrivals:
            by_session.setdefault(r.session, []).append(r)
        for frames in by_session.values():
            cls = frames[0].cls
            assert len(frames) == cls.frames
            assert sorted(r.frame for r in frames) == list(range(cls.frames))
