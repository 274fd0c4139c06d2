"""Tests for repro.serve: workload determinism, batcher invariants
(property-based), routing, autoscaling, SLO accounting, failover, cached
policy sweeps, trace export, functional bit-exactness, and the CLI."""

import json
import os

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ConfigError, SimulationError
from repro.faults import FaultPlan, RankFailure
from repro.perf import ResultCache, run_jobs
from repro.perf.digest import CACHE_VERSION_SALT
from repro.profiling import chrome_trace, write_chrome_trace
from repro.serve import (
    DEFAULT_MIX,
    POLICY_NAMES,
    AdmissionConfig,
    AutoscalerConfig,
    BatchingConfig,
    DynamicBatcher,
    JoinShortestQueue,
    LeastLoaded,
    Request,
    RequestClass,
    RoundRobin,
    ServeJob,
    ServeReport,
    ServeScenario,
    ServingCostModel,
    SLOConfig,
    SLOLedger,
    WorkloadConfig,
    generate_arrivals,
    make_routing_policy,
    nearest_rank,
    simulate_serve,
)

FAST = settings(max_examples=50, deadline=None)


# -- workload generators -------------------------------------------------------

class TestWorkload:
    @pytest.mark.parametrize("kind", ["poisson", "diurnal", "bursty"])
    def test_same_seed_identical_trace(self, kind):
        cfg = WorkloadConfig(kind=kind, rate_rps=30.0)
        a = generate_arrivals(cfg, 20.0, seed=5)
        b = generate_arrivals(cfg, 20.0, seed=5)
        assert a == b
        assert len(a) > 0
        # arrivals are sorted, in-window, and densely rid-numbered
        times = [r.arrival for r in a]
        assert times == sorted(times)
        assert all(0.0 <= t < 20.0 for t in times)
        assert [r.rid for r in a] == list(range(len(a)))

    @pytest.mark.parametrize("kind", ["poisson", "diurnal", "bursty"])
    def test_different_seeds_differ(self, kind):
        cfg = WorkloadConfig(kind=kind, rate_rps=30.0)
        assert generate_arrivals(cfg, 20.0, seed=5) != generate_arrivals(
            cfg, 20.0, seed=6
        )

    def test_rate_scales_volume(self):
        slow = generate_arrivals(WorkloadConfig(rate_rps=5.0), 60.0, seed=1)
        fast = generate_arrivals(WorkloadConfig(rate_rps=50.0), 60.0, seed=1)
        assert len(fast) > 3 * len(slow)

    def test_class_mix_follows_weights(self):
        trace = generate_arrivals(WorkloadConfig(rate_rps=100.0), 60.0, seed=2)
        counts = {c.name: 0 for c in DEFAULT_MIX}
        for r in trace:
            counts[r.cls.name] += 1
        # thumb-x2 outweighs photo-x4 6:1 in expectation
        assert counts["thumb-x2"] > counts["photo-x4"] * 2

    def test_validation(self):
        with pytest.raises(ConfigError):
            WorkloadConfig(kind="sawtooth")
        with pytest.raises(ConfigError):
            WorkloadConfig(rate_rps=0.0)
        with pytest.raises(ConfigError):
            WorkloadConfig(classes=())
        with pytest.raises(ConfigError):
            RequestClass("bad", scale=5)
        with pytest.raises(ConfigError):
            generate_arrivals(WorkloadConfig(), 0.0, seed=1)


# -- dynamic batcher (property-based) ------------------------------------------

def _req(i: int, t: float) -> Request:
    return Request(rid=i, cls=DEFAULT_MIX[0], arrival=t)


# monotone enqueue clocks plus a driver that dispatches whenever ready
arrival_gaps = st.lists(
    st.floats(0.0, 0.1, allow_nan=False, allow_infinity=False),
    min_size=1, max_size=60,
)


class TestBatcherProperties:
    @given(gaps=arrival_gaps, max_batch=st.integers(1, 9),
           timeout_ms=st.floats(0.0, 50.0, allow_nan=False))
    @FAST
    def test_driver_invariants(self, gaps, max_batch, timeout_ms):
        """Simulate the replica driver loop over an arbitrary arrival
        pattern: batches never exceed max_batch, no request's batch
        dispatches later than its enqueue time + timeout, and dispatch
        order is globally FIFO (hence FIFO within each class)."""
        config = BatchingConfig(
            max_batch=max_batch, timeout_s=timeout_ms / 1e3
        )
        batcher = DynamicBatcher(config)
        now = 0.0
        enqueued_at = {}
        dispatched = []

        for i, gap in enumerate(gaps):
            arrival = now + gap
            # dispatch any batch whose deadline expires before this arrival
            while len(batcher) and batcher.next_deadline() <= arrival:
                at = max(now, batcher.next_deadline())
                assert batcher.ready(at)
                batch = batcher.pop_batch(at)
                assert 1 <= len(batch) <= max_batch
                dispatched.extend((r.rid, at) for r in batch)
            now = arrival
            req = _req(i, now)
            batcher.enqueue(req, now)
            enqueued_at[req.rid] = now
            # a full batcher dispatches immediately
            while batcher.ready(now):
                batch = batcher.pop_batch(now)
                assert 1 <= len(batch) <= max_batch
                dispatched.extend((r.rid, now) for r in batch)
        # drain the tail at each pending deadline
        while len(batcher):
            now = max(now, batcher.next_deadline())
            assert batcher.ready(now)
            batch = batcher.pop_batch(now)
            assert 1 <= len(batch) <= max_batch
            dispatched.extend((r.rid, now) for r in batch)

        rids = [rid for rid, _ in dispatched]
        assert rids == sorted(rids)  # global FIFO
        assert set(rids) == set(enqueued_at)  # nothing lost or duplicated
        for rid, at in dispatched:
            assert at <= enqueued_at[rid] + config.timeout_s + 1e-9

    def test_clock_must_be_monotone(self):
        batcher = DynamicBatcher(BatchingConfig())
        batcher.enqueue(_req(0, 5.0), 5.0)
        with pytest.raises(ConfigError):
            batcher.enqueue(_req(1, 1.0), 1.0)

    def test_pop_empty_raises_and_drain_clears(self):
        batcher = DynamicBatcher(BatchingConfig(max_batch=4))
        with pytest.raises(ConfigError):
            batcher.pop_batch(0.0)
        for i in range(3):
            batcher.enqueue(_req(i, 0.0), 0.0)
        assert [r.rid for r in batcher.drain()] == [0, 1, 2]
        assert len(batcher) == 0


# -- routing policies ----------------------------------------------------------

class _FakeReplica:
    def __init__(self, id, queue, backlog):
        self.id, self._queue, self._backlog = id, queue, backlog

    def queue_len(self):
        return self._queue

    def backlog_s(self, now):
        return self._backlog


class TestRouting:
    def test_round_robin_cycles_in_id_order(self):
        reps = [_FakeReplica(2, 0, 0), _FakeReplica(0, 9, 9), _FakeReplica(1, 5, 5)]
        rr = RoundRobin()
        picks = [rr.choose(reps, 0.0).id for _ in range(6)]
        assert picks == [0, 1, 2, 0, 1, 2]

    def test_jsq_min_queue_ties_to_lowest_id(self):
        reps = [_FakeReplica(3, 2, 0), _FakeReplica(1, 2, 9), _FakeReplica(2, 5, 1)]
        assert JoinShortestQueue().choose(reps, 0.0).id == 1

    def test_least_loaded_uses_backlog(self):
        reps = [_FakeReplica(0, 1, 3.0), _FakeReplica(1, 9, 0.5)]
        assert LeastLoaded().choose(reps, 0.0).id == 1

    def test_empty_pool_and_factory(self):
        assert RoundRobin().choose([], 0.0) is None
        for name in POLICY_NAMES:
            assert make_routing_policy(name).name == name
        assert make_routing_policy("round-robin").name == "rr"
        with pytest.raises(ConfigError):
            make_routing_policy("random")
        with pytest.raises(ConfigError):
            AdmissionConfig(queue_capacity=0)


# -- autoscaler decision function ----------------------------------------------

class TestAutoscaler:
    def test_thresholds_and_limits(self):
        cfg = AutoscalerConfig(min_replicas=1, max_replicas=4,
                               scale_up_at=4.0, scale_down_at=0.5,
                               cooldown_s=5.0)
        up = dict(now=100.0, last_action_at=0.0)
        assert cfg.decide(queued=20, replicas=2, **up) == +1
        assert cfg.decide(queued=20, replicas=4, **up) == 0  # at ceiling
        assert cfg.decide(queued=0, replicas=2, **up) == -1
        assert cfg.decide(queued=0, replicas=1, **up) == 0  # at floor
        assert cfg.decide(queued=4, replicas=2, **up) == 0  # in band

    def test_cooldown_and_disabled(self):
        cfg = AutoscalerConfig(cooldown_s=5.0)
        assert cfg.decide(queued=99, replicas=1, now=3.0, last_action_at=0.0) == 0
        off = AutoscalerConfig(enabled=False)
        assert off.decide(queued=99, replicas=1, now=50.0, last_action_at=0.0) == 0

    def test_validation(self):
        with pytest.raises(ConfigError):
            AutoscalerConfig(min_replicas=0)
        with pytest.raises(ConfigError):
            AutoscalerConfig(min_replicas=4, max_replicas=2)
        with pytest.raises(ConfigError):
            AutoscalerConfig(scale_up_at=0.5, scale_down_at=0.5)


# -- SLO ledger ----------------------------------------------------------------

class TestSLOLedger:
    def test_nearest_rank(self):
        vals = [1.0, 2.0, 3.0, 4.0]
        assert nearest_rank(vals, 0.50) == 2.0
        assert nearest_rank(vals, 0.99) == 4.0
        assert nearest_rank([], 0.5) == 0.0

    def test_accounting_and_terminal_states(self):
        ledger = SLOLedger(SLOConfig(target_latency_s=0.5))
        r0, r1 = _req(0, 0.0), _req(1, 1.0)
        ledger.note_arrival(r0)
        ledger.note_arrival(r1)
        with pytest.raises(SimulationError):
            ledger.note_arrival(r0)  # duplicate arrival
        with pytest.raises(SimulationError):
            ledger.finalize(10.0)  # still pending
        ledger.note_completed(r0, 0.25)
        ledger.note_shed(r1, 1.0)
        with pytest.raises(SimulationError):
            ledger.note_completed(r0, 9.0)  # double terminal
        summary = ledger.finalize(10.0)
        assert summary["arrived"] == 2
        assert summary["completed"] == 1 and summary["shed"] == 1
        assert summary["slo_attainment"] == 1.0
        assert summary["goodput_rps"] == pytest.approx(0.1)


# -- the serving cost model ----------------------------------------------------

class TestServingCost:
    def test_padding_aware_batch_latency(self):
        cost = ServingCostModel()
        cheap, heavy = DEFAULT_MIX[0], DEFAULT_MIX[2]
        mixed = [_req(0, 0.0), Request(rid=1, cls=heavy, arrival=0.0)]
        pure_heavy = [Request(rid=i, cls=heavy, arrival=0.0) for i in range(2)]
        # a mixed batch is charged exactly like an all-heavy batch
        assert cost.batch_latency(mixed) == cost.batch_latency(pure_heavy)
        assert cost.request_latency(heavy) > cost.request_latency(cheap)

    def test_batching_amortizes(self):
        cost = ServingCostModel()
        reqs = [_req(i, 0.0) for i in range(8)]
        per_req = cost.batch_latency(reqs) / 8
        assert per_req < cost.request_latency(DEFAULT_MIX[0])

    def test_cold_start_positive(self):
        from repro.resilience import CheckpointPolicy

        cold = ServingCostModel().cold_start_s(CheckpointPolicy())
        assert cold > 0.0

    def test_unknown_model_rejected(self):
        with pytest.raises(ConfigError):
            ServingCostModel(model="vgg-99")


# -- end-to-end simulation -----------------------------------------------------

class TestSimulation:
    def test_run_twice_identical_ledger(self):
        scn = ServeScenario()
        a = simulate_serve(scn, duration_s=8.0, seed=7)
        b = simulate_serve(scn, duration_s=8.0, seed=7)
        assert a.summary == b.summary
        assert a.summary["arrived"] == (
            a.summary["completed"] + a.summary["shed"]
        )

    @pytest.mark.parametrize("policy", POLICY_NAMES)
    def test_every_policy_resolves_all_requests(self, policy):
        report = simulate_serve(
            ServeScenario(routing=policy), duration_s=6.0, seed=3
        )
        s = report.summary
        assert s["arrived"] > 0
        assert s["arrived"] == s["completed"] + s["shed"]
        assert s["latency_ms"]["p99"] >= s["latency_ms"]["p50"] > 0

    def test_shedding_under_tiny_queues(self):
        scn = ServeScenario(
            initial_replicas=1,
            workload=WorkloadConfig(rate_rps=80.0),
            admission=AdmissionConfig(queue_capacity=2),
            autoscaler=AutoscalerConfig(enabled=False),
        )
        s = simulate_serve(scn, duration_s=5.0, seed=1).summary
        assert s["shed"] > 0
        assert s["arrived"] == s["completed"] + s["shed"]

    def test_autoscaler_reacts_to_bursts(self):
        scn = ServeScenario(
            initial_replicas=1,
            workload=WorkloadConfig(kind="bursty", rate_rps=20.0),
            autoscaler=AutoscalerConfig(max_replicas=6, cooldown_s=1.0),
        )
        s = simulate_serve(scn, duration_s=20.0, seed=4).summary
        assert s["cold_starts"] > 0 and s["cold_start_s"] > 0.0
        no_scale = ServeScenario(
            initial_replicas=1,
            workload=WorkloadConfig(kind="bursty", rate_rps=20.0),
            autoscaler=AutoscalerConfig(enabled=False),
        )
        s2 = simulate_serve(no_scale, duration_s=20.0, seed=4).summary
        assert s2["cold_starts"] == 0

    def test_failover_accounts_for_every_request(self):
        plan = FaultPlan(faults=(RankFailure(rank=0, time=3.0),))
        s = simulate_serve(
            ServeScenario(), duration_s=12.0, seed=7, fault_plan=plan
        ).summary
        assert s["detections"] == 1
        assert s["retried_requests"] >= 1
        assert s["arrived"] == s["completed"] + s["shed"]

    def test_failure_of_unknown_replica_is_noop(self):
        plan = FaultPlan(faults=(RankFailure(rank=99, time=1.0),))
        s = simulate_serve(
            ServeScenario(), duration_s=4.0, seed=2, fault_plan=plan
        ).summary
        assert s["detections"] == 0
        assert s["arrived"] == s["completed"] + s["shed"]

    def test_failover_is_deterministic(self):
        plan = FaultPlan(faults=(RankFailure(rank=1, time=2.0),))
        a = simulate_serve(ServeScenario(), duration_s=8.0, seed=9,
                           fault_plan=plan)
        b = simulate_serve(ServeScenario(), duration_s=8.0, seed=9,
                           fault_plan=plan)
        assert a.summary == b.summary

    def test_report_payload_round_trip(self):
        report = simulate_serve(ServeScenario(), duration_s=4.0, seed=1)
        clone = ServeReport.from_payload(report.to_payload())
        assert clone.to_payload() == report.to_payload()
        assert any("latency" in line for line in clone.lines())


# -- sweeps, digests, cache ----------------------------------------------------

class TestSweep:
    def _jobs(self):
        return [
            ServeJob(ServeScenario(routing=p), duration_s=5.0, seed=7)
            for p in POLICY_NAMES
        ]

    def test_jobs1_vs_jobs2_identical(self):
        serial = run_jobs(self._jobs(), workers=1)
        parallel = run_jobs(self._jobs(), workers=2)
        assert [r.to_payload() for r in serial] == [
            r.to_payload() for r in parallel
        ]

    def test_cache_round_trip(self, tmp_path):
        cache = ResultCache(str(tmp_path))
        cold = run_jobs(self._jobs(), workers=1, cache=cache)
        warm = run_jobs(self._jobs(), workers=1, cache=cache)
        assert [r.to_payload() for r in cold] == [
            r.to_payload() for r in warm
        ]
        stats = cache.stats()
        assert stats["hits"] == 3 and stats["misses"] == 3

    def test_digest_sensitivity(self):
        base = ServeJob(ServeScenario(), duration_s=5.0, seed=7)
        assert base.digest() == ServeJob(
            ServeScenario(), duration_s=5.0, seed=7
        ).digest()
        variants = [
            ServeJob(ServeScenario(routing="rr"), duration_s=5.0, seed=7),
            ServeJob(ServeScenario(), duration_s=6.0, seed=7),
            ServeJob(ServeScenario(), duration_s=5.0, seed=8),
            ServeJob(
                ServeScenario(batching=BatchingConfig(max_batch=4)),
                duration_s=5.0, seed=7,
            ),
            ServeJob(
                ServeScenario(), duration_s=5.0, seed=7,
                fault_plan=FaultPlan(faults=(RankFailure(rank=0, time=1.0),)),
            ),
        ]
        digests = {v.digest() for v in variants}
        assert len(digests) == len(variants)
        assert base.digest() not in digests

    def test_serve_digest_never_aliases_training(self):
        # serving preimages are keyed "serve-point"; the training sweeps
        # use "scaling-point" — plus the v8 salt guards stale v7 caches
        # (v8: hybrid parallel layouts folded into what a cached point
        # contains)
        assert CACHE_VERSION_SALT == "repro-perf-v9"
        from repro.perf.digest import canonical_json

        job = ServeJob(ServeScenario(), duration_s=5.0, seed=7)
        preimage = {
            "kind": "serve-point",
            "scenario": job.scenario,
            "duration_s": job.duration_s,
            "seed": job.seed,
        }
        assert '"serve-point"' in canonical_json(preimage)


# -- chrome trace export -------------------------------------------------------

class TestTraceExport:
    def test_serve_trace_is_valid_chrome_json(self, tmp_path):
        report = simulate_serve(
            ServeScenario(), duration_s=4.0, seed=1, collect_trace=True
        )
        assert report.trace, "collect_trace produced no events"
        doc = chrome_trace(report.trace)
        assert doc["displayTimeUnit"] == "ms"
        for ev in doc["traceEvents"]:
            assert {"name", "ph", "ts", "pid", "tid"} <= set(ev)
            assert ev["ph"] in ("X", "i")
            if ev["ph"] == "X":
                assert ev["dur"] >= 0
        path = tmp_path / "trace.json"
        n = write_chrome_trace(str(path), report.trace)
        on_disk = json.loads(path.read_text())
        assert len(on_disk["traceEvents"]) == n == len(doc["traceEvents"])

    def test_trace_disabled_by_default(self):
        report = simulate_serve(ServeScenario(), duration_s=2.0, seed=1)
        assert report.trace is None

    def test_hvprof_timeline_export(self):
        from repro.core import MPI_OPT, ScalingStudy, StudyConfig
        from repro.profiling import Hvprof, hvprof_trace_events

        hv = Hvprof()
        ScalingStudy(MPI_OPT, StudyConfig(measure_steps=2)).run_point(
            4, hvprof=hv
        )
        events = hvprof_trace_events(hv)
        assert events
        assert all(ev.pid == "hvprof" for ev in events)


# -- functional serving path ---------------------------------------------------

class TestFunctionalServer:
    def test_served_equals_offline_bitwise(self, tmp_path):
        from repro.models.edsr import EDSR, EDSR_TINY
        from repro.serve import FunctionalServer
        from repro.trainer.checkpoint import save_checkpoint

        model = EDSR(EDSR_TINY, rng=np.random.default_rng(3))
        path = str(tmp_path / "ckpt.npz")
        save_checkpoint(model, path)
        server = FunctionalServer.from_checkpoint(path, EDSR_TINY)

        rng = np.random.default_rng(0)
        images = [
            rng.standard_normal((3, 12, 12)).astype(np.float32)
            for _ in range(3)
        ] + [
            rng.standard_normal((3, 16, 16)).astype(np.float32)
            for _ in range(2)
        ]
        outputs = server.serve_batch(images)
        for image, out in zip(images, outputs):
            reference = server.offline(image)
            assert out.shape == reference.shape
            assert np.array_equal(out, reference)  # bit-identical
        assert server.batches_served == 1
        assert server.requests_served == 5

    def test_checkpoint_restores_weights_exactly(self, tmp_path):
        from repro.models.edsr import EDSR, EDSR_TINY
        from repro.serve import FunctionalServer
        from repro.trainer.checkpoint import save_checkpoint

        model = EDSR(EDSR_TINY, rng=np.random.default_rng(8))
        path = str(tmp_path / "ckpt.npz")
        save_checkpoint(model, path)
        server = FunctionalServer.from_checkpoint(path, EDSR_TINY)
        image = np.random.default_rng(1).standard_normal((3, 10, 10)).astype(
            np.float32
        )
        assert np.array_equal(server.offline(image), model.upscale(image))

    def test_rejects_bad_batches(self):
        from repro.models.edsr import EDSR, EDSR_TINY
        from repro.serve import FunctionalServer

        server = FunctionalServer(EDSR(EDSR_TINY))
        with pytest.raises(ConfigError):
            server.serve_batch([])
        with pytest.raises(ConfigError):
            server.serve_batch([np.zeros((3, 8))])


# -- CLI -----------------------------------------------------------------------

class TestServeCLI:
    def test_single_policy_run(self, capsys):
        from repro.__main__ import main

        assert main(["serve", "--policy", "jsq", "--duration", "5",
                     "--seed", "7", "--no-cache"]) == 0
        out = capsys.readouterr().out
        assert "policy jsq" in out
        assert "SLO attainment" in out

    def test_all_policies_with_failure_report_and_trace(self, capsys, tmp_path):
        from repro.__main__ import main

        report_path = str(tmp_path / "serve.json")
        trace_path = str(tmp_path / "trace.json")
        assert main([
            "serve", "--policy", "all", "--duration", "5", "--seed", "7",
            "--fail", "0@2.0", "--no-cache", "--report", report_path,
            "--trace", trace_path,
        ]) == 0
        payload = json.loads(open(report_path).read())
        assert payload["kind"] == "serve-sweep"
        assert [r["policy"] for r in payload["reports"]] == list(POLICY_NAMES)
        for r in payload["reports"]:
            s = r["summary"]
            assert s["arrived"] == s["completed"] + s["shed"]
        trace = json.loads(open(trace_path).read())
        assert trace["traceEvents"]

    def test_cli_determinism(self, capsys, tmp_path):
        from repro.__main__ import main

        paths = [str(tmp_path / f"r{i}.json") for i in range(2)]
        for path in paths:
            assert main(["serve", "--policy", "jsq", "--duration", "10",
                         "--seed", "7", "--no-cache", "--report", path]) == 0
        capsys.readouterr()
        assert open(paths[0]).read() == open(paths[1]).read()
