"""Chaos campaign runner: scenarios, invariants, digest reproducibility.

The campaign's contract is checked from three angles:

* the scenario registry lowers to valid, seed-staggered fault plans with
  the blast radii the topology implies;
* the invariant predicates themselves (pure functions over payloads)
  accept conserving ledgers and reject cooked ones;
* an end-to-end campaign is green, its digest is identical across
  ``jobs=1`` / ``jobs=2`` / a warm-cache re-run, and the default engine is
  bit-identical to the walk oracle for partition and switch-failure
  cells at 16 ranks, and for every training cell at 32 ranks, where the
  default engine collapses rings.
"""

import json
import os
import subprocess
import sys

import pytest

from repro.chaos import (
    POLICY_NAMES,
    SCENARIOS,
    SERVE_SCENARIOS,
    TRAIN_SCENARIOS,
    CampaignConfig,
    build_plan,
    run_campaign,
)
from repro.chaos.invariants import (
    blast_radius,
    corruption_detected,
    fast_exact_identity,
    ledger_conservation,
    request_conservation,
)
from repro.chaos.scenarios import scenario_by_name
from repro.errors import ConfigError
from repro.faults import CorruptionFault, NodeFailure, PartitionFault, SwitchFailure
from repro.faults.domains import Topology
from repro.perf.cache import ResultCache

# 4 Lassen nodes x 4 GPUs behind 2 leaf switches: the 16-rank world the
# acceptance criteria pin
TOPO = Topology(num_nodes=4)


class TestScenarioRegistry:
    def test_registry_covers_training_and_serving(self):
        assert set(TRAIN_SCENARIOS) | set(SERVE_SCENARIOS) == set(SCENARIOS)
        assert "partition" in TRAIN_SCENARIOS
        assert "serve-failover" in SERVE_SCENARIOS

    def test_unknown_scenario_raises(self):
        with pytest.raises(ConfigError, match="unknown chaos scenario"):
            scenario_by_name("meteor-strike")

    def test_plans_are_seeded_and_staggered(self):
        times = set()
        for seed in range(4):
            plan = build_plan("node-failure", seed, TOPO)
            assert plan.seed == seed
            (fault,) = plan.of_type(NodeFailure)
            times.add(fault.time)
        assert len(times) == 4  # each seed lands at a different phase

    def test_switch_failure_needs_survivors(self):
        # one switch carries every node: no surviving side would remain
        with pytest.raises(ConfigError, match="switch-failure"):
            build_plan("switch-failure", 0, Topology(num_nodes=2))
        plan = build_plan("switch-failure", 0, TOPO)
        (fault,) = plan.of_type(SwitchFailure)
        assert fault.switch == TOPO.num_switches - 1

    def test_partition_severs_the_upper_half(self):
        plan = build_plan("partition", 0, TOPO)
        (fault,) = plan.of_type(PartitionFault)
        assert fault.nodes == (2, 3)
        assert fault.duration is not None  # heals, so regrow is possible

    def test_wire_corruption_window_is_permanent(self):
        # message faults run on the collective-local clock (each engine
        # step starts near 0), so only a start-0 permanent window can fire
        plan = build_plan("wire-corruption", 1, TOPO)
        (fault,) = plan.of_type(CorruptionFault)
        assert fault.start == 0.0 and fault.duration is None

    def test_expected_survivors_match_topology(self):
        expected = {
            "node-failure": 12,   # minus one 4-GPU node
            "switch-failure": 8,  # minus the 2 nodes behind the last TOR
            "partition": 8,       # minus the severed upper half
            "wire-corruption": 16,  # CRC+retry: nobody leaves the job
        }
        for name, survivors in expected.items():
            assert SCENARIOS[name].expected_survivors(TOPO) == survivors


class TestInvariantPredicates:
    RES = {
        "productive_s": 6.0, "checkpoint_s": 1.0, "detection_s": 0.5,
        "lost_work_s": 0.25, "recovery_s": 0.25, "wall_clock_s": 8.0,
    }

    def test_ledger_conservation_accepts_exact_sum(self):
        assert ledger_conservation(self.RES).ok

    def test_ledger_conservation_rejects_leaked_time(self):
        cooked = dict(self.RES, wall_clock_s=9.0)
        result = ledger_conservation(cooked)
        assert not result.ok and "rel err" in result.detail

    def test_corruption_must_pair_with_crc(self):
        assert corruption_detected({"wire-corrupt": 3, "crc-detected": 3}).ok
        assert not corruption_detected({"wire-corrupt": 3, "crc-detected": 2}).ok
        assert corruption_detected({}).ok  # clean cell

    def test_blast_radius_checks_final_world(self):
        assert blast_radius({"final_world_size": 12}, 12).ok
        assert not blast_radius({"final_world_size": 16}, 12).ok

    def test_request_conservation(self):
        assert request_conservation(
            {"arrived": 10, "completed": 8, "shed": 2}).ok
        assert not request_conservation(
            {"arrived": 10, "completed": 8, "shed": 1}).ok

    def test_identity_reports_first_differing_path(self):
        a = {"resilience": {"goodput": 0.9, "restarts": 1}}
        b = {"resilience": {"goodput": 0.8, "restarts": 1}}
        assert fast_exact_identity(a, a).ok
        result = fast_exact_identity(a, b)
        assert not result.ok
        assert "resilience.goodput" in result.detail


class TestCampaignConfig:
    def test_default_covers_every_scenario_and_policy(self):
        config = CampaignConfig()
        assert set(config.scenarios) == set(SCENARIOS)
        assert config.policies == POLICY_NAMES
        assert len(config.cells()) == \
            len(SCENARIOS) * len(POLICY_NAMES) * config.seeds

    def test_rejects_unknown_names_and_bad_sizes(self):
        with pytest.raises(ConfigError):
            CampaignConfig(scenarios=("meteor-strike",))
        with pytest.raises(ConfigError):
            CampaignConfig(policies=("pray",))
        with pytest.raises(ConfigError):
            CampaignConfig(seeds=0)
        with pytest.raises(ConfigError):
            CampaignConfig(num_gpus=1)

    def test_cell_order_is_scenario_major(self):
        config = CampaignConfig(
            scenarios=("partition", "node-failure"),
            policies=("shrink",), seeds=2)
        assert config.cells() == [
            ("partition", "shrink", 0), ("partition", "shrink", 1),
            ("node-failure", "shrink", 0), ("node-failure", "shrink", 1),
        ]


def watch_sessions(monkeypatch) -> list:
    """Record ``(walk oracle on, session)`` for every world built."""
    import repro.sim.fastpath as fastpath

    built = []
    enable = fastpath.enable_fastpath

    def watched(world):
        session = enable(world)
        built.append((fastpath.WALK_ORACLE, session))
        return session

    monkeypatch.setattr(fastpath, "enable_fastpath", watched)
    return built


def small_campaign(**overrides):
    """Two training scenarios, one policy, one seed: 4 engine runs."""
    defaults = dict(
        scenarios=("partition", "switch-failure"),
        policies=("shrink",), seeds=1, num_gpus=16, measure_steps=12,
    )
    defaults.update(overrides)
    return CampaignConfig(**defaults)


class TestCampaignRun:
    def test_invariants_green_and_rows_in_cell_order(self):
        config = small_campaign()
        report = run_campaign(config)
        assert report.ok, report.failures()
        assert [(r["scenario"], r["policy"], r["seed"]) for r in report.rows] \
            == config.cells()
        assert report.digest and report.to_payload()["ok"]

    def test_fast_exact_identity_at_16_ranks(self, monkeypatch):
        """Partition and switch-failure cells are bit-identical on the
        default engine and the walk oracle at 16 ranks, where no ring
        collapses but the default pass prices the intra-node phases of
        its hierarchical allreduces from one group per shape."""
        built = watch_sessions(monkeypatch)
        report = run_campaign(small_campaign())
        for row in report.rows:
            assert row["fast"] == row["exact"], row["scenario"]
            names = [inv["name"] for inv in row["invariants"]]
            assert "fast-exact-identity" in names
        worlds = {row["exact"]["resilience"]["world_sizes"][0]
                  for row in report.rows}
        assert worlds == {16}
        default = [s for walk, s in built if not walk]
        assert sum(s.ring_transfers for s in default) == 0
        assert sum(s.group_transfers for s in default) == 1_728

    def test_identity_checks_the_closed_form_at_32_gpus(self, monkeypatch):
        """At 32 GPUs the default pass collapses rings and node groups,
        and the identity invariant compares both closed forms with the
        walk oracle."""
        built = watch_sessions(monkeypatch)
        report = run_campaign(
            CampaignConfig(scenarios=TRAIN_SCENARIOS, seeds=1, num_gpus=32)
        )
        invariants = [inv for row in report.rows for inv in row["invariants"]]
        assert len(invariants) == 50
        assert report.ok, report.failures()
        default = [s for walk, s in built if not walk]
        walked = [s for walk, s in built if walk]
        assert sum(s.ring_transfers for s in default) == 21_120
        assert sum(s.group_transfers for s in default) == 16_128
        assert sum(s.replayed_transfers for s in default) == 37_248
        assert walked and all(s is None for s in walked)

    def test_digest_identical_across_jobs_and_cache(self, tmp_path):
        config = small_campaign()
        cache = ResultCache(str(tmp_path))
        serial = run_campaign(config, jobs=1)
        parallel = run_campaign(config, jobs=2, cache=cache)
        cached = run_campaign(config, jobs=2, cache=cache)
        assert serial.digest == parallel.digest == cached.digest
        assert cache.stats()["hits"] >= 4  # warm re-run hit every cell
        assert serial.rows == parallel.rows == cached.rows

    def test_digest_moves_with_the_config(self):
        base = run_campaign(small_campaign())
        more_steps = run_campaign(small_campaign(measure_steps=13))
        assert base.digest != more_steps.digest

    def test_serve_cell_green(self):
        config = CampaignConfig(
            scenarios=("serve-failover",), policies=("restart",),
            seeds=1, serve_duration_s=40.0)
        report = run_campaign(config)
        assert report.ok, report.failures()
        (row,) = report.rows
        assert row["kind"] == "serve"
        summary = row["exact"]["summary"]
        assert summary["completed"] + summary["shed"] == summary["arrived"]
        assert summary["detections"] >= 1

    def test_red_cell_is_located_by_coordinates(self):
        report = run_campaign(small_campaign())
        # cook one invariant to prove failures() pins the cell
        report.rows[1]["invariants"][0]["ok"] = False
        report.rows[1]["invariants"][0]["detail"] = "cooked"
        assert not report.ok
        (failure,) = report.failures()
        assert failure["scenario"] == "switch-failure"
        assert failure["detail"] == "cooked"


def run_cli(*argv):
    repo = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(repo, "src")
    return subprocess.run(
        [sys.executable, "-m", "repro", "chaos", *argv],
        capture_output=True, text=True, env=env, cwd=repo,
    )


class TestChaosCli:
    def test_cli_campaign_green_and_report_written(self, tmp_path):
        report_path = tmp_path / "campaign.json"
        proc = run_cli(
            "--scenarios", "node-failure", "--policies", "shrink",
            "--seeds", "1", "--steps", "12", "--no-cache",
            "--report", str(report_path))
        assert proc.returncode == 0, proc.stderr
        assert "invariant check(s) green" in proc.stdout
        payload = json.loads(report_path.read_text())
        assert payload["ok"] is True
        assert payload["digest"] in proc.stdout

    def test_cli_rejects_unknown_scenario(self):
        proc = run_cli("--scenarios", "meteor-strike", "--no-cache")
        assert proc.returncode != 0
