"""The chaos campaign runner: scenario x policy x seed, invariant-checked.

A campaign is the cross product of named chaos scenarios
(:mod:`repro.chaos.scenarios`), recovery policies, and seeds.  Every
cell runs **twice**: once on the walk oracle
(:func:`repro.sim.fastpath.walk_oracle`, the row's ``exact`` side) and
once on the default engine (its ``fast`` side).  Training cells run as
:class:`~repro.perf.parallel.PointJob` jobs and serving cells as
:class:`~repro.serve.sweep.ServeJob` jobs, all through one call of the
sweep runner (:func:`repro.perf.parallel.run_jobs`); cells are
independent, so a campaign parallelizes exactly like a scaling sweep and
re-runs hit the content-addressed result cache.

Each cell is then judged against the machine-checked invariants of
:mod:`repro.chaos.invariants`, and the whole campaign collapses to one
canonical digest over every cell's full payload and verdicts.  The
digest is the campaign's reproducibility contract: ``--jobs 1``,
``--jobs 8``, and a warm-cache re-run must produce the identical digest,
and any change to fault, recovery, or timing semantics moves it.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.chaos.invariants import InvariantResult, check_serve_cell, check_train_cell
from repro.chaos.scenarios import (
    SCENARIOS,
    build_plan,
    scenario_by_name,
)
from repro.errors import ConfigError
from repro.faults.domains import Topology

#: policy vocabulary of a campaign: the two canonical recovery responses
POLICY_NAMES = ("restart", "shrink")


def _policy_for(name: str):
    from repro.resilience.policy import RESTART_FROM_CHECKPOINT, SHRINK_CONTINUE

    try:
        return {
            "restart": RESTART_FROM_CHECKPOINT,
            "shrink": SHRINK_CONTINUE,
        }[name]
    except KeyError:
        raise ConfigError(
            f"unknown recovery policy {name!r}; "
            f"choose from {', '.join(POLICY_NAMES)}"
        ) from None


@dataclass(frozen=True)
class CampaignConfig:
    """One campaign's cross product and per-cell workload."""

    scenarios: tuple[str, ...] = tuple(sorted(SCENARIOS))
    policies: tuple[str, ...] = POLICY_NAMES
    seeds: int = 3
    num_gpus: int = 16
    #: registered training scenario the study cells run under
    train_scenario: str = "MPI-Opt"
    measure_steps: int = 40
    serve_duration_s: float = 60.0

    def __post_init__(self) -> None:
        object.__setattr__(self, "scenarios", tuple(self.scenarios))
        object.__setattr__(self, "policies", tuple(self.policies))
        for s in self.scenarios:
            scenario_by_name(s)  # raises ConfigError on unknown names
        for p in self.policies:
            _policy_for(p)
        if self.seeds < 1:
            raise ConfigError(f"seeds must be >= 1, got {self.seeds}")
        if self.num_gpus < 2:
            raise ConfigError(
                f"a chaos campaign needs a multi-rank world, got "
                f"{self.num_gpus} GPU(s)"
            )

    def cells(self) -> list[tuple[str, str, int]]:
        """Deterministic cell order: scenario-major, then policy, then seed."""
        return [
            (s, p, seed)
            for s in self.scenarios
            for p in self.policies
            for seed in range(self.seeds)
        ]


@dataclass(frozen=True)
class _WalkJob:
    """A sweep job run on the walk oracle, in whichever process runs it.

    Its cache key folds the wrapped job's digest with a ``walk-oracle``
    tag, so the walk pass is never served the default pass's entry.
    """

    job: object

    def digest(self) -> str:
        from repro.perf.digest import canonical_digest

        return canonical_digest(
            {"kind": "walk-oracle", "job": self.job.digest()}
        )

    def run(self):
        from repro.sim.fastpath import walk_oracle

        with walk_oracle():
            return self.job.run()

    def to_payload(self, result):
        return self.job.to_payload(result)

    def from_payload(self, payload):
        return self.job.from_payload(payload)


@dataclass
class CampaignReport:
    """Every cell's payloads and verdicts plus the campaign digest."""

    config: dict
    rows: list[dict] = field(default_factory=list)
    digest: str = ""

    @property
    def ok(self) -> bool:
        return all(
            inv["ok"] for row in self.rows for inv in row["invariants"]
        )

    def failures(self) -> list[dict]:
        """Red cells: (scenario, policy, seed, invariant, detail)."""
        out = []
        for row in self.rows:
            for inv in row["invariants"]:
                if not inv["ok"]:
                    out.append(
                        {
                            "scenario": row["scenario"],
                            "policy": row["policy"],
                            "seed": row["seed"],
                            "invariant": inv["name"],
                            "detail": inv["detail"],
                        }
                    )
        return out

    def to_payload(self) -> dict:
        return {
            "kind": "chaos-campaign",
            "config": self.config,
            "rows": self.rows,
            "digest": self.digest,
            "ok": self.ok,
        }

    def lines(self) -> list[str]:
        """Human-readable cell table for the CLI."""
        out = []
        for row in self.rows:
            verdict = (
                "ok"
                if all(inv["ok"] for inv in row["invariants"])
                else "FAIL " + ", ".join(
                    inv["name"] for inv in row["invariants"] if not inv["ok"]
                )
            )
            if row["kind"] == "train":
                r = row["exact"]["resilience"]
                stats = (
                    f"goodput {r['goodput']:.3f}  "
                    f"world {r['final_world_size']:3d}  "
                    f"restarts {r['restarts']}"
                )
            else:
                s = row["exact"]["summary"]
                stats = (
                    f"goodput {s['goodput_rps']:7.2f} req/s  "
                    f"shed {s['shed']:4d}  detections {s['detections']}"
                )
            out.append(
                f"{row['scenario']:>16s}  {row['policy']:>7s}  "
                f"seed {row['seed']}  {stats}  [{verdict}]"
            )
        return out


def _both_passes(jobs) -> list:
    """Each job on the walk oracle, then on the default engine."""
    return [run for job in jobs for run in (_WalkJob(job), job)]


def _train_jobs(config: CampaignConfig, cells, topology) -> list:
    """Both passes' point jobs of every training cell, in order."""
    from repro.core.scenarios import scenario_by_name as study_scenario
    from repro.core.study import StudyConfig
    from repro.perf.parallel import PointJob

    # zero jitter: steady-state extrapolation keeps cells cheap, and the
    # fast/exact identity check compares exactly reproducible payloads
    base = StudyConfig(measure_steps=config.measure_steps, jitter_sigma=0.0)
    scenario = study_scenario(config.train_scenario)
    return _both_passes(
        PointJob(
            scenario,
            config.num_gpus,
            base,
            fault_plan=build_plan(scenario_name, seed, topology),
            recovery=_policy_for(policy_name),
        )
        for scenario_name, policy_name, seed in cells
    )


def _train_rows(cells, points, topology) -> list[dict]:
    """Judge each training cell from its exact and fast points."""
    from repro.core.study import point_payload

    rows = []
    for i, (scenario_name, policy_name, seed) in enumerate(cells):
        exact = point_payload(points[2 * i])
        fast = point_payload(points[2 * i + 1])
        scenario = scenario_by_name(scenario_name)
        expected = (
            scenario.expected_survivors(topology)
            if scenario.expected_survivors is not None
            else None
        )
        invariants = check_train_cell(exact, fast, expected)
        rows.append(
            _row(scenario_name, policy_name, seed, "train", exact, fast, invariants)
        )
    return rows


def _serve_scenario(chaos_name: str):
    """The ServeScenario one serving chaos cell runs (workload-aware)."""
    from repro.serve.batcher import BatchingConfig
    from repro.serve.simulator import ServeScenario
    from repro.serve.workload import VIDEO_MIX, WorkloadConfig

    if scenario_by_name(chaos_name).workload == "video":
        return ServeScenario(
            name=f"chaos-{chaos_name}",
            workload=WorkloadConfig(
                kind="video", rate_rps=2.0, classes=VIDEO_MIX
            ),
            batching=BatchingConfig(mix_scales=False),
            session_affinity=True,
        )
    return ServeScenario(name=f"chaos-{chaos_name}")


def _serve_jobs(config: CampaignConfig, cells) -> list:
    """Both passes' serving jobs of every serving cell, in order."""
    from repro.serve.sweep import ServeJob

    return _both_passes(
        ServeJob(
            _serve_scenario(scenario_name),
            duration_s=config.serve_duration_s,
            seed=seed,
            fault_plan=build_plan(scenario_name, seed, None),
            recovery=_policy_for(policy_name),
        )
        for scenario_name, policy_name, seed in cells
    )


def _serve_rows(cells, reports) -> list[dict]:
    """Judge each serving cell from its exact and fast reports."""
    rows = []
    for i, (scenario_name, policy_name, seed) in enumerate(cells):
        exact = reports[2 * i].to_payload()
        fast = reports[2 * i + 1].to_payload()
        invariants = check_serve_cell(exact, fast)
        rows.append(
            _row(scenario_name, policy_name, seed, "serve", exact, fast, invariants)
        )
    return rows


def _row(
    scenario: str,
    policy: str,
    seed: int,
    kind: str,
    exact: dict,
    fast: dict,
    invariants: list[InvariantResult],
) -> dict:
    return {
        "scenario": scenario,
        "policy": policy,
        "seed": seed,
        "kind": kind,
        "exact": exact,
        "fast": fast,
        "invariants": [inv.to_payload() for inv in invariants],
    }


def run_campaign(
    config: CampaignConfig, *, jobs: int = 1, cache=None
) -> CampaignReport:
    """Run every cell, judge every invariant, stamp the campaign digest.

    Results merge in :meth:`CampaignConfig.cells` order regardless of
    worker completion order or cache hits, so the digest is a pure
    function of the config.
    """
    from dataclasses import asdict

    from repro.hardware.specs import LASSEN
    from repro.perf.digest import canonical_digest
    from repro.perf.parallel import run_jobs

    train_cells = [
        c for c in config.cells() if SCENARIOS[c[0]].kind == "train"
    ]
    serve_cells = [
        c for c in config.cells() if SCENARIOS[c[0]].kind == "serve"
    ]
    topology = Topology.from_spec(
        LASSEN, config.num_gpus // LASSEN.node.gpus_per_node
    )
    results = run_jobs(
        _train_jobs(config, train_cells, topology)
        + _serve_jobs(config, serve_cells),
        workers=jobs,
        cache=cache,
    )
    split = 2 * len(train_cells)
    rows = _train_rows(train_cells, results[:split], topology)
    rows += _serve_rows(serve_cells, results[split:])
    order = {cell: i for i, cell in enumerate(config.cells())}
    rows.sort(key=lambda r: order[(r["scenario"], r["policy"], r["seed"])])
    report = CampaignReport(config=asdict(config), rows=rows)
    report.digest = canonical_digest(
        {"kind": "chaos-campaign", "config": config, "rows": rows}
    )
    return report
