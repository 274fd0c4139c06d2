"""Chaos campaigns: correlated faults, machine-checked invariants.

PR 1-5 gave every layer deterministic fault hooks; PR 8 composes them
into *campaigns*: the cross product of named fault scenarios (whole-node
death, leaf-switch outage, network partition, wire/checkpoint
corruption, serving failover), recovery policies, and seeds, where every
cell runs on the default engine and on the walk oracle and is judged
against machine-checked invariants — ledger conservation, CRC-paired
corruption, checksummed checkpoint recovery, topological blast radii, and
fast/exact bit-identity.

* :mod:`repro.chaos.scenarios` — the named, seeded fault families;
* :mod:`repro.chaos.invariants` — the per-cell predicates;
* :mod:`repro.chaos.campaign` — the cached, parallel campaign runner
  and its canonical digest.

Exposed via ``python -m repro chaos``; see ``docs/faults.md``.
"""

from repro.chaos.campaign import (
    POLICY_NAMES,
    CampaignConfig,
    CampaignReport,
    run_campaign,
)
from repro.chaos.invariants import InvariantResult
from repro.chaos.scenarios import (
    SCENARIOS,
    SERVE_SCENARIOS,
    TRAIN_SCENARIOS,
    ChaosScenario,
    build_plan,
)

__all__ = [
    "CampaignConfig",
    "CampaignReport",
    "ChaosScenario",
    "InvariantResult",
    "POLICY_NAMES",
    "SCENARIOS",
    "SERVE_SCENARIOS",
    "TRAIN_SCENARIOS",
    "build_plan",
    "run_campaign",
]
