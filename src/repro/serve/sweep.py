"""Policy sweeps: independent serving runs as jobs of the sweep runner.

A sweep is a bag of independent :class:`ServeJob`\\ s (scenario x
duration x seed x fault plan), run by
:func:`repro.perf.parallel.run_jobs`: inline or over a process pool,
merged in submission order, with the content-addressed result cache
consulted and populated in the parent process only.

The digest preimage is keyed ``"serve-point"`` (vs the training sweeps'
``"scaling-point"``) and covers every serving knob — workload, batching,
routing policy, admission, autoscaler, SLO, model, duration, seed,
fault plan, recovery policy, and the cache version salt — so a
cached serving result can never alias a training result or a run with any
knob changed.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.perf.digest import canonical_digest
from repro.serve.simulator import ServeReport, ServeScenario, simulate_serve


@dataclass(frozen=True)
class ServeJob:
    """One serving run (all-frozen fields, cheap to pickle)."""

    scenario: ServeScenario
    duration_s: float = 60.0
    seed: int = 0
    fault_plan: object | None = None
    recovery: object | None = None

    def digest(self) -> str:
        """Content address of the report this job would produce."""
        return canonical_digest(
            {
                "kind": "serve-point",
                "scenario": self.scenario,
                "duration_s": self.duration_s,
                "seed": self.seed,
                "fault_plan": self.fault_plan,
                "recovery": self.recovery,
            }
        )

    def run(self) -> ServeReport:
        report = simulate_serve(
            self.scenario,
            duration_s=self.duration_s,
            seed=self.seed,
            fault_plan=self.fault_plan,
            recovery=self.recovery,
        )
        # strip live objects: sweep results are summaries, identical whether
        # they came from a worker pickle, an inline run, or the cache
        report.ledger = None
        report.trace = None
        return report

    @staticmethod
    def to_payload(report: ServeReport) -> dict:
        return report.to_payload()

    @staticmethod
    def from_payload(payload: dict) -> ServeReport:
        return ServeReport.from_payload(payload)
