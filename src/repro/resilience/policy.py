"""Recovery policies: what the job does once a fault is detected.

A :class:`RecoveryPolicy` is a frozen, digest-able description of the
job's elastic behaviour — it participates in
:func:`repro.perf.digest.canonical_digest`, so cached sweep results can
never be reused across different recovery configurations.

Three escalation levers, composable:

* **restart** — reload the last valid checkpoint on the shrunk world and
  replay the lost steps (elastic-Horovod-style restart).  Off, the job
  shrinks and continues from live state (losing the dead rank's replica
  but no optimizer history — the survivors are in sync).
* **blacklist_after** — evict a rank after this many straggler offenses
  (its compute factor exceeded the supervisor's threshold), before it
  drags every synchronous step.  ``0`` disables blacklisting.
* **regrow** — when a failed rank's outage window ends
  (:class:`~repro.faults.RankFailure` with ``down_s``), re-admit it:
  clone the survivors' model/optimizer state onto a fresh replica and
  re-form the ring at the old world size.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.errors import ConfigError
from repro.resilience.checkpoint import CheckpointPolicy
from repro.resilience.supervisor import HeartbeatConfig


@dataclass(frozen=True)
class RecoveryPolicy:
    """How the job responds to detected failures and chronic stragglers."""

    restart: bool = True
    blacklist_after: int = 0
    regrow: bool = False
    #: fixed re-initialization cost per restart / regrow event (process
    #: respawn, NCCL/MPI ring rebuild, parameter re-broadcast)
    restart_overhead_s: float = 2.0
    checkpoint: CheckpointPolicy = field(default_factory=CheckpointPolicy)
    heartbeat: HeartbeatConfig = field(default_factory=HeartbeatConfig)

    def __post_init__(self) -> None:
        if self.blacklist_after < 0:
            raise ConfigError(
                f"blacklist_after must be >= 0, got {self.blacklist_after}"
            )
        if self.restart_overhead_s < 0:
            raise ConfigError(
                f"restart_overhead_s must be >= 0, got {self.restart_overhead_s}"
            )


#: shrink-and-continue without checkpoint replay; what a trainer given a
#: fault injector and no policy runs
SHRINK_CONTINUE = RecoveryPolicy(restart=False)

#: the default elastic policy: checkpoint/restart on a shrunk world
RESTART_FROM_CHECKPOINT = RecoveryPolicy(restart=True)
