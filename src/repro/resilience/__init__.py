"""Elastic recovery: faults become survivable, costed events.

:mod:`repro.faults` kills ranks, flaps links and slows compute; this
package absorbs those faults, modeled on elastic Horovod's recovery flow:

* :class:`CheckpointPolicy` / :class:`CheckpointManager` — periodic
  atomic snapshots of model **and** optimizer/LR-schedule state, with
  content checksums, retention rotation, and simulated I/O cost charged
  to the training critical path (:mod:`repro.resilience.checkpoint`);
* :class:`HeartbeatConfig` / :class:`HeartbeatSupervisor` — watchdog
  detection of dead and chronically-straggling ranks with deterministic
  timeout + exponential-backoff probe latency
  (:mod:`repro.resilience.supervisor`);
* :class:`RecoveryPolicy` — restart-from-checkpoint on a shrunk world,
  blacklist after repeated straggler offenses, elastic regrow when an
  outage window ends (:mod:`repro.resilience.policy`);
* :class:`RecoveryAccounting` — time-to-solution decomposition:
  productive time, checkpoint overhead, detection latency, lost work,
  recovery cost (:mod:`repro.resilience.accounting`);
* :class:`RecoveryLadder` — the one escalation order (declare, shrink,
  restart, blacklist, regrow, step, checkpoint) over the pieces above,
  with the clock and the ledger (:mod:`repro.resilience.ladder`).

:class:`~repro.trainer.DistributedTrainer` (functional runs) and
:class:`~repro.core.ScalingStudy` (paper-scale performance runs) each walk
the ladder with their own job; exposed via ``python -m repro resilience``.
"""

from repro.resilience.accounting import RecoveryAccounting
from repro.resilience.checkpoint import (
    CheckpointManager,
    CheckpointPolicy,
    file_checksum,
)
from repro.resilience.ladder import RecoveryLadder
from repro.resilience.policy import (
    RESTART_FROM_CHECKPOINT,
    SHRINK_CONTINUE,
    RecoveryPolicy,
)
from repro.resilience.supervisor import (
    Detection,
    DomainDetection,
    HeartbeatConfig,
    HeartbeatSupervisor,
)

__all__ = [
    "CheckpointPolicy",
    "CheckpointManager",
    "file_checksum",
    "HeartbeatConfig",
    "HeartbeatSupervisor",
    "Detection",
    "DomainDetection",
    "RecoveryPolicy",
    "RecoveryAccounting",
    "RecoveryLadder",
    "SHRINK_CONTINUE",
    "RESTART_FROM_CHECKPOINT",
]
