"""Horovod-like data-parallel middleware (paper §II-D).

Sits between the DL framework and a communication backend (MPI or NCCL),
exactly as in the paper's Fig. 3 stack.  Implements:

* **Tensor Fusion** — the 6-step buffer-packing algorithm of §II-D with
  ``HOROVOD_FUSION_THRESHOLD`` / ``HOROVOD_CYCLE_TIME`` semantics
  (:mod:`repro.horovod.fusion`);
* the coordinator's per-cycle negotiation cost model
  (:mod:`repro.horovod.coordinator`);
* :class:`~repro.horovod.optimizer.DistributedOptimizer` and
  ``broadcast_parameters`` — the two integration points §III-A adds to
  EDSR's training loop;
* a timeline recorder for post-hoc analysis
  (:mod:`repro.horovod.timeline`).
"""

from repro.horovod.env import HorovodConfig
from repro.horovod.fusion import FusionMessage, PendingTensor, TensorFusion
from repro.horovod.coordinator import CoordinatorModel
from repro.horovod.engine import HorovodEngine, StepTiming
from repro.horovod.optimizer import DistributedOptimizer, broadcast_parameters
from repro.horovod.timeline import Timeline, TimelineEvent

__all__ = [
    "HorovodConfig",
    "PendingTensor",
    "FusionMessage",
    "TensorFusion",
    "CoordinatorModel",
    "HorovodEngine",
    "StepTiming",
    "DistributedOptimizer",
    "broadcast_parameters",
    "Timeline",
    "TimelineEvent",
]
