"""Exception hierarchy for the ``repro`` package.

Every subsystem raises subclasses of :class:`ReproError` so callers can
catch simulation-level failures without masking programming errors.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the ``repro`` package."""


class ConfigError(ReproError):
    """Invalid user-supplied configuration (bad parameter values, etc.)."""


class SimulationError(ReproError):
    """The discrete-event simulation reached an inconsistent state."""


class DeadlockError(SimulationError):
    """The event queue drained while processes were still waiting."""


class HardwareError(ReproError):
    """Hardware-model violation (unknown device, bad topology, ...)."""


class CudaError(HardwareError):
    """Simulated CUDA runtime error (mirrors ``cudaError_t`` failures)."""


class CudaOutOfMemoryError(CudaError):
    """Device memory allocation failed (``cudaErrorMemoryAllocation``)."""


class CudaInvalidDeviceError(CudaError):
    """Device ordinal is invalid or not visible to the calling context."""


class FaultError(ReproError):
    """Base class for errors surfaced by the fault-injection subsystem."""


class FaultPlanError(FaultError):
    """A :class:`~repro.faults.FaultPlan` is malformed or inconsistent."""


class RankFailedError(FaultError):
    """A rank failed and the resilience policy does not allow recovery."""


class CheckpointError(FaultError):
    """No usable checkpoint: missing, corrupt, or torn beyond retention."""


class MpiError(ReproError):
    """Simulated MPI error (mirrors ``MPI_ERR_*``)."""


class MpiTimeoutError(MpiError):
    """A communication operation exhausted its retry/timeout budget."""


class MpiTruncateError(MpiError):
    """Receive buffer is smaller than the incoming message."""


class MpiRankError(MpiError):
    """Rank out of range for the communicator."""


class NcclError(ReproError):
    """Simulated NCCL error."""


class CommError(ReproError):
    """Backend-agnostic communication layer error (``repro.comm``)."""


class HorovodError(ReproError):
    """Horovod middleware error (mismatched submissions, bad state, ...)."""


class TensorError(ReproError):
    """DL-framework tensor/autograd error."""


class ShapeError(TensorError):
    """Operands have incompatible shapes."""


class GradError(TensorError):
    """Autograd misuse (backward on non-scalar, double backward, ...)."""


class DataError(ReproError):
    """Data-pipeline error (bad patch size, empty dataset, ...)."""
