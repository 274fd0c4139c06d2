"""Simulated CUDA runtime.

Models exactly the runtime semantics the paper's optimization exploits:

* ``CUDA_VISIBLE_DEVICES``-style visibility masks that remap logical device
  ordinals per process (:mod:`repro.cuda.env`);
* per-device contexts whose creation consumes real HBM — the "overhead
  kernels" of the paper's Fig. 6a (:mod:`repro.cuda.runtime`);
* the CUDA version behind the IPC visibility rule: before CUDA 10.1 an
  IPC mapping required both devices in the process's visible set, from
  10.1 onwards it does not (:class:`CudaVersion`; MPI's transport applies
  the rule);
* ``cudaMemcpy`` costed on the simulated NVLink/X-Bus topology and kernel
  launches costed by a roofline model (:mod:`repro.cuda.kernels`).
"""

from repro.cuda.env import VisibilityMask
from repro.cuda.runtime import CudaContext, CudaRuntime, CudaVersion
from repro.cuda.memory import DeviceAllocation
from repro.cuda.kernels import KernelCostModel, KernelLaunch

__all__ = [
    "VisibilityMask",
    "CudaRuntime",
    "CudaContext",
    "CudaVersion",
    "DeviceAllocation",
    "KernelCostModel",
    "KernelLaunch",
]
