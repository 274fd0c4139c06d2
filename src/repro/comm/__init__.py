"""Backend-agnostic communication layer.

One collective API over every backend (MPI, NCCL, and the hierarchical
two-level backend), MVAPICH2-style algorithm-selection tables, a
sim-driven autotuner, and unified per-op accounting.  The one
communicator class is :class:`repro.mpi.comm.Communicator`; a backend is
a world that prices collectives:

* :mod:`repro.comm.records` — :class:`CommRecord`, the one accounting
  record hvprof's observer makes of every collective (hvprof bins and the
  Chrome trace exporter both consume it);
* :mod:`repro.comm.cost` — shared α-β cost identities and the collective
  schedule memo (deduplicated out of the mpi/nccl/horovod layers);
* :mod:`repro.comm.selection` — (message size × world size) selection
  tables, which a study carries in ``StudyConfig.comm_table``;
* :mod:`repro.comm.api` — :func:`broadcast_weights`, the weight
  re-broadcast charge elastic re-grow uses;
* :mod:`repro.comm.hierarchical` — intra-node NVLink reduce-scatter +
  inter-node IB allreduce + intra-node broadcast backend;
* :mod:`repro.comm.registry` — the three world factories behind one
  ``build_communicator`` seam (world sizing is strict: no silent
  ``cluster.num_gpus`` fallback);
* :mod:`repro.comm.tuning` — the autotuner that sweeps candidate
  algorithms per (bytes, ranks) bucket and emits a cached, digest-keyed
  table.

With no selection table the communicator passes
``algorithm=None`` and each backend applies its own heuristic
(``tests/test_comm_equivalence``, ``tests/test_comm_golden``).

See ``docs/communication.md`` for the layer diagram and table format.
"""

# Only leaf modules are imported eagerly: repro.mpi.collectives imports
# repro.comm.cost back during its own init, so this package __init__ must
# not (transitively) import the mpi layer.  Backend-touching symbols
# resolve lazily via the module __getattr__ below.
from repro.comm.records import CommRecord
from repro.comm.cost import (
    ScheduleMemo,
    allreduce_lower_bound,
    alpha_beta_time,
    ring_step_count,
    weight_broadcast_time,
)
from repro.comm.selection import SelectionTable
from repro.comm.api import broadcast_weights

_LAZY = {
    "available_backends": "repro.comm.registry",
    "build_communicator": "repro.comm.registry",
    "resolve_world_size": "repro.comm.registry",
    "HierarchicalWorld": "repro.comm.hierarchical",
    "CANDIDATES": "repro.comm.tuning",
    "TuningConfig": "repro.comm.tuning",
    "default_table": "repro.comm.tuning",
    "tune_compression_table": "repro.comm.tuning",
    "tune_table": "repro.comm.tuning",
    "tuning_digest": "repro.comm.tuning",
}

__all__ = [
    "CommRecord",
    "ScheduleMemo",
    "allreduce_lower_bound",
    "alpha_beta_time",
    "ring_step_count",
    "weight_broadcast_time",
    "SelectionTable",
    "broadcast_weights",
    *sorted(_LAZY),
]


def __getattr__(name: str):
    module_name = _LAZY.get(name)
    if module_name is None:
        raise AttributeError(f"module 'repro.comm' has no attribute {name!r}")
    import importlib

    value = getattr(importlib.import_module(module_name), name)
    globals()[name] = value
    return value
