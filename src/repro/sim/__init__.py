"""Discrete-event simulation core.

A small, deterministic, generator-based event engine in the style of SimPy.
Processes are Python generators that ``yield`` events (timeouts, other
processes, resource requests, store gets); the :class:`Environment` drives
them from a binary-heap event queue.

The engine is the substrate under every timed component in this package:
link transfers, MPI protocol state machines, Horovod cycles, and GPU kernel
executions all run as processes on one shared clock.
"""

from repro.sim.engine import (
    AllOf,
    AnyOf,
    Environment,
    Event,
    Interrupt,
    Process,
    Timeout,
)
from repro.sim.fastpath import (
    EngineMode,
    FastPathSession,
    coerce_engine_mode,
    enable_fastpath,
    fastpath_stats,
)
from repro.sim.resources import Resource, ResourceRequest
from repro.sim.queues import Store

__all__ = [
    "Environment",
    "Event",
    "Timeout",
    "Process",
    "AllOf",
    "AnyOf",
    "Interrupt",
    "Resource",
    "ResourceRequest",
    "Store",
    "EngineMode",
    "FastPathSession",
    "coerce_engine_mode",
    "enable_fastpath",
    "fastpath_stats",
]
