"""hvprof: the Horovod/MPI communication profiler the paper relies on.

Reimplements the tool from the paper's reference [9]: it attaches to the
communication backend (framework- and backend-agnostic — any communicator
exposing the observer hook), buckets every collective by message size, and
reports per-bucket counts and total times.  The outputs regenerate the
paper's Fig. 14 and Table I.  Injected faults are read from the run's one
fault log, :attr:`repro.faults.FaultInjector.trace` (:func:`fault_report`,
:func:`fault_trace_events`), and :mod:`repro.profiling.trace_export` is the
one Chrome-trace writer.
"""

from repro.profiling.bins import PAPER_BINS, SizeBin, bin_for
from repro.profiling.hvprof import Hvprof
from repro.profiling.report import (
    comparison_table,
    fault_report,
    improvement_summary,
)
from repro.profiling.trace_export import (
    TraceEvent,
    chrome_trace,
    fault_trace_events,
    horovod_trace_events,
    hvprof_trace_events,
    write_chrome_trace,
)

__all__ = [
    "SizeBin",
    "PAPER_BINS",
    "bin_for",
    "Hvprof",
    "comparison_table",
    "improvement_summary",
    "fault_report",
    "TraceEvent",
    "chrome_trace",
    "write_chrome_trace",
    "hvprof_trace_events",
    "fault_trace_events",
    "horovod_trace_events",
]
