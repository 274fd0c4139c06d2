"""Chrome ``trace_event`` JSON export: the one Chrome-trace writer.

Writes the `Trace Event Format
<https://docs.google.com/document/d/1CvAClvFfyA5R-PhYUmn5OOQtYMH4h6I0nSsKchNAySU>`_
consumed by ``chrome://tracing`` and `Perfetto <https://ui.perfetto.dev>`_:
a JSON object with a ``traceEvents`` array of complete (``ph: "X"``) and
instant (``ph: "i"``) events, timestamps in microseconds.

Every producer renders its own record as :class:`TraceEvent`\\ s, and
:func:`chrome_trace` / :func:`write_chrome_trace` serialize any mix:

* the serving simulator (``repro serve --trace PATH``) emits real
  timeline spans — batches per replica lane, cold starts, failovers,
  autoscaler decisions — with true simulation timestamps;
* :func:`hvprof_trace_events` lays out an :class:`~repro.profiling.Hvprof`'s
  records (unified :class:`~repro.comm.records.CommRecord`\\ s from any
  backend's communicator).  They carry durations but no start times (the
  profiler aggregates, it does not trace), so ops are laid end-to-end per
  backend lane in record order.  Lane offsets are synthetic; durations
  and ordering are real;
* :func:`fault_trace_events` turns a run's fault trace
  (:attr:`~repro.faults.FaultInjector.trace`) into instants at their true
  timestamps, on a ``faults`` lane beside hvprof's;
* :func:`horovod_trace_events` draws one Horovod step's submitted messages
  (:attr:`~repro.horovod.StepTiming.messages`) at their true start times,
  what ``HOROVOD_TIMELINE`` records for a step.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.faults.trace import FaultTrace
    from repro.horovod.engine import StepTiming

#: the process hvprof's collectives and the fault instants share
HVPROF_PID = "hvprof"


@dataclass(frozen=True)
class TraceEvent:
    """One Chrome trace event (complete span or instant)."""

    name: str
    ts_us: float
    pid: str = "repro"
    tid: str = "main"
    ph: str = "X"
    dur_us: float = 0.0
    cat: str = ""
    args: dict | None = field(default=None, compare=False)

    def to_chrome(self) -> dict:
        event = {
            "name": self.name,
            "ph": self.ph,
            "ts": self.ts_us,
            "pid": self.pid,
            "tid": self.tid,
        }
        if self.cat:
            event["cat"] = self.cat
        if self.ph == "X":
            event["dur"] = self.dur_us
        if self.ph == "i":
            event["s"] = "t"  # thread-scoped instant
        if self.args:
            event["args"] = self.args
        return event


def chrome_trace(events: list[TraceEvent]) -> dict:
    """The full ``chrome://tracing`` JSON object (stable event order)."""
    ordered = sorted(
        events, key=lambda e: (e.ts_us, e.pid, e.tid, e.name)
    )
    return {
        "displayTimeUnit": "ms",
        "traceEvents": [e.to_chrome() for e in ordered],
    }


def write_chrome_trace(path: str, events: list[TraceEvent]) -> int:
    """Write the trace JSON; returns the number of events written."""
    payload = chrome_trace(events)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, sort_keys=True)
        fh.write("\n")
    return len(payload["traceEvents"])


def hvprof_trace_events(hvprof) -> list[TraceEvent]:
    """Synthesized per-backend timeline of an :class:`Hvprof`'s records.

    Each backend gets its own lane; ops are concatenated in record order
    (hvprof does not retain start times).
    """
    events: list[TraceEvent] = []
    offsets: dict[str, float] = {}
    for record in hvprof.records:
        lane = record.backend or "ops"
        start = offsets.get(lane, 0.0)
        events.append(
            TraceEvent(
                name=f"{record.op} [{record.algorithm}]",
                ph="X",
                ts_us=start * 1e6,
                dur_us=record.time * 1e6,
                pid=HVPROF_PID,
                tid=lane,
                cat="collective",
                args={"nbytes": record.nbytes},
            )
        )
        offsets[lane] = start + record.time
    return events


def fault_trace_events(trace: FaultTrace) -> list[TraceEvent]:
    """A fault trace's events as Chrome instants on hvprof's ``faults`` lane.

    Each instant sits at its event's simulated time; add them to
    :func:`hvprof_trace_events` to see faults beside the collectives they
    perturb.
    """
    return [
        TraceEvent(
            name=event.kind,
            ph="i",
            ts_us=event.time * 1e6,
            pid=HVPROF_PID,
            tid="faults",
            cat="fault",
            args={"detail": event.detail} if event.detail else None,
        )
        for event in trace
    ]


def horovod_trace_events(timing: StepTiming) -> list[TraceEvent]:
    """One complete Chrome event per message a Horovod step submitted.

    Events sit at their message's simulated start (seconds after backward
    begins), in submission order (:attr:`StepTiming.messages`).
    """
    return [
        TraceEvent(
            name=record.algorithm,
            ts_us=record.start * 1e6,
            dur_us=record.duration * 1e6,
            pid="horovod",
            tid="messages",
            cat="horovod",
            args={"nbytes": record.nbytes, "fused_count": record.fused_count},
        )
        for record in timing.messages
    ]
