"""SLO accounting: the ledger every request must pass through.

Every request in the arrival trace ends the run in exactly one terminal
state — **completed** (served, with a recorded latency) or **shed**
(rejected at admission or unsalvageable after failover).  Retries after a
replica failure are recorded as events on the way to one of those states.
The invariant ``completed + shed == arrived`` is asserted at finalize
time, which is what makes "no request silently dropped" a checked
property rather than a hope.

The summary payload is plain JSON (sorted keys, no object graphs), so it
travels unchanged through the perf result cache and the parallel sweep
merge, and two payloads are comparable with ``==`` — the determinism
tests' definition of "identical SLO ledger".
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.errors import ConfigError, SimulationError
from repro.serve.workload import Request
from repro.utils.folds import fold_sum

#: reported tail quantiles (label -> fraction)
QUANTILES = (("p50", 0.50), ("p95", 0.95), ("p99", 0.99), ("p999", 0.999))


@dataclass(frozen=True)
class SLOConfig:
    """The latency objective goodput is measured against."""

    #: a request "meets SLO" when served within this much of its arrival
    target_latency_s: float = 0.25
    #: video playout delay: frame k of a session plays at
    #: ``first_frame_arrival + jitter_buffer_s + k / fps``; a frame not
    #: served by its playout instant is a rebuffer and stalls the stream
    jitter_buffer_s: float = 0.25

    def __post_init__(self) -> None:
        if self.target_latency_s <= 0:
            raise ConfigError(
                f"target_latency_s must be > 0, got {self.target_latency_s}"
            )
        if self.jitter_buffer_s <= 0:
            raise ConfigError(
                f"jitter_buffer_s must be > 0, got {self.jitter_buffer_s}"
            )


def nearest_rank(sorted_values: list[float], q: float) -> float:
    """Nearest-rank quantile (deterministic, no interpolation)."""
    if not sorted_values:
        return 0.0
    rank = max(1, math.ceil(q * len(sorted_values)))
    return sorted_values[rank - 1]


class SLOLedger:
    """Per-request outcome journal plus aggregate serving metrics."""

    def __init__(self, slo: SLOConfig | None = None):
        self.slo = slo or SLOConfig()
        #: rid -> (class name, arrival, outcome, completion, retries)
        self.records: dict[int, dict] = {}
        self.retry_events = 0
        self.rehomes = 0
        self.cold_starts = 0
        self.cold_start_s = 0.0
        self.detections = 0
        self._busy_s: dict[int, float] = {}
        self._alive_s: dict[int, float] = {}
        self._finalized: dict | None = None

    # -- request lifecycle ---------------------------------------------------
    def note_arrival(self, request: Request) -> None:
        if request.rid in self.records:
            raise SimulationError(f"request {request.rid} arrived twice")
        rec = {
            "class": request.cls.name,
            "arrival": request.arrival,
            "outcome": "pending",
            "completion": None,
            "retries": 0,
        }
        if request.session is not None:
            rec["session"] = request.session
            rec["frame"] = request.frame
            rec["deadline"] = request.cls.deadline_s
            rec["fps"] = request.cls.frame_rate_fps
        self.records[request.rid] = rec

    def note_retry(self, request: Request, now: float) -> None:
        self.records[request.rid]["retries"] += 1
        self.retry_events += 1

    def note_rehome(self, session: int) -> None:
        """A video session moved to a new home replica (failover/retire)."""
        self.rehomes += 1

    def note_completed(
        self, request: Request, now: float, *, replica: int | None = None
    ) -> None:
        rec = self.records[request.rid]
        if rec["outcome"] != "pending":
            raise SimulationError(
                f"request {request.rid} already {rec['outcome']}"
            )
        rec["outcome"] = "completed"
        rec["completion"] = now
        rec["replica"] = replica

    def note_shed(self, request: Request, now: float) -> None:
        rec = self.records[request.rid]
        if rec["outcome"] != "pending":
            raise SimulationError(
                f"request {request.rid} already {rec['outcome']}"
            )
        rec["outcome"] = "shed"
        rec["completion"] = now

    # -- infrastructure events ------------------------------------------------
    def note_cold_start(self, cost_s: float) -> None:
        self.cold_starts += 1
        self.cold_start_s += cost_s

    def note_detection(self) -> None:
        self.detections += 1

    def note_replica_usage(self, replica_id: int, busy_s: float, alive_s: float) -> None:
        self._busy_s[replica_id] = self._busy_s.get(replica_id, 0.0) + busy_s
        self._alive_s[replica_id] = self._alive_s.get(replica_id, 0.0) + alive_s

    # -- aggregation -----------------------------------------------------------
    def outcome_counts(self) -> dict[str, int]:
        counts = {"completed": 0, "shed": 0, "pending": 0}
        for rec in self.records.values():
            counts[rec["outcome"]] += 1
        return counts

    def latencies(self) -> list[float]:
        """Sorted completed-request latencies."""
        return sorted(
            rec["completion"] - rec["arrival"]
            for rec in self.records.values()
            if rec["outcome"] == "completed"
        )

    def finalize(self, makespan_s: float) -> dict:
        """Close the ledger and compute the summary payload.

        Raises when any request is still pending — the simulator must
        resolve every arrival before finalizing.
        """
        counts = self.outcome_counts()
        if counts["pending"]:
            raise SimulationError(
                f"{counts['pending']} request(s) left pending at finalize"
            )
        if makespan_s <= 0:
            makespan_s = 1.0
        lats = self.latencies()
        within = sum(1 for l in lats if l <= self.slo.target_latency_s)
        retried_requests = sum(
            1 for rec in self.records.values() if rec["retries"] > 0
        )
        busy = fold_sum(self._busy_s.values())
        alive = fold_sum(self._alive_s.values())
        payload = {
            "arrived": len(self.records),
            "completed": counts["completed"],
            "shed": counts["shed"],
            "retried_requests": retried_requests,
            "retry_events": self.retry_events,
            "throughput_rps": counts["completed"] / makespan_s,
            "goodput_rps": within / makespan_s,
            "slo_target_ms": self.slo.target_latency_s * 1e3,
            "slo_attainment": within / counts["completed"]
            if counts["completed"]
            else 1.0,
            "utilization": busy / alive if alive > 0 else 0.0,
            "cold_starts": self.cold_starts,
            "cold_start_s": self.cold_start_s,
            "detections": self.detections,
            "makespan_s": makespan_s,
            "latency_ms": {
                label: nearest_rank(lats, q) * 1e3 for label, q in QUANTILES
            },
            "mean_latency_ms": (fold_sum(lats) / len(lats)) * 1e3 if lats else 0.0,
            "by_class": self._by_class(),
        }
        video = self._video_summary()
        if video is not None:
            payload["video"] = video
        self._finalized = payload
        return payload

    def _video_summary(self) -> dict | None:
        """Jitter-buffer SLO over the session records, or None.

        The key is present only when the trace contained video sessions,
        so single-image summaries (and their pinned baselines) are
        byte-identical to the pre-video ledger.
        """
        sessions: dict[int, list[dict]] = {}
        for rec in self.records.values():
            if "session" in rec:
                sessions.setdefault(rec["session"], []).append(rec)
        if not sessions:
            return None
        frames_arrived = frames_completed = frames_shed = 0
        late = 0
        rebuffers = 0
        frame_lats: list[float] = []
        for sid in sorted(sessions):
            recs = sorted(sessions[sid], key=lambda r: r["frame"])
            if [r["frame"] for r in recs] != list(range(len(recs))):
                raise SimulationError(
                    f"session {sid} frames are not a contiguous 0..n-1 run"
                )
            completed = sum(1 for r in recs if r["outcome"] == "completed")
            frames_arrived += len(recs)
            frames_completed += completed
            frames_shed += len(recs) - completed
            # playout model: frame k is due jitter_buffer_s + k/fps after
            # the stream started; a late frame rebuffers and shifts the
            # rest of the playout schedule by its lateness.  Shed frames
            # are dropped from playout (no stall).
            start = recs[0]["arrival"]
            offset = self.slo.jitter_buffer_s
            for r in recs:
                if r["outcome"] != "completed":
                    continue
                lat = r["completion"] - r["arrival"]
                frame_lats.append(lat)
                deadline = (
                    r["deadline"]
                    if r["deadline"] is not None
                    else self.slo.target_latency_s
                )
                if lat > deadline:
                    late += 1
                scheduled = start + offset + r["frame"] / r["fps"]
                if r["completion"] > scheduled:
                    rebuffers += 1
                    offset += r["completion"] - scheduled
        frame_lats.sort()
        return {
            "sessions": len(sessions),
            "frames_arrived": frames_arrived,
            "frames_completed": frames_completed,
            "frames_shed": frames_shed,
            "late_frame_ratio": late / frames_completed
            if frames_completed
            else 0.0,
            "rebuffers": rebuffers,
            "rehomes": self.rehomes,
            "frame_latency_ms": {
                "p50": nearest_rank(frame_lats, 0.50) * 1e3,
                "p99": nearest_rank(frame_lats, 0.99) * 1e3,
            },
            "mean_frame_latency_ms": (
                (fold_sum(frame_lats) / len(frame_lats)) * 1e3 if frame_lats else 0.0
            ),
        }

    def _by_class(self) -> dict[str, dict]:
        per: dict[str, dict] = {}
        for rec in self.records.values():
            entry = per.setdefault(
                rec["class"], {"arrived": 0, "completed": 0, "shed": 0}
            )
            entry["arrived"] += 1
            entry[rec["outcome"]] += 1
        return {name: per[name] for name in sorted(per)}

    @property
    def summary(self) -> dict:
        if self._finalized is None:
            raise SimulationError("ledger not finalized yet")
        return self._finalized
