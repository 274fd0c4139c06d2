"""Machine-checked invariants for chaos campaign cells.

Each invariant is a pure predicate over run *payloads* (the same
JSON-encodable dicts that travel through the result cache), so a cached
cell is checked exactly like a freshly simulated one.  A red invariant
carries enough detail to reproduce: the campaign report pins the cell's
(scenario, policy, seed) coordinates next to it.

Training cells check:

* **ledger-conservation** — the recovery accounting buckets
  (productive + checkpoint + detection + lost work + recovery) sum to the
  independently accumulated simulation clock; nothing is double-charged
  or silently dropped.
* **fast-exact-identity** — the default engine (the row's ``fast``
  side) produced a point bit-identical to the walk oracle's (its
  ``exact`` side) under this fault plan.
* **corruption-detected** — every wire corruption event was caught by a
  CRC check (no flipped payload reached the optimizer state).
* **checkpoint-recovery** — restarts never restored a corrupt snapshot:
  skips are bounded by detected corruptions.
* **blast-radius** — the final world size equals the scenario's declared
  topological footprint (node/switch/partition lowering is exact).

Serving cells check **request-conservation** (completed + shed ==
arrived), **failure-detected**, and **fast-exact-identity**; video cells
additionally check **session-conservation** (every session's frames
completed or shed — no frame lost across a mid-stream failover).
"""

from __future__ import annotations

from dataclasses import dataclass


#: relative tolerance for the ledger sum: both sides accumulate the same
#: float charges in a different association order
LEDGER_REL_TOL = 1e-9


@dataclass(frozen=True)
class InvariantResult:
    """Outcome of one invariant on one campaign cell."""

    name: str
    ok: bool
    detail: str = ""

    def to_payload(self) -> dict:
        return {"name": self.name, "ok": self.ok, "detail": self.detail}


def _first_diff(a: dict, b: dict, prefix: str = "") -> str:
    """Path of the first differing key between two payload dicts."""
    for key in sorted(set(a) | set(b)):
        path = f"{prefix}{key}"
        if key not in a or key not in b:
            return f"{path} present on one side only"
        va, vb = a[key], b[key]
        if isinstance(va, dict) and isinstance(vb, dict):
            diff = _first_diff(va, vb, prefix=f"{path}.")
            if diff:
                return diff
        elif va != vb:
            return f"{path}: {va!r} != {vb!r}"
    return ""


def ledger_conservation(resilience: dict) -> InvariantResult:
    """productive + overheads == wall clock (no lost or invented time)."""
    buckets = (
        resilience["productive_s"]
        + resilience["checkpoint_s"]
        + resilience["detection_s"]
        + resilience["lost_work_s"]
        + resilience["recovery_s"]
    )
    wall = resilience["wall_clock_s"]
    err = abs(buckets - wall) / max(abs(wall), 1e-12)
    return InvariantResult(
        "ledger-conservation",
        err <= LEDGER_REL_TOL,
        f"buckets {buckets:.9f}s vs wall clock {wall:.9f}s "
        f"(rel err {err:.3e})",
    )


def corruption_detected(trace_kinds: dict) -> InvariantResult:
    """Every wire corruption paired with a CRC detection."""
    corrupt = trace_kinds.get("wire-corrupt", 0)
    caught = trace_kinds.get("crc-detected", 0)
    return InvariantResult(
        "corruption-detected",
        corrupt == caught,
        f"{corrupt} wire-corrupt event(s), {caught} crc-detected",
    )


def checkpoint_recovery(trace_kinds: dict) -> InvariantResult:
    """Restart never restored corrupt state: each skip maps to a detected
    corruption, and the run completing at all means a valid snapshot was
    always found."""
    corrupt = trace_kinds.get("ckpt-corrupt", 0)
    skipped = trace_kinds.get("ckpt-corrupt-skipped", 0)
    return InvariantResult(
        "checkpoint-recovery",
        skipped <= corrupt,
        f"{skipped} corrupt snapshot(s) skipped of {corrupt} written",
    )


def blast_radius(resilience: dict, expected: int) -> InvariantResult:
    """Final world size matches the scenario's topological footprint."""
    final = resilience["final_world_size"]
    return InvariantResult(
        "blast-radius",
        final == expected,
        f"final world {final}, expected {expected} survivor(s)",
    )


def fast_exact_identity(fast: dict, exact: dict) -> InvariantResult:
    """Default-engine payload bit-identical to the walk oracle's."""
    if fast == exact:
        return InvariantResult("fast-exact-identity", True, "bit-identical")
    return InvariantResult(
        "fast-exact-identity", False, _first_diff(fast, exact) or "payloads differ"
    )


def request_conservation(summary: dict) -> InvariantResult:
    """Serving ledger: every arrived request completed or shed."""
    arrived = summary["arrived"]
    accounted = summary["completed"] + summary["shed"]
    return InvariantResult(
        "request-conservation",
        accounted == arrived,
        f"{summary['completed']} completed + {summary['shed']} shed "
        f"of {arrived} arrived",
    )


def session_conservation(summary: dict) -> InvariantResult:
    """Video ledger: every session's frames completed or shed.

    The per-session partition is enforced inside
    :meth:`repro.serve.slo.SLOLedger.finalize` (contiguous frame runs, a
    hard error on any gap); this invariant re-checks the aggregate frame
    conservation on the cached payload so a stale or hand-edited cell
    cannot pass silently.
    """
    v = summary["video"]
    accounted = v["frames_completed"] + v["frames_shed"]
    return InvariantResult(
        "session-conservation",
        accounted == v["frames_arrived"],
        f"{v['frames_completed']} completed + {v['frames_shed']} shed of "
        f"{v['frames_arrived']} frame(s) across {v['sessions']} session(s), "
        f"{v['rehomes']} re-home(s)",
    )


def failure_detected(summary: dict) -> InvariantResult:
    """The injected replica failure was actually declared."""
    n = summary["detections"]
    return InvariantResult(
        "failure-detected", n >= 1, f"{n} failure(s) detected"
    )


def check_train_cell(
    exact_payload: dict, fast_payload: dict, expected_survivors: int | None
) -> list[InvariantResult]:
    """All invariants for one training cell (payloads from both passes).

    Structural checks run on the *exact* (walk oracle) payload; the
    identity invariant then extends every one of them to the default
    engine.
    """
    resilience = exact_payload["resilience"]
    kinds = resilience["trace_kinds"]
    results = [
        ledger_conservation(resilience),
        corruption_detected(kinds),
        checkpoint_recovery(kinds),
    ]
    if expected_survivors is not None:
        results.append(blast_radius(resilience, expected_survivors))
    results.append(fast_exact_identity(fast_payload, exact_payload))
    return results


def check_serve_cell(
    exact_payload: dict, fast_payload: dict
) -> list[InvariantResult]:
    """All invariants for one serving cell."""
    summary = exact_payload["summary"]
    results = [
        request_conservation(summary),
        failure_detected(summary),
    ]
    if "video" in summary:
        results.append(session_conservation(summary))
    results.append(fast_exact_identity(fast_payload, exact_payload))
    return results
