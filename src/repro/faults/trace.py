"""Ordered, canonically-serializable record of injected faults and
recoveries.

Because the simulation engine is deterministic, the sequence of injector
consultations — and therefore this trace — is a pure function of (plan,
workload).  ``digest()`` hashes the canonical JSON form, giving the
byte-identity invariant the determinism tests assert.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import asdict, dataclass, field


@dataclass(frozen=True)
class FaultEvent:
    """One injected fault or recovery action."""

    time: float
    kind: str  # e.g. "msg-drop", "msg-retry", "rank-dead", "link-degraded"
    rank: int | None = None
    src: int | None = None
    dst: int | None = None
    detail: str = ""


@dataclass
class FaultTrace:
    events: list[FaultEvent] = field(default_factory=list)

    def record(
        self,
        kind: str,
        time: float,
        *,
        rank: int | None = None,
        src: int | None = None,
        dst: int | None = None,
        detail: str = "",
    ) -> FaultEvent:
        event = FaultEvent(time, kind, rank, src, dst, detail)
        self.events.append(event)
        return event

    def by_kind(self, kind: str) -> list[FaultEvent]:
        return [e for e in self.events if e.kind == kind]

    def count(self, kind: str) -> int:
        return len(self.by_kind(kind))

    def to_json(self) -> str:
        """Canonical serialization: stable key order, repr-exact floats."""
        return json.dumps([asdict(e) for e in self.events], sort_keys=True)

    def digest(self) -> str:
        """SHA-256 of the canonical JSON form."""
        return hashlib.sha256(self.to_json().encode()).hexdigest()

    def clear(self) -> None:
        self.events.clear()

    def __len__(self) -> int:
        return len(self.events)

    def __iter__(self):
        return iter(self.events)
