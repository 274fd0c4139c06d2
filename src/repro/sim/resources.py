"""Capacity-limited resources with FIFO queuing.

Links, PCIe lanes, DMA engines, and IB HCAs are modelled as resources: a
transfer process requests a slot, holds it for the transfer duration, then
releases it.  FIFO granting keeps the simulation deterministic and models
the serialization that creates congestion at scale.
"""

from __future__ import annotations

from collections import deque
from repro.errors import SimulationError
from repro.sim.engine import URGENT, Environment, Event


class ResourceRequest(Event):
    """Event that fires when the resource grants a slot to the requester."""

    __slots__ = ("resource",)

    def __init__(self, resource: "Resource"):
        super().__init__(resource.env, name=f"request:{resource.name}")
        self.resource = resource


class Resource:
    """A server pool with ``capacity`` slots and a FIFO wait queue.

    Statistics (`total_wait_time`, `grant_count`, `peak_queue_len`) feed the
    contention reports used by the scaling analysis.
    """

    def __init__(self, env: Environment, capacity: int = 1, name: str = "resource"):
        if capacity < 1:
            raise SimulationError(f"resource capacity must be >= 1, got {capacity}")
        self.env = env
        self.capacity = capacity
        self.name = name
        self._in_use = 0
        self._queue: deque[tuple[ResourceRequest, float]] = deque()
        self.total_wait_time = 0.0
        self.grant_count = 0
        self.peak_queue_len = 0

    @property
    def queue_len(self) -> int:
        return len(self._queue)

    def request(self) -> ResourceRequest:
        """Return an event that fires once a slot is available (FIFO)."""
        req = ResourceRequest(self)
        if self._in_use < self.capacity and not self._queue:
            self._grant(req, waited=0.0)
        else:
            self._queue.append((req, self.env.now))
            self.peak_queue_len = max(self.peak_queue_len, len(self._queue))
        return req

    def try_acquire(self) -> bool:
        """Claim a slot immediately if one is free and nobody is queued.

        The uncontended fast path: no request event is created, so a
        transfer holding only free resources costs zero heap traffic.
        Contention semantics are identical to :meth:`request` — the slot
        is genuinely held, so later requesters queue behind it — and the
        grant is counted in the statistics.  Pair with :meth:`release`.
        """
        if self._in_use < self.capacity and not self._queue:
            self._in_use += 1
            self.grant_count += 1
            return True
        return False

    def release(self) -> None:
        """Return a slot; grants the oldest queued request at URGENT priority."""
        if self._in_use <= 0:
            raise SimulationError(f"release() on idle resource {self.name!r}")
        self._in_use -= 1
        if self._queue:
            req, enqueued_at = self._queue.popleft()
            self._grant(req, waited=self.env.now - enqueued_at)

    def _grant(self, req: ResourceRequest, waited: float) -> None:
        self._in_use += 1
        self.total_wait_time += waited
        self.grant_count += 1
        req.succeed(self, priority=URGENT)

    def acquire(self):
        """Process helper: ``yield from resource.acquire()``."""
        yield self.request()

    def __repr__(self) -> str:
        return (
            f"<Resource {self.name!r} {self._in_use}/{self.capacity} busy, "
            f"{len(self._queue)} queued>"
        )


def try_acquire_all(resources) -> bool:
    """All-or-nothing immediate claim over several resources.

    Rolls back already-claimed slots if any resource is busy, so a failed
    attempt leaves no state behind.  Used by the uncontended-link fast
    path to claim a whole multi-hop route in one shot.
    """
    held = []
    for res in resources:
        if res.try_acquire():
            held.append(res)
        else:
            for r in held:
                r.release()
            return False
    return True

