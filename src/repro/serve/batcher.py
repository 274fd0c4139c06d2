"""Per-replica dynamic batching (max size + timeout, padding-aware).

The batcher is a pure, clock-driven state machine so its invariants can be
property-tested without the event engine:

* a dispatched batch never exceeds ``max_batch`` requests;
* once the oldest queued request has waited ``timeout_s``, the batch is
  *ready* — a correct driver (the replica server process) dispatches it at
  that instant, so no request waits longer than the timeout before its
  batch starts;
* requests leave in arrival order (global FIFO, hence FIFO within every
  request class).

Batches may mix request classes; the padding-aware cost model charges the
whole batch at the largest (patch, scale) it contains
(:meth:`repro.serve.costing.ServingCostModel.batch_latency`), which is
exactly what shape-padding a mixed batch onto one GPU launch costs.
Multi-scale serving (video mixes) sets ``mix_scales=False``: output
shapes of different upscale factors cannot pad together, so a dispatched
batch is the longest single-scale FIFO prefix — still FIFO, never
reordered, just cut at the first scale change.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

from repro.errors import ConfigError
from repro.serve.workload import Request

#: tolerance when comparing simulation clocks to dispatch deadlines
_EPS = 1e-12


@dataclass(frozen=True)
class BatchingConfig:
    """Dynamic-batching knobs of one replica."""

    max_batch: int = 8
    timeout_s: float = 0.025
    #: False: a batch never mixes upscale factors (multi-scale serving);
    #: the dispatch is cut at the first scale change in FIFO order
    mix_scales: bool = True

    def __post_init__(self) -> None:
        if self.max_batch < 1:
            raise ConfigError(f"max_batch must be >= 1, got {self.max_batch}")
        if self.timeout_s < 0:
            raise ConfigError(f"timeout_s must be >= 0, got {self.timeout_s}")


class DynamicBatcher:
    """FIFO request queue that forms batches under (size, timeout) limits."""

    def __init__(self, config: BatchingConfig | None = None):
        self.config = config or BatchingConfig()
        self._queue: deque[tuple[Request, float]] = deque()

    def __len__(self) -> int:
        return len(self._queue)

    def enqueue(self, request: Request, now: float) -> None:
        """Admit one request at simulation time ``now``."""
        if self._queue and now < self._queue[-1][1] - _EPS:
            raise ConfigError(
                f"batcher clock went backwards: {now} < {self._queue[-1][1]}"
            )
        self._queue.append((request, now))

    def next_deadline(self) -> float | None:
        """Latest instant the head-of-line batch may dispatch (or None)."""
        if not self._queue:
            return None
        return self._queue[0][1] + self.config.timeout_s

    def ready(self, now: float) -> bool:
        """True when a batch must dispatch: full, or head timed out."""
        if not self._queue:
            return False
        if len(self._queue) >= self.config.max_batch:
            return True
        return now >= self.next_deadline() - _EPS

    def pop_batch(self, now: float) -> list[Request]:
        """Dispatch up to ``max_batch`` requests, oldest first.

        With ``mix_scales=False`` the batch stops at the first request
        whose upscale factor differs from the head's: those requests stay
        queued (in order) and form the next batch.
        """
        if not self._queue:
            raise ConfigError("pop_batch on an empty batcher")
        batch = []
        head_scale = self._queue[0][0].cls.scale
        while self._queue and len(batch) < self.config.max_batch:
            if (
                not self.config.mix_scales
                and self._queue[0][0].cls.scale != head_scale
            ):
                break
            batch.append(self._queue.popleft()[0])
        return batch

    def drain(self) -> list[Request]:
        """Remove and return every queued request (failover path)."""
        out = [req for req, _ in self._queue]
        self._queue.clear()
        return out
