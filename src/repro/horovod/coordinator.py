"""Coordinator (negotiation) cost model.

Horovod synchronizes which tensors are globally ready through a
rank-0 coordinator each cycle: every worker sends its ready-tensor bitmap
(a gather), rank 0 intersects them and broadcasts the response list.  The
cost grows with both world size and tensor count — one of the scale taxes
that erode efficiency in Figs. 10/13 even with a perfect allreduce.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.errors import ConfigError


@dataclass(frozen=True)
class CoordinatorModel:
    """Per-cycle negotiation cost: tree latency + rank-0 processing."""

    hop_latency_s: float = 6.0e-6  # small-message hop (TCP/gloo control plane)
    # rank 0 deserializes and intersects one worker's ready-bitmap per rank
    # per cycle; the Python-side coordinator costs ~10 us/rank in Horovod
    # 0.19, the dominant negotiation term at 512 ranks
    per_rank_processing_s: float = 12e-6
    per_tensor_processing_s: float = 0.15e-6

    def cycle_overhead(self, num_ranks: int, num_tensors: int) -> float:
        """Negotiation wall time added to one Horovod cycle."""
        if num_ranks < 1:
            raise ConfigError(f"num_ranks must be >= 1, got {num_ranks}")
        if num_ranks == 1:
            return 0.0
        tree_depth = math.ceil(math.log2(num_ranks))
        gather_bcast = 2 * tree_depth * self.hop_latency_s
        processing = (
            num_ranks * self.per_rank_processing_s
            + num_tensors * self.per_tensor_processing_s
        )
        return gather_bcast + processing

    def cached_cycle_overhead(self, num_ranks: int) -> float:
        """Negotiation cost when the response cache hits: the per-rank
        coordinator processing disappears; only a small bitmask allreduce
        remains."""
        if num_ranks < 1:
            raise ConfigError(f"num_ranks must be >= 1, got {num_ranks}")
        if num_ranks == 1:
            return 0.0
        tree_depth = math.ceil(math.log2(num_ranks))
        return 2 * tree_depth * self.hop_latency_s


def straggler_factor(num_ranks: int, *, sigma: float = 0.03) -> float:
    """Expected synchronous-step inflation from per-rank compute jitter.

    Each rank's backward time varies by ~``sigma`` (data-dependent kernels,
    OS noise); a synchronous allreduce waits for the slowest of ``p`` ranks.
    For Gaussian jitter, E[max of p] ~= sigma * sqrt(2 ln p) — the classic
    straggler tax that bends every curve in Fig. 13 down at scale.
    """
    if num_ranks <= 1:
        return 1.0
    return 1.0 + sigma * math.sqrt(2.0 * math.log(num_ranks))
