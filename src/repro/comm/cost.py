"""Shared α-β cost arithmetic and the collective plan memo.

The α-β (latency-bandwidth) identities and the collective plan memo
used to be copied between ``mpi/collectives/allreduce.py``,
``nccl/communicator.py``, and the Horovod fusion layer; this module is
their single home.  ``mpi.collectives.allreduce`` re-exports
``allreduce_lower_bound``.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.hardware.specs import ClusterSpec


#: Wire bytes per element of the default (fp32) gradient dtype.  This is
#: the *only* place the 4 lives: every reduce-cost call site threads an
#: explicit ``dtype_bytes`` that defaults to this constant, so compressed
#: (2-byte) traffic prices its reduction kernels correctly everywhere.
FLOAT32_BYTES = 4


def reduce_elements(nbytes: int, dtype_bytes: int) -> float:
    """Element count of an ``nbytes`` payload at ``dtype_bytes``/element."""
    return nbytes / dtype_bytes


def reduce_time(nbytes: int, dtype_bytes: int, *, reduce_flops: float) -> float:
    """Elementwise-sum cost of combining two ``nbytes`` buffers."""
    return reduce_elements(nbytes, dtype_bytes) / reduce_flops


def alpha_beta_time(nbytes: int, *, alpha_s: float, bandwidth: float) -> float:
    """One message: startup latency plus serialization time."""
    if bandwidth == float("inf"):
        return alpha_s
    return alpha_s + nbytes / bandwidth


def allreduce_lower_bound(nbytes: int, p: int, bandwidth: float) -> float:
    """Bandwidth-optimal lower bound ``2n(p-1)/(pB)`` for sanity checks."""
    if p <= 1:
        return 0.0
    return 2 * nbytes * (p - 1) / (p * bandwidth)


def ring_step_count(p: int) -> int:
    """Steps of a chunked-ring allreduce (reduce-scatter + allgather)."""
    return 2 * (p - 1)


def weight_broadcast_time(spec: "ClusterSpec", nbytes: int, *, replicas: int = 1) -> float:
    """Cold-start weight push to new replicas over the inter-node fabric.

    The serving tier brings replicas online one at a time, so the flat
    model is one α-β IB transfer per replica (same envelope
    ``serve.costing`` charged before this layer existed).
    """
    if nbytes <= 0 or replicas <= 0:
        return 0.0
    return replicas * spec.ib.transfer_time(nbytes)


class ScheduleMemo:
    """FIFO memo of immutable collective plans: the plan memo.

    A plan (:class:`~repro.mpi.collectives.base.CollectivePlan`: an
    algorithm and its phases' step schedules) is pure shape, determined
    by its key ``(op, variant, tuple(ranks), nbytes)``.  A call's buffer
    ids and element width are bound to it only as it is priced
    (:class:`~repro.mpi.collectives.base.CallBinding`), and Horovod
    issues the same allreduce shape every training step, so plans are
    built once and reused instead of being reconstructed per call.
    Nothing changes a plan after it is built (the costers only read its
    steps and their ``PairTransfer`` records), which is what makes
    sharing them safe.
    :func:`~repro.mpi.collectives.base.plan_timing` is its one reader.

    Each world's :class:`~repro.mpi.collectives.base.StepCoster` owns one
    (``coster.schedules``), so a dropped world takes its plans with it.
    """

    def __init__(self, max_entries: int = 512):
        self.max_entries = max_entries
        self.entries: dict[tuple, object] = {}

    def get(self, key: tuple, builder: Callable[[], object]) -> object:
        hit = self.entries.get(key)
        if hit is None:
            if len(self.entries) >= self.max_entries:
                # FIFO eviction is enough: the working set per study is tiny
                self.entries.pop(next(iter(self.entries)))
            hit = builder()
            self.entries[key] = hit
        return hit

    def clear(self) -> None:
        self.entries.clear()

    def __len__(self) -> int:
        return len(self.entries)
