"""The hvprof profiler."""

from __future__ import annotations

from dataclasses import dataclass

from repro.comm.records import CommRecord
from repro.mpi.collectives.base import CollectiveTiming
from repro.profiling.bins import PAPER_BINS, SizeBin, bin_for, overflow_bin
from repro.utils.tables import TextTable
from repro.utils.units import format_bytes, format_time


@dataclass
class BinStats:
    count: int = 0
    total_time: float = 0.0
    total_bytes: int = 0

    def add(self, record: CommRecord) -> None:
        self.count += 1
        self.total_time += record.time
        self.total_bytes += record.nbytes


class Hvprof:
    """Observer-based communication profiler.

    Attach with ``comm.add_observer(hvprof.observer)`` (every backend runs
    the one communicator class — backend-agnostic by construction, like the
    original tool).
    """

    def __init__(self, bins: tuple[SizeBin, ...] = PAPER_BINS):
        self.bins = bins
        #: holds the ops above the last bin (see :meth:`by_bin`)
        self.overflow = overflow_bin(bins)
        self.records: list[CommRecord] = []

    # -- collection ------------------------------------------------------------
    def observer(self, timing: CollectiveTiming, backend: str) -> None:
        self.records.append(CommRecord.from_timing(timing, backend))

    def clear(self) -> None:
        self.records.clear()

    # -- aggregation ------------------------------------------------------------
    def filtered(self, op: str | None = None) -> list[CommRecord]:
        return [r for r in self.records if op is None or r.op == op]

    def by_bin(self, op: str | None = "allreduce") -> dict[SizeBin, BinStats]:
        """Stats per bin, every bin of ``self.bins`` in order, then
        ``self.overflow`` if an op is larger than the last bin: the bins
        hold every op that :meth:`op_count` and :meth:`total_time` count."""
        stats = {b: BinStats() for b in self.bins}
        for record in self.filtered(op):
            b = bin_for(record.nbytes, self.bins) or self.overflow
            stats.setdefault(b, BinStats()).add(record)
        return stats

    def total_time(self, op: str | None = "allreduce") -> float:
        return sum(r.time for r in self.filtered(op))

    def total_bytes(self, op: str | None = "allreduce") -> int:
        return sum(r.nbytes for r in self.filtered(op))

    def op_count(self, op: str | None = "allreduce") -> int:
        return len(self.filtered(op))

    def by_algorithm(self, op: str | None = "allreduce") -> dict[str, BinStats]:
        """Aggregate by the collective algorithm that executed each op."""
        stats: dict[str, BinStats] = {}
        for record in self.filtered(op):
            stats.setdefault(record.algorithm, BinStats()).add(record)
        return stats

    def effective_bandwidth(self, op: str | None = "allreduce") -> float:
        """Aggregate bytes moved per second of collective time."""
        time = self.total_time(op)
        return self.total_bytes(op) / time if time > 0 else 0.0

    # -- reports -------------------------------------------------------------------
    def report(self, op: str = "allreduce", *, title: str | None = None) -> str:
        """Fig. 14-style profile: per-bin counts, time, and bandwidth."""
        table = TextTable(
            ["Message Size", "Count", "Total Time", "Total Bytes", "Eff. BW"],
            title=title or f"hvprof: {op} profile",
        )
        for size_bin, stats in self.by_bin(op).items():
            bw = stats.total_bytes / stats.total_time if stats.total_time else 0.0
            table.add_row(
                size_bin.label,
                stats.count,
                format_time(stats.total_time),
                format_bytes(stats.total_bytes),
                f"{bw / 1e9:.2f} GB/s",
            )
        table.add_row(
            "Total",
            self.op_count(op),
            format_time(self.total_time(op)),
            format_bytes(self.total_bytes(op)),
            f"{self.effective_bandwidth(op) / 1e9:.2f} GB/s",
        )
        return table.render()

    def to_json(self) -> list[dict]:
        """Machine-readable dump of every record."""
        return [
            {
                "op": r.op,
                "backend": r.backend,
                "algorithm": r.algorithm,
                "nbytes": r.nbytes,
                "time": r.time,
            }
            for r in self.records
        ]
