"""Default-vs-optimized comparison reports (Table I's format) and the
injected-fault summary of a run's fault trace."""

from __future__ import annotations

from repro.faults.trace import FaultTrace
from repro.profiling.bins import SizeBin
from repro.profiling.hvprof import BinStats, Hvprof
from repro.utils.tables import TextTable
from repro.utils.units import format_time


def _bin_rows(
    default: Hvprof, optimized: Hvprof, op: str
) -> list[tuple[SizeBin, BinStats, BinStats]]:
    """``(bin, default stats, optimized stats)`` per Table I bin, then the
    overflow bin when either profile holds an op in it."""
    default_bins = default.by_bin(op)
    optimized_bins = optimized.by_bin(op)
    bins = list(default.bins)
    if default.overflow in default_bins or default.overflow in optimized_bins:
        bins.append(default.overflow)
    return [
        (b, default_bins.get(b, BinStats()), optimized_bins.get(b, BinStats()))
        for b in bins
    ]


def improvement_summary(
    default: Hvprof, optimized: Hvprof, op: str = "allreduce"
) -> dict[str, float]:
    """Per-bin and total percentage improvement of optimized over default."""
    out: dict[str, float] = {}
    for size_bin, d_stats, o_stats in _bin_rows(default, optimized, op):
        d, o = d_stats.total_time, o_stats.total_time
        out[size_bin.label] = 100.0 * (d - o) / d if d > 0 else 0.0
    d_total = default.total_time(op)
    o_total = optimized.total_time(op)
    out["Total"] = 100.0 * (d_total - o_total) / d_total if d_total > 0 else 0.0
    return out


def comparison_table(
    default: Hvprof,
    optimized: Hvprof,
    op: str = "allreduce",
    *,
    title: str = "Allreduce time performance improvement (Table I)",
) -> str:
    """Render the Table I layout: per-bin default/optimized ms + % gain."""
    table = TextTable(
        ["Message Size (Bytes)", "Default (ms)", "Optimized (ms)", "Improvement (%)"],
        title=title,
    )
    summary = improvement_summary(default, optimized, op)
    for size_bin, d_stats, o_stats in _bin_rows(default, optimized, op):
        table.add_row(
            size_bin.label,
            d_stats.total_time * 1e3,
            o_stats.total_time * 1e3,
            summary[size_bin.label],
        )
    table.add_row(
        "Total Time",
        default.total_time(op) * 1e3,
        optimized.total_time(op) * 1e3,
        summary["Total"],
    )
    return table.render()


def fault_report(trace: FaultTrace) -> str:
    """Per-kind count, first and last time of a run's fault trace.

    ``trace`` is the run's one fault log,
    :attr:`repro.faults.FaultInjector.trace`; kinds are sorted by name.
    """
    table = TextTable(
        ["Fault Kind", "Count", "First", "Last"],
        title="hvprof: injected faults",
    )
    times: dict[str, list[float]] = {}
    for event in trace:
        times.setdefault(event.kind, []).append(event.time)
    for kind, seen in sorted(times.items()):
        table.add_row(kind, len(seen), format_time(seen[0]), format_time(seen[-1]))
    return table.render()
