"""Tests for hvprof: bins, collection, reports, comparison tables."""

import pytest

from repro.errors import ConfigError
from repro.mpi.collectives.base import CollectiveTiming, ExecutionMode
from repro.profiling import (
    PAPER_BINS,
    Hvprof,
    SizeBin,
    bin_for,
    comparison_table,
    improvement_summary,
)
from repro.utils.units import KIB, MIB


def fake_timing(nbytes, time, op="allreduce", algorithm="ring"):
    return CollectiveTiming(op, algorithm, nbytes, 4, time, ExecutionMode.ANALYTIC)


class TestBins:
    def test_paper_bins_cover_table1_rows(self):
        labels = [b.label for b in PAPER_BINS]
        assert labels == [
            "1-128 KB", "128 KB - 16 MB", "16 MB - 32 MB", "32 MB - 64 MB",
        ]

    def test_bin_boundaries(self):
        assert bin_for(0).label == "1-128 KB"
        assert bin_for(128 * KIB - 1).label == "1-128 KB"
        assert bin_for(128 * KIB).label == "128 KB - 16 MB"
        assert bin_for(16 * MIB).label == "16 MB - 32 MB"
        assert bin_for(32 * MIB).label == "32 MB - 64 MB"
        assert bin_for(64 * MIB).label == "32 MB - 64 MB"
        assert bin_for(65 * MIB) is None

    def test_invalid_bin_rejected(self):
        with pytest.raises(ConfigError):
            SizeBin("bad", 10, 10)


class TestHvprof:
    def test_records_and_aggregates(self):
        hv = Hvprof()
        hv.observer(fake_timing(1 * MIB, 0.010), "mpi")
        hv.observer(fake_timing(32 * MIB, 0.050), "mpi")
        hv.observer(fake_timing(40 * MIB, 0.060), "mpi")
        assert hv.op_count() == 3
        assert hv.total_time() == pytest.approx(0.120)
        stats = hv.by_bin()
        assert stats[PAPER_BINS[1]].count == 1
        assert stats[PAPER_BINS[3]].count == 2
        assert stats[PAPER_BINS[3]].total_time == pytest.approx(0.110)

    def test_filters_by_op(self):
        hv = Hvprof()
        hv.observer(fake_timing(1 * MIB, 0.01), "mpi")
        hv.observer(fake_timing(1 * MIB, 0.02, op="bcast"), "mpi")
        assert hv.op_count("allreduce") == 1
        assert hv.op_count("bcast") == 1
        assert hv.op_count(None) == 2

    def test_report_renders_fig14_layout(self):
        hv = Hvprof()
        hv.observer(fake_timing(20 * MIB, 0.013), "mpi")
        report = hv.report()
        assert "16 MB - 32 MB" in report
        assert "Total" in report

    def test_bins_hold_every_op(self):
        # a 100 MiB op is above Table I's last bin: the overflow bin keeps
        # it, so the bins add up to op_count and total_time
        hv = Hvprof()
        hv.observer(fake_timing(8 * MIB, 0.010), "mpi")
        hv.observer(fake_timing(100 * MIB, 0.100), "mpi")
        stats = hv.by_bin()
        assert list(stats) == [*PAPER_BINS, hv.overflow]
        assert stats[hv.overflow].count == 1
        assert sum(s.count for s in stats.values()) == hv.op_count() == 2
        assert sum(s.total_time for s in stats.values()) == \
            pytest.approx(hv.total_time()) == pytest.approx(0.110)
        assert hv.overflow.label in hv.report()

    def test_overflow_row_only_when_it_holds_an_op(self):
        hv = Hvprof()
        hv.observer(fake_timing(64 * MIB, 0.010), "mpi")
        assert list(hv.by_bin()) == list(PAPER_BINS)
        assert hv.overflow.label == "> 64.00 MiB"
        assert hv.overflow.label not in hv.report()
        assert hv.overflow.label not in comparison_table(hv, hv)

    def test_overflow_needs_tiling_bins(self):
        with pytest.raises(ConfigError, match="tile"):
            Hvprof(bins=(SizeBin("a", 0, 10), SizeBin("b", 20, 30)))

    def test_clear(self):
        hv = Hvprof()
        hv.observer(fake_timing(1 * MIB, 0.01), "mpi")
        hv.clear()
        assert hv.op_count() == 0


class TestComparison:
    def _profiles(self):
        default, optimized = Hvprof(), Hvprof()
        # small bin: identical (paper: ~0 improvement)
        for hv in (default, optimized):
            hv.observer(fake_timing(64 * KIB, 0.004), "mpi")
        # large bin: optimized twice as fast (paper: ~50%)
        default.observer(fake_timing(48 * MIB, 0.050), "mpi")
        optimized.observer(fake_timing(48 * MIB, 0.025), "mpi")
        return default, optimized

    def test_improvement_summary_matches_table1_structure(self):
        default, optimized = self._profiles()
        summary = improvement_summary(default, optimized)
        assert summary["1-128 KB"] == pytest.approx(0.0)
        assert summary["32 MB - 64 MB"] == pytest.approx(50.0)
        assert summary["Total"] == pytest.approx(100 * 25 / 54, rel=1e-3)

    def test_comparison_table_renders(self):
        default, optimized = self._profiles()
        table = comparison_table(default, optimized)
        assert "Table I" in table
        assert "50.000" in table or "50.0" in table

    def test_overflow_row_compares_ops_above_the_last_bin(self):
        default, optimized = self._profiles()
        default.observer(fake_timing(100 * MIB, 0.100), "mpi")
        optimized.observer(fake_timing(100 * MIB, 0.080), "mpi")
        summary = improvement_summary(default, optimized)
        assert summary[default.overflow.label] == pytest.approx(20.0)
        assert summary["Total"] == pytest.approx(100 * 45 / 154, rel=1e-3)
        assert default.overflow.label in comparison_table(default, optimized)

    def test_empty_bins_report_zero_improvement(self):
        summary = improvement_summary(Hvprof(), Hvprof())
        assert all(v == 0.0 for v in summary.values())


class TestEndToEndProfile:
    def test_hvprof_on_real_study_reproduces_table1_shape(self):
        """Profile 10 steps default vs optimized at 4 GPUs: large bins must
        improve ~2x, small bins ~not at all, echoing Table I."""
        from repro.core import MPI_DEFAULT, MPI_OPT, ScalingStudy, StudyConfig

        cfg = StudyConfig(measure_steps=10)
        profiles = {}
        for scenario in (MPI_DEFAULT, MPI_OPT):
            hv = Hvprof()
            ScalingStudy(scenario, cfg).run_point(4, hvprof=hv)
            profiles[scenario.name] = hv
        summary = improvement_summary(profiles["MPI"], profiles["MPI-Opt"])
        assert summary["Total"] > 30.0
        large_bin_improvement = max(
            summary["16 MB - 32 MB"], summary["32 MB - 64 MB"]
        )
        assert large_bin_improvement > 35.0


class TestEnhancedReports:
    def _loaded(self):
        hv = Hvprof()
        hv.observer(fake_timing(20 * MIB, 0.010, algorithm="ring"), "mpi")
        hv.observer(fake_timing(40 * MIB, 0.030, algorithm="hierarchical"), "mpi")
        hv.observer(fake_timing(40 * MIB, 0.010, algorithm="hierarchical"), "mpi")
        return hv

    def test_by_algorithm_aggregation(self):
        hv = self._loaded()
        stats = hv.by_algorithm()
        assert stats["ring"].count == 1
        assert stats["hierarchical"].count == 2
        assert stats["hierarchical"].total_time == pytest.approx(0.040)

    def test_effective_bandwidth(self):
        hv = Hvprof()
        hv.observer(fake_timing(50_000_000, 0.010), "mpi")
        assert hv.effective_bandwidth() == pytest.approx(5e9)
        assert Hvprof().effective_bandwidth() == 0.0

    def test_report_includes_bandwidth_column(self):
        report = self._loaded().report()
        assert "GB/s" in report

    def test_json_roundtrip(self):
        hv = self._loaded()
        dump = hv.to_json()
        assert len(dump) == 3
        assert dump[0]["algorithm"] == "ring"
        assert dump[1]["nbytes"] == 40 * MIB
