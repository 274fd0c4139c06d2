"""Tests for the CLI entry point and utility modules."""

import pytest

from repro.__main__ import build_parser, main
from repro.errors import ConfigError
from repro.utils import (
    SeedSequenceFactory,
    TextTable,
    check_in,
    check_non_negative,
    check_positive,
    check_power_of_two,
    format_bytes,
    format_rate,
    format_time,
    parse_bytes,
)
from repro.utils.units import GIB, KIB, MIB


class TestUnits:
    @pytest.mark.parametrize("text,expected", [
        ("64MiB", 64 * MIB),
        ("128 KB", 128_000),
        ("128K", 128 * KIB),
        ("1.5GiB", int(1.5 * GIB)),
        ("42", 42),
        (1024, 1024),
        (3.7, 3),
    ])
    def test_parse_bytes(self, text, expected):
        assert parse_bytes(text) == expected

    @pytest.mark.parametrize("bad", ["", "abc", "12QB", -5])
    def test_parse_bytes_rejects(self, bad):
        with pytest.raises(ConfigError):
            parse_bytes(bad)

    def test_format_bytes(self):
        assert format_bytes(0) == "0 B"
        assert format_bytes(1536) == "1.50 KiB"
        assert format_bytes(64 * MIB) == "64.00 MiB"
        assert format_bytes(-KIB) == "-1.00 KiB"
        assert format_bytes(2_000_000, binary=False) == "2.00 MB"

    def test_format_time(self):
        assert format_time(0) == "0 s"
        assert format_time(5e-9) == "5.0 ns"
        assert format_time(12e-6) == "12.00 us"
        assert format_time(3.5e-3) == "3.50 ms"
        assert format_time(2.0) == "2.000 s"
        assert format_time(-1e-3) == "-1.00 ms"

    def test_format_rate(self):
        assert format_rate(12.2e9) == "12.20 GB/s"


class TestValidation:
    def test_check_positive(self):
        assert check_positive("x", 1.5) == 1.5
        with pytest.raises(ConfigError):
            check_positive("x", 0)

    def test_check_non_negative(self):
        assert check_non_negative("x", 0) == 0
        with pytest.raises(ConfigError):
            check_non_negative("x", -1)

    def test_check_power_of_two(self):
        assert check_power_of_two("x", 64) == 64
        for bad in (0, 3, -4):
            with pytest.raises(ConfigError):
                check_power_of_two("x", bad)

    def test_check_in(self):
        assert check_in("x", "a", ("a", "b")) == "a"
        with pytest.raises(ConfigError):
            check_in("x", "c", ("a", "b"))


class TestTextTable:
    def test_render_aligns_columns(self):
        table = TextTable(["Name", "Value"], title="T")
        table.add_row("a", 1)
        table.add_row("longer", 2.5)
        text = table.render()
        assert "T" in text
        assert "longer" in text
        assert "2.500" in text
        lines = [l for l in text.splitlines() if "|" in l]
        assert len({len(l) for l in lines}) == 1  # all rows same width

    def test_wrong_cell_count_rejected(self):
        table = TextTable(["A", "B"])
        with pytest.raises(ValueError):
            table.add_row(1)

    def test_extend(self):
        table = TextTable(["A"])
        table.extend([[1], [2]])
        assert len(table.rows) == 2


class TestSeedFactory:
    def test_independent_streams(self):
        factory = SeedSequenceFactory(99)
        a = factory.generator("data").random(4)
        b = factory.generator("jitter").random(4)
        a2 = SeedSequenceFactory(99).generator("data").random(4)
        assert (a == a2).all()
        assert not (a == b).all()


class TestCli:
    def test_parser_has_all_commands(self):
        parser = build_parser()
        text = parser.format_help()
        for command in ("scale", "profile", "table1", "fig1", "models",
                        "diagnose"):
            assert command in text

    def test_fig1_command(self, capsys):
        assert main(["fig1"]) == 0
        out = capsys.readouterr().out
        assert "edsr-paper" in out
        assert "resnet-50" in out

    def test_models_command(self, capsys):
        assert main(["models"]) == 0
        out = capsys.readouterr().out
        assert "deeplabv3-rn50" in out

    def test_scale_command(self, capsys):
        assert main(["scale", "--gpus", "4", "--scenario", "NCCL",
                     "--steps", "1"]) == 0
        out = capsys.readouterr().out
        assert "NCCL" in out
        assert "%" in out

    def test_profile_command(self, capsys):
        assert main(["profile", "--gpus", "4", "--steps", "2"]) == 0
        out = capsys.readouterr().out
        assert "Table I" in out

    def test_unknown_command_exits(self):
        with pytest.raises(SystemExit):
            main(["bogus"])

    # subcommand -> the shared flags it declares (besides the cache pair)
    SHARED_FLAGS = {
        "scale": ("--jobs",),
        "resilience": ("--jobs", "--report"),
        "serve": ("--jobs", "--report"),
        "chaos": ("--jobs", "--report"),
        "comm": (),
        "hybrid": ("--jobs", "--report"),
    }

    @pytest.mark.parametrize("command", sorted(SHARED_FLAGS))
    def test_shared_flags_parse_on_each_subcommand(self, command):
        flags = self.SHARED_FLAGS[command]
        parser = build_parser()
        defaults = parser.parse_args([command])
        assert defaults.no_cache is False
        assert defaults.cache_dir is None
        assert getattr(defaults, "jobs", None) == (1 if "--jobs" in flags else None)
        assert getattr(defaults, "report", None) is None
        argv = [command, "--no-cache", "--cache-dir", "cache-here"]
        if "--jobs" in flags:
            argv += ["--jobs", "3"]
        if "--report" in flags:
            argv += ["--report", "out.json"]
        args = parser.parse_args(argv)
        assert args.no_cache is True
        assert args.cache_dir == "cache-here"
        if "--jobs" in flags:
            assert args.jobs == 3
        if "--report" in flags:
            assert args.report == "out.json"
        for flag in {"--jobs", "--report"} - set(flags):
            with pytest.raises(SystemExit):
                parser.parse_args([command, flag, "1"])

    def test_cache_command_takes_only_the_directory(self):
        parser = build_parser()
        assert parser.parse_args(["cache", "--cache-dir", "d"]).cache_dir == "d"
        with pytest.raises(SystemExit):
            parser.parse_args(["cache", "--no-cache"])
