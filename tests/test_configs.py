"""Tests for environment-variable config surfaces and scenario plumbing."""

import pytest

from repro.errors import ConfigError
from repro.horovod.env import HorovodConfig
from repro.mpi.env import Mv2Config
from repro.utils.units import KIB, MIB


class TestMv2EnvParsing:
    def test_full_environment(self):
        config = Mv2Config.from_env(
            {
                "MV2_IBA_EAGER_THRESHOLD": "128K",
                "MV2_CUDA_IPC": "0",
                "MV2_VISIBLE_DEVICES": "all",
                "MV2_USE_REGISTRATION_CACHE": "1",
                "MV2_USE_GPUDIRECT": "off",
                "MV2_ALLREDUCE_ALGORITHM": "hierarchical",
            }
        )
        assert config.eager_threshold == 128 * KIB
        assert config.cuda_ipc_enabled is False
        assert config.mv2_visible_devices == "all"
        assert config.registration_cache is True
        assert config.gdr_enabled is False
        assert config.allreduce_algorithm == "hierarchical"

    def test_empty_environment_gives_defaults(self):
        config = Mv2Config.from_env({})
        assert config == Mv2Config()

    def test_bad_algorithm_rejected(self):
        with pytest.raises(ConfigError):
            Mv2Config.from_env({"MV2_ALLREDUCE_ALGORITHM": "magic"})

    def test_describe_mentions_key_knobs(self):
        text = Mv2Config(mv2_visible_devices="all").describe()
        assert "mv2_visible=all" in text
        assert "regcache=off" in text

    def test_replace_is_functional(self):
        base = Mv2Config()
        changed = base.replace(registration_cache=True)
        assert changed.registration_cache and not base.registration_cache


class TestHorovodEnvParsing:
    def test_parses_horovod_variables(self):
        config = HorovodConfig.from_env(
            {
                "HOROVOD_FUSION_THRESHOLD": str(32 * MIB),
                "HOROVOD_CYCLE_TIME": "10",  # milliseconds, like Horovod
                "HOROVOD_GPU_ALLREDUCE": "NCCL",
            }
        )
        assert config.fusion_threshold == 32 * MIB
        assert config.cycle_time_s == pytest.approx(10e-3)
        assert config.backend == "nccl"

    def test_defaults_match_horovod_0_19(self):
        config = HorovodConfig()
        assert config.fusion_threshold == 64 * MIB
        assert config.cycle_time_s == pytest.approx(3.5e-3)

    def test_invalid_backend_rejected(self):
        with pytest.raises(ConfigError):
            HorovodConfig(backend="gloo")

    def test_negative_threshold_rejected(self):
        with pytest.raises(ConfigError):
            HorovodConfig(fusion_threshold=-1)
