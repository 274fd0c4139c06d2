"""Horovod parameter auto-tuning (paper §II-D).

The paper states: "the HOROVOD_FUSION_THRESHOLD and HOROVOD_CYCLE_TIME are
carefully tuned at each scale to maximize training throughput according to
[7]".  This module implements that tuning sweep: for a given scenario and
GPU count it grid-searches the two knobs with the scaling-study harness
and returns the best configuration.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

from repro.core.scenarios import Scenario
from repro.core.study import ScalingStudy, StudyConfig
from repro.errors import ConfigError
from repro.horovod.env import HorovodConfig
from repro.utils.units import MIB

#: default grids: the ranges practitioners sweep
DEFAULT_THRESHOLDS = tuple(m * MIB for m in (16, 32, 64, 128))
DEFAULT_CYCLE_TIMES = (3.5e-3, 10e-3, 25e-3, 55e-3, 100e-3)


@dataclass
class TuningResult:
    """Outcome of one grid search."""

    scenario: str
    num_gpus: int
    best: HorovodConfig
    best_images_per_second: float
    grid: list[tuple[int, float, float]] = field(default_factory=list)
    # (fusion_threshold, cycle_time_s, images_per_second) per grid point

    def improvement_over(self, threshold: int, cycle_time_s: float) -> float:
        """Speedup of the tuned config over a named grid point."""
        for t, c, rate in self.grid:
            if t == threshold and abs(c - cycle_time_s) < 1e-12:
                return self.best_images_per_second / rate
        raise ConfigError(
            f"grid point ({threshold}, {cycle_time_s}) was not swept"
        )


class HorovodTuner:
    """Grid-searches fusion threshold x cycle time at one scale."""

    def __init__(
        self,
        scenario: Scenario,
        *,
        thresholds: tuple[int, ...] = DEFAULT_THRESHOLDS,
        cycle_times: tuple[float, ...] = DEFAULT_CYCLE_TIMES,
        base_config: StudyConfig | None = None,
    ):
        if not thresholds or not cycle_times:
            raise ConfigError("tuner needs non-empty grids")
        self.scenario = scenario
        self.thresholds = thresholds
        self.cycle_times = cycle_times
        self.base_config = base_config or StudyConfig(measure_steps=1)

    def tune(self, num_gpus: int) -> TuningResult:
        best_rate = -1.0
        best_config: HorovodConfig | None = None
        grid: list[tuple[int, float, float]] = []
        for threshold in self.thresholds:
            for cycle in self.cycle_times:
                horovod = replace(
                    self.base_config.horovod,
                    fusion_threshold=threshold, cycle_time_s=cycle,
                )
                config = replace(self.base_config, horovod=horovod)
                rate = ScalingStudy(self.scenario, config).run_point(
                    num_gpus
                ).images_per_second
                grid.append((threshold, cycle, rate))
                if rate > best_rate:
                    best_rate = rate
                    best_config = horovod
        assert best_config is not None
        return TuningResult(
            scenario=self.scenario.name,
            num_gpus=num_gpus,
            best=best_config,
            best_images_per_second=best_rate,
            grid=grid,
        )
