"""The constant tables in ``docs/calibration.md`` state the code's values.

Each row of the fitted-anchor and scale-tax tables names a calibrated
constant and the value it has.  The value is read back from the module
that defines the constant, so editing either side alone fails here.
"""

from __future__ import annotations

import re
from pathlib import Path

import pytest

from repro.core.calibration import (
    COMPUTE_JITTER_SIGMA,
    HOROVOD_TUNED,
    PAGEABLE_BLOCKING_FACTOR,
)
from repro.hardware import LASSEN
from repro.horovod.coordinator import CoordinatorModel
from repro.models.costing import ModelCostModel
from repro.models.edsr import EDSR_PAPER
from repro.models.resnet import RESNET50
from repro.mpi.env import Mv2Config
from repro.net.regcache import RegistrationCostModel
from repro.utils.units import GB, KIB

DOC = Path(__file__).resolve().parents[1] / "docs" / "calibration.md"

#: table row name -> the values its Value cell states, read from the code
CODE_VALUES = {
    "EDSR `peak_utilization`": lambda: (
        ModelCostModel.for_edsr(EDSR_PAPER).peak_utilization,
    ),
    "ResNet-50 `peak_utilization`": lambda: (
        ModelCostModel.for_resnet(RESNET50).peak_utilization,
    ),
    "`pageable_copy_bandwidth`": lambda: (
        LASSEN.node.pageable_copy_bandwidth,
    ),
    "`cuda_ipc_bandwidth`": lambda: (Mv2Config().cuda_ipc_bandwidth,),
    "`HOROVOD_TUNED.cycle_time_s`": lambda: (HOROVOD_TUNED.cycle_time_s,),
    "`COMPUTE_JITTER_SIGMA`": lambda: (COMPUTE_JITTER_SIGMA,),
    "coordinator `per_rank_processing_s`": lambda: (
        CoordinatorModel().per_rank_processing_s,
    ),
    "`PAGEABLE_BLOCKING_FACTOR`": lambda: (PAGEABLE_BLOCKING_FACTOR,),
    "registration `register_per_page_s`": lambda: (
        RegistrationCostModel().register_per_page_s,
        RegistrationCostModel().page_bytes,
    ),
}

UNITS = {"": 1.0, "GB/s": GB, "ms": 1e-3, "µs": 1e-6, "KiB": KIB}


def _rows() -> dict[str, str]:
    """Constant name -> Value cell, over every ``| Constant | Value |`` table."""
    rows = {}
    header = None
    for line in DOC.read_text(encoding="utf-8").splitlines():
        if not line.startswith("|"):
            header = None
            continue
        cells = [cell.strip() for cell in line.strip().strip("|").split("|")]
        if header is None:
            header = cells
        elif header[:2] == ["Constant", "Value"] and set(cells[0]) != {"-"}:
            assert cells[0] not in rows, f"{cells[0]} listed twice"
            rows[cells[0]] = cells[1]
    return rows


def _quantities(value: str) -> tuple[float, ...]:
    """``"4 µs / 64 KiB"`` -> ``(4e-6, 65536.0)``."""
    out = []
    for part in value.split(" / "):
        match = re.fullmatch(r"([0-9.]+)\s*(\S*)", part.strip())
        assert match and match.group(2) in UNITS, f"unparsed value {part!r}"
        out.append(float(match.group(1)) * UNITS[match.group(2)])
    return tuple(out)


def test_tables_list_every_calibrated_constant():
    assert sorted(_rows()) == sorted(CODE_VALUES)


@pytest.mark.parametrize("name", sorted(CODE_VALUES))
def test_documented_value_is_the_code_value(name):
    documented = _quantities(_rows()[name])
    assert documented == pytest.approx(CODE_VALUES[name](), rel=1e-12)

