"""Goldens under Python 3.12's compensated ``sum()``.

From Python 3.12 on, ``sum()`` adds exact ``float`` items with Neumaier
compensation, so a float total can differ in its last bits from the
left-to-right fold Python 3.11 computes.  Every total that feeds a pinned
number must therefore be a fold written out (``total += x``).  These tests
replace ``builtins.sum`` with :func:`neumaier_sum`, an emulation of 3.12's
algorithm, and rerun golden cases whose payloads are made of such totals:
the step-program digests, transport states, serving reports and a hybrid
point must not move.
"""

from __future__ import annotations

import builtins
import math

import pytest

from repro.core import MPI_OPT, ScalingStudy, StudyConfig
from repro.core.study import point_payload
from repro.parallel import ParallelLayout
from tests import test_serve_golden as serve_golden
from tests import test_step_program as step_golden
from tests import test_transport_golden as transport_golden


def neumaier_sum(iterable, /, start=0):
    """``sum()`` as CPython 3.12 computes it.

    An int total adds ints exactly until the first other item.  A float
    total adds exact floats with Neumaier compensation and ints as
    doubles; the compensation is folded in at the end, or before the
    first item of any other type, after which items are added plainly.
    """
    total = start
    items = iter(iterable)
    if type(total) is int:
        for item in items:
            total = total + item
            if type(total) is not int:
                break
    if type(total) is float:
        comp = 0.0
        for item in items:
            if type(item) is float:
                t = total + item
                if abs(total) >= abs(item):
                    comp += (total - t) + item
                else:
                    comp += (item - t) + total
                total = t
            elif isinstance(item, int) and -(2**63) <= item < 2**63:
                total += float(item)
            else:
                if comp and math.isfinite(comp):
                    total += comp
                total = total + item
                break
        else:
            if comp and math.isfinite(comp):
                total += comp
            return total
    for item in items:
        total = total + item
    return total


@pytest.fixture()
def py312_sum(monkeypatch):
    monkeypatch.setattr(builtins, "sum", neumaier_sum)


def test_emulation_is_compensated():
    values = [1.0, 1e100, 1.0, -1e100]
    fold = 0.0
    for v in values:
        fold += v
    assert fold == 0.0
    assert neumaier_sum(values) == 2.0
    assert neumaier_sum([0.1] * 10) == 1.0


def test_emulation_keeps_other_types():
    assert neumaier_sum([]) == 0 and type(neumaier_sum([])) is int
    assert neumaier_sum([1, 2, 3]) == 6
    assert neumaier_sum([True, 2]) == 3
    assert neumaier_sum([[1], [2]], []) == [1, 2]
    assert neumaier_sum([1, 0.5, 2]) == 3.5


@pytest.mark.parametrize("name", sorted(step_golden.CASES))
def test_step_program_golden(name, py312_sum):
    assert step_golden.case_digest(name) == step_golden.GOLDEN[name]


TRANSPORT_CASES = ("mpi-16", "opt-16", "gdr-off-8", "flap-mpi-16",
                   "corrupt-opt-8", "leaders-gdr-off-8")


@pytest.mark.parametrize("mode", ["exact", "fast"])
@pytest.mark.parametrize("case", TRANSPORT_CASES)
def test_transport_golden(case, mode, py312_sum):
    config, num_ranks, kw = transport_golden.CASES[case]
    digest = transport_golden.run_case(config, num_ranks, mode, **kw)
    assert digest == transport_golden.GOLDEN[case]


@pytest.mark.parametrize("name", ["image-jsq", "video-failover"])
def test_serve_golden(name, py312_sum):
    assert serve_golden.case_digest(name) == serve_golden.GOLDEN[name]


def test_hybrid_point(monkeypatch):
    # three measured steps: the step-program goldens measure two, and a
    # two-item total is the same under both algorithms
    study = ScalingStudy(
        MPI_OPT, StudyConfig(layout=ParallelLayout(tp=2), measure_steps=3)
    )
    plain = point_payload(study.run_point(16))
    monkeypatch.setattr(builtins, "sum", neumaier_sum)
    assert point_payload(study.run_point(16)) == plain
