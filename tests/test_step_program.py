"""Golden payloads for every study path that prices a training step.

Each case runs one small study point (4-16 ranks) and pins the canonical
digest of its full payload, so any change to the step arithmetic — float
summation order, RNG draw pattern, steady-state extrapolation value,
initial timing — shows up as a digest mismatch.  The hex strings were
recorded before the study paths were folded into one step program; the
refactor must reproduce them bit for bit.

Hazards and the cases that pin them:

* local-SGD sync sums ``fwd + bwd + blocking + update + comm_finish``:
  ``local_sgd_h4``, ``faulty_local_sgd_h2``;
* video frame steps carry no update, video draws jitter only at sequence
  boundaries: ``video``, ``video_jitter``;
* the faulty H=1 loop draws a gradient stream on every step, extrapolated
  ones included: ``faulty_jitter_rearm``;
* the P=1 extrapolation value is the converged window's ``steady_value``
  (exact tail value, else the window mean): ``dp_steady_exact``,
  ``dp_steady_fast``, ``dp_wide_tol``, ``hybrid_sweep``;
* no detector state leaks between the points of one sweep:
  ``hybrid_sweep``.
"""

from __future__ import annotations

import pytest

from repro.core.scenarios import VIDEO_SPEC, scenario_by_name
from repro.core.study import ScalingStudy, StudyConfig, point_payload
from repro.faults import FaultPlan, RankFailure
from repro.parallel import ParallelLayout
from repro.perf.digest import CACHE_VERSION_SALT, canonical_digest
from repro.profiling import Hvprof
from repro.resilience import CheckpointPolicy, RecoveryPolicy

HYBRID = ParallelLayout(tp=2, pp=2, microbatches=4)
RESTART = RecoveryPolicy(
    restart=True, checkpoint=CheckpointPolicy(interval_steps=3)
)


def _point(scenario, num_gpus, *, fault_plan=None, recovery=None, **cfg):
    study = ScalingStudy(
        scenario_by_name(scenario),
        StudyConfig(**cfg),
        fault_plan=fault_plan,
        recovery=recovery,
    )
    return [study.run_point(num_gpus)]


def _sweep(scenario, gpu_counts, **cfg):
    return ScalingStudy(scenario_by_name(scenario), StudyConfig(**cfg)).run(
        gpu_counts
    )


def _video(num_gpus, **cfg):
    study = ScalingStudy(
        scenario_by_name("MPI"),
        StudyConfig(workload=VIDEO_SPEC, warmup_steps=1, **cfg),
    )
    return [study.run_point(1), study.run_point(num_gpus)]


def _hvprof():
    hv = Hvprof()
    point = ScalingStudy(scenario_by_name("MPI"), StudyConfig()).run_point(
        4, hvprof=hv
    )
    assert hv.op_count("allreduce") > 0
    return [point]


def _failure(seed=11, **kw):
    return FaultPlan(seed=seed, faults=[RankFailure(**kw)])


CASES = {
    "dp_jitter": lambda: _point("MPI-Opt", 8),
    "dp_steady_exact": lambda: _point(
        "MPI", 8, jitter_sigma=0.0, measure_steps=8
    ),
    "dp_steady_fast": lambda: _point(
        "MPI", 8, jitter_sigma=0.0, measure_steps=8, engine_mode="fast"
    ),
    "dp_wide_tol": lambda: _point(
        "MPI", 8, measure_steps=8, steady_rel_tol=0.5
    ),
    "local_sgd_h4": lambda: _point(
        "MPI", 8, jitter_sigma=0.0, local_sgd_h=4, measure_steps=16
    ),
    "video": lambda: _video(8, jitter_sigma=0.0, measure_steps=32),
    "video_jitter": lambda: _video(8, measure_steps=16),
    "hybrid": lambda: _point("MPI-Opt", 16, layout=HYBRID),
    "hybrid_sweep": lambda: _sweep(
        "MPI-Opt", [8, 16], layout=HYBRID, jitter_sigma=0.0, measure_steps=8,
        steady_rel_tol=0.9,
    ),
    "faulty_restart": lambda: _point(
        "MPI-Opt", 8, jitter_sigma=0.0, measure_steps=12,
        fault_plan=_failure(rank=3, time=2.0), recovery=RESTART,
    ),
    "faulty_shrink_regrow": lambda: _point(
        "MPI-Opt", 8, measure_steps=10,
        fault_plan=_failure(seed=9, rank=1, time=2.0, down_s=4.0),
        recovery=RecoveryPolicy(restart=False, regrow=True),
    ),
    "faulty_local_sgd_h2": lambda: _point(
        "MPI", 8, jitter_sigma=0.0, local_sgd_h=2, measure_steps=12,
        fault_plan=_failure(rank=3, time=2.0), recovery=RESTART,
    ),
    "faulty_jitter_rearm": lambda: _point(
        "MPI", 8, measure_steps=12, steady_rel_tol=0.5,
        fault_plan=_failure(rank=3, time=4.0), recovery=RESTART,
    ),
    "hvprof": _hvprof,
}

GOLDEN = {
    "dp_jitter":
        "b46b0b60d548af6bdfed0868b25098f495cbafe37b9bdb8721bef28804c3da6b",
    "dp_steady_exact":
        "7b81107bad5fd7a14a709c05f97741620df3741dcf9a4f8650e3f6b9af892761",
    "dp_steady_fast":
        "7b81107bad5fd7a14a709c05f97741620df3741dcf9a4f8650e3f6b9af892761",
    "dp_wide_tol":
        "3f6659e56d14dcf8e33d16e1ac88072c572d68972de434dcedad1a133c05219f",
    "local_sgd_h4":
        "3b25c8fd181ae7718e10dd233650979408f5021d62601b0177dce760912fe52b",
    "video":
        "4749e2184b10770752c79a025db1c702b965c42cd43aa4db7b633667a36fa14b",
    "video_jitter":
        "533eaab4150800fb84fc876fefdb6722170eff1c65e6b8268bde0403fc974465",
    "hybrid":
        "4dfeaac06ce6d4802aaf2950b2b74377893b17b06c1304b1902367e0b649a922",
    "hybrid_sweep":
        "4ec1ab7cd959a261898a3d06b5365144d1198896c027f5dd9713ab1d29cec30e",
    "faulty_restart":
        "5809a4bcd609f2c66f673964983dd09d91df6fa3ab9f2feb07682c55e1d2b35b",
    "faulty_shrink_regrow":
        "92703b6208a317197e6b4c378187c45084f8c26f5f19b63c5fb0bbcede3f130f",
    "faulty_local_sgd_h2":
        "aa1304c327222321954d737a7b10cd23a9083267b6950e01eb5a19c7429e31cc",
    "faulty_jitter_rearm":
        "83303022138c3290c1d7063609783b48f55a89dab3f78c49d53e6c82f5402758",
    "hvprof":
        "971504f7720840a041061b194b73d65367cdc1ba9f4c350f141a22dbbda95a18",
}


def case_digest(name: str) -> str:
    return canonical_digest([point_payload(p) for p in CASES[name]()])


def test_salt_unchanged():
    assert CACHE_VERSION_SALT == "repro-perf-v9"


@pytest.mark.parametrize("name", sorted(CASES))
def test_golden_payload(name):
    assert case_digest(name) == GOLDEN[name]
