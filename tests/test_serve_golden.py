"""Golden serving reports: the latency arithmetic must not move a bit.

Each case runs one short serving scenario and pins the canonical digest of
its report payload (the full SLO-ledger summary: latency percentiles,
goodput, utilization, cold starts, failover retries, video jitter-buffer
stats).  The hex strings were recorded before batch latency was read from
a per-shape table instead of re-pricing the cost model on every call; any
change to the priced latencies, or to the order the simulator consumes
them in, shows up as a digest mismatch.

Cases:

* ``DEFAULT_MIX`` under every routing policy (``image-rr``, ``image-jsq``,
  ``image-least-loaded``) — mixed-shape, padding-aware batches;
* ``VIDEO_MIX`` with session affinity, scale-pure batches and a replica-0
  failure (``video-failover``) — failover retries re-enqueue priced work;
* the walk oracle and the default engine — the unsuffixed cases draw
  their arrivals one at a time (:func:`~repro.sim.fastpath.walk_oracle`),
  the ``*-fast`` cases and the traced runs use the vectorized generator,
  and both feed the same event loop.

The summary digest can hide a reordering (the same latency served by
another replica), so each case also pins the digest of its per-request
ledger records — outcome, completion instant and serving replica of every
request — and ``image-jsq`` and ``video-failover`` pin their Chrome trace.
Those digests were recorded before the serving loop ran as engine
callbacks instead of generator processes.  They involve no float ``sum()``,
only clock additions and ``* 1e6``, so they hold on every Python version.
"""

from __future__ import annotations

import pytest

from repro.faults import FaultPlan, RankFailure
from repro.perf.digest import canonical_digest
from repro.serve import (
    VIDEO_MIX,
    BatchingConfig,
    ServeScenario,
    WorkloadConfig,
    simulate_serve,
)
from repro.sim.fastpath import walk_oracle

VIDEO = ServeScenario(
    name="video-failover",
    workload=WorkloadConfig(kind="video", rate_rps=2.0, classes=VIDEO_MIX),
    batching=BatchingConfig(mix_scales=False),
    session_affinity=True,
)
FAILURE = FaultPlan(faults=(RankFailure(rank=0, time=8.0, down_s=6.0),))


def _image(routing, walk=True):
    with walk_oracle(walk):
        return simulate_serve(
            ServeScenario(name=f"image-{routing}", routing=routing),
            duration_s=20.0, seed=5,
        )


def _video(walk=True):
    with walk_oracle(walk):
        return simulate_serve(
            VIDEO, duration_s=24.0, seed=3, fault_plan=FAILURE
        )


CASES = {
    "image-rr": lambda: _image("rr"),
    "image-jsq": lambda: _image("jsq"),
    "image-least-loaded": lambda: _image("least-loaded"),
    "image-jsq-fast": lambda: _image("jsq", walk=False),
    "video-failover": lambda: _video(),
    "video-failover-fast": lambda: _video(walk=False),
}

GOLDEN = {
    "image-rr":
        "9560c44532ca7c7922f7285b3c481efcc08a220ade96ea4592e85e54e9603e63",
    "image-jsq":
        "68fe792c854b6d5ff70b715be1bb171cf9ab26879f1ed48e3224c04ec6d4c4b8",
    "image-least-loaded":
        "6b18c0e52e8a8a58c58a1445d94f6cac4ffab27b4db3635c22933464e122e0a7",
    "image-jsq-fast":
        "68fe792c854b6d5ff70b715be1bb171cf9ab26879f1ed48e3224c04ec6d4c4b8",
    "video-failover":
        "3ca5a3b3e6631c917611eb0876bbb805bf986e30065fd7d2d0925ee75c2d8ba0",
    "video-failover-fast":
        "3ca5a3b3e6631c917611eb0876bbb805bf986e30065fd7d2d0925ee75c2d8ba0",
}


RECORDS = {
    "image-rr":
        "9283db9b4bb4cc6052d1955fec876c48669a4c083956762d42be24a6bec91864",
    "image-jsq":
        "5a79b7dc1d5e2776060674d4f4b1bdb606674602c6291eb571f6da3c4e5cc3a3",
    "image-least-loaded":
        "8ef1ec45ee604178971b05f90a878f2b4a9e23015098bf6918618f8fd93b86c5",
    "image-jsq-fast":
        "5a79b7dc1d5e2776060674d4f4b1bdb606674602c6291eb571f6da3c4e5cc3a3",
    "video-failover":
        "e0ae0b7d5ce3e2989097d0deeb57e425f294f41e47a2066323e9868354014914",
    "video-failover-fast":
        "e0ae0b7d5ce3e2989097d0deeb57e425f294f41e47a2066323e9868354014914",
}

TRACED = {
    "image-jsq": (
        lambda: simulate_serve(
            ServeScenario(name="image-jsq", routing="jsq"),
            duration_s=20.0, seed=5, collect_trace=True,
        ),
        "eb5ac7e0275ac5e302493494d8fea12bef792150a392a0ef9b1400e644afb2a9",
    ),
    "video-failover": (
        lambda: simulate_serve(
            VIDEO, duration_s=24.0, seed=3, fault_plan=FAILURE,
            collect_trace=True,
        ),
        "9f0bf096d25d74ae48af4a043bd27bd3eec148a4855401eb06b8750ac35dda6f",
    ),
}


def case_digest(name: str) -> str:
    return canonical_digest(CASES[name]().to_payload())


@pytest.mark.parametrize("name", sorted(CASES))
def test_golden_serve_report(name):
    assert case_digest(name) == GOLDEN[name]


@pytest.mark.parametrize("name", sorted(CASES))
def test_golden_request_records(name):
    assert canonical_digest(CASES[name]().ledger.records) == RECORDS[name]


@pytest.mark.parametrize("name", sorted(TRACED))
def test_golden_trace(name):
    run, trace_digest = TRACED[name]
    report = run()
    # tracing observes the run without changing its payload
    assert canonical_digest(report.to_payload()) == GOLDEN[name]
    chrome = [event.to_chrome() for event in report.trace]
    assert canonical_digest(chrome) == trace_digest
