"""Golden fault observability: one fault log renders what hvprof used to copy.

A run records each injected fault once, in ``FaultInjector.trace``.  The
Chrome trace of a faulty run is hvprof's collective lanes plus that log's
instants, and the injected-fault table is rendered from the log.  Both were
recorded while the injector still mirrored every fault into hvprof
(``FaultInjector(plan, hvprof=hv)``, then ``hvprof_trace_events(hv)`` and
``hv.fault_report()``); the one log must reproduce them bit for bit.

The run is ``examples/inject_faults.py --ranks 4 --steps 4 --fail-rank 2``'s
faulty run: real numpy EDSR training on four MPI-Opt ranks under a
straggler, a flapping IB link and a rank failure at 1.2 s that the
survivors shrink around.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import scenario_by_name
from repro.data import DegradationConfig, SRDataset, SyntheticDiv2k
from repro.faults import (
    FaultInjector,
    FaultPlan,
    LinkFault,
    RankFailure,
    StragglerFault,
)
from repro.hardware import LASSEN, Cluster
from repro.horovod import HorovodConfig, HorovodEngine
from repro.models import EDSR, EDSR_TINY
from repro.mpi import MpiWorld, WorldSpec
from repro.perf.digest import canonical_digest
from repro.profiling import (
    Hvprof,
    chrome_trace,
    fault_report,
    fault_trace_events,
    hvprof_trace_events,
)
from repro.sim import Environment
from repro.trainer import DistributedTrainer

PLAN = FaultPlan(seed=42, faults=(
    StragglerFault(rank=1, factor=1.6, start=0.0, duration=1.0),
    LinkFault(kind="ib", bandwidth_factor=0.5, latency_add_s=5e-6,
              start=0.5, flap_period_s=0.8),
    RankFailure(rank=2, time=1.2),
))

#: canonical_digest of the Chrome trace (80 collectives, 6 fault instants)
TRACE_DIGEST = (
    "faa47bc2708830833308373b5cf54d8c7b83dc70f7d3eec4a7aafe29e68ad933"
)
#: FaultTrace.digest() of the run's fault log
FAULT_LOG_DIGEST = (
    "1df41dc1b2b8e647b832bbf212799ca0e2c6e649d31689d9ca7312f6651489e7"
)
FAULT_REPORT = (
    "hvprof: injected faults\n"
    "-------------------+-------+---------+-----------\n"
    "Fault Kind        | Count | First   | Last     \n"
    "-------------------+-------+---------+-----------\n"
    "heartbeat-miss    | 1     | 1.200 s | 1.200 s  \n"
    "rank-dead         | 1     | 1.700 s | 1.700 s  \n"
    "straggler-off     | 1     | 1.700 s | 1.700 s  \n"
    "straggler-offense | 2     | 0 s     | 601.08 ms\n"
    "straggler-on      | 1     | 0 s     | 0 s      \n"
    "-------------------+-------+---------+-----------"
)


@pytest.fixture(scope="module")
def faulty_run():
    scenario = scenario_by_name("MPI-Opt")
    cluster = Cluster(Environment(), LASSEN, num_nodes=1)
    spec = WorldSpec(num_ranks=4, policy=scenario.policy, config=scenario.mv2)
    injector = FaultInjector(PLAN)
    comm = MpiWorld(cluster, spec, faults=injector).communicator()
    hv = Hvprof()
    comm.add_observer(hv.observer)
    dataset = SRDataset(
        SyntheticDiv2k(height=32, width=32, seed=11), split="train",
        degradation=DegradationConfig(scale=2),
    )
    trainer = DistributedTrainer(
        lambda rank: EDSR(EDSR_TINY, rng=np.random.default_rng(100 + rank)),
        HorovodEngine(comm, HorovodConfig(cycle_time_s=2e-3)),
        dataset, batch_per_rank=1, lr_patch=8, base_lr=5e-4,
        faults=injector,
    )
    trainer.train(steps=4)
    return hv, injector


def test_fault_log_is_unchanged(faulty_run):
    _, injector = faulty_run
    assert injector.trace.digest() == FAULT_LOG_DIGEST
    assert len(injector.trace) == 6


def test_chrome_trace_is_hvprof_lanes_plus_fault_instants(faulty_run):
    hv, injector = faulty_run
    faults = fault_trace_events(injector.trace)
    doc = chrome_trace(hvprof_trace_events(hv) + faults)
    assert len(doc["traceEvents"]) == len(hv.records) + len(injector.trace)
    assert canonical_digest(doc) == TRACE_DIGEST
    assert all(e.ph == "i" and e.tid == "faults" for e in faults)
    assert [e.name for e in faults] == [e.kind for e in injector.trace]


def test_fault_report_is_rendered_from_the_log(faulty_run):
    _, injector = faulty_run
    assert fault_report(injector.trace) == FAULT_REPORT
