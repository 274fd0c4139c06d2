"""Golden functional-recovery runs of the distributed trainer.

Each case trains tiny EDSR replicas under a fault plan and a recovery
policy and pins the SHA-256 of what the run reports: the losses and
simulated step times as ``float.hex``, the world size of every step, the
step and image counts, the recovery ledger (floats as ``float.hex``) and
every fault-trace event as ``(kind, time.hex(), rank, src, dst)``.  An
event's free-text detail is not pinned.  The two clean cases pin their
losses and step times only.

The digests were recorded before the performance study and the trainer
shared one recovery ladder; any change to a loss, a step time, a world
size, a ledger bucket or the order and timing of a fault event shows up
as a digest mismatch.

Cases:

* ``clean`` and ``clean-local-sgd-h2``: no injector, no policy;
* ``shrink-continue``: one rank dies, the survivors continue;
* ``restart-every-step``: checkpoint every step, so a restart replays
  nothing;
* ``restart-sparse``: the only checkpoint is step 0, so every step before
  the failure is lost work;
* ``restart-regrow``: a rank's outage ends and it is regrown;
* ``blacklist``: a chronic straggler is evicted;
* ``node-regrow-topk``: 8 ranks on 2 nodes, the second node fails and
  comes back, gradients compressed with ``topk:0.25``;
* ``local-sgd-h2-restart``: local SGD with a sync every second step,
  restarted from a checkpoint;
* ``no-policy``: the ``shrink-continue`` plan with no recovery policy,
  which means shrink-and-continue, so both digests agree.  Recorded after
  the ladder replaced the trainer's flat-timeout coordinator path.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass

import numpy as np
import pytest

from repro.compression import CompressionConfig
from repro.data import DegradationConfig, SRDataset, SyntheticDiv2k
from repro.faults import (
    FaultInjector,
    FaultPlan,
    NodeFailure,
    RankFailure,
    StragglerFault,
    Topology,
)
from repro.hardware import LASSEN, Cluster
from repro.horovod import HorovodConfig, HorovodEngine
from repro.models import EDSR, EDSR_TINY
from repro.mpi import MpiWorld, Mv2Config, WorldSpec
from repro.mpi.process import SingletonDevicePolicy
from repro.resilience import CheckpointPolicy, RecoveryPolicy, SHRINK_CONTINUE
from repro.sim import Environment
from repro.trainer import DistributedTrainer


@dataclass(frozen=True)
class Case:
    steps: int
    plan: FaultPlan | None = None
    recovery: RecoveryPolicy | None = None
    ranks: int = 4
    local_sgd_h: int = 1
    compression: str = "none"


def _restart(interval: int, **kw) -> RecoveryPolicy:
    return RecoveryPolicy(
        restart=True, checkpoint=CheckpointPolicy(interval_steps=interval), **kw
    )


CASES = {
    "clean": Case(steps=6),
    "clean-local-sgd-h2": Case(steps=6, local_sgd_h=2),
    "shrink-continue": Case(
        steps=10,
        plan=FaultPlan(seed=5, faults=(RankFailure(rank=2, time=2.0),)),
        recovery=SHRINK_CONTINUE,
    ),
    "restart-every-step": Case(
        steps=10,
        plan=FaultPlan(seed=5, faults=(RankFailure(rank=2, time=2.0),)),
        recovery=_restart(1),
    ),
    "restart-sparse": Case(
        steps=12,
        plan=FaultPlan(seed=11, faults=(RankFailure(rank=3, time=3.0),)),
        recovery=_restart(50),
    ),
    "restart-regrow": Case(
        steps=16,
        plan=FaultPlan(
            seed=9, faults=(RankFailure(rank=1, time=2.0, down_s=4.0),)
        ),
        recovery=_restart(3, regrow=True),
    ),
    "blacklist": Case(
        steps=10,
        plan=FaultPlan(
            seed=3, faults=(StragglerFault(rank=0, factor=3.0, start=0.0),)
        ),
        recovery=RecoveryPolicy(restart=False, blacklist_after=3),
    ),
    "node-regrow-topk": Case(
        steps=16,
        ranks=8,
        plan=FaultPlan(
            seed=9, faults=(NodeFailure(node=1, time=2.0, down_s=4.0),)
        ),
        recovery=_restart(3, regrow=True),
        compression="topk:0.25",
    ),
    "local-sgd-h2-restart": Case(
        steps=12,
        local_sgd_h=2,
        plan=FaultPlan(seed=11, faults=(RankFailure(rank=3, time=3.0),)),
        recovery=_restart(5),
    ),
    "no-policy": Case(
        steps=10,
        plan=FaultPlan(seed=5, faults=(RankFailure(rank=2, time=2.0),)),
    ),
}

GOLDEN = {
    "blacklist":
        "7945b1dc26929bf9c983608192d676e800c93fbc08f09a075c0108414e57314a",
    "clean":
        "93676e008e109ccbdbdb1fa2df4bf5f675a1860bc04b29f8666842a4ba5cae94",
    "clean-local-sgd-h2":
        "243ce61c62fbe1848214b58f97524316f0f5ce41598460fd30c46038fb85cd4f",
    "local-sgd-h2-restart":
        "1ac139c37d3b651cb8ac1cda27608f61d2d70f376c676a4e07ab1d226b6b7570",
    "no-policy":
        "ca408bdf78ff7cf9a3ffde249ca9ea213e007c2825f8c840d9f19326d72bc31d",
    "node-regrow-topk":
        "940e53485cb12844d5fc6fd36fb07d34081cce1df2cca6b28fa76fbecc109182",
    "restart-every-step":
        "a3a0151bdabcf463b496285f5e7645380332abbc34b8cdab6833524ba7dbac9e",
    "restart-regrow":
        "a14e9dbacd88689444ed8d70affdefb2d69209a36892000eab4759c35df626d6",
    "restart-sparse":
        "3476d00832b20740792fa7c8d6d8bb4223736428417201569c31ec06640a99f9",
    "shrink-continue":
        "ca408bdf78ff7cf9a3ffde249ca9ea213e007c2825f8c840d9f19326d72bc31d",
}


def run_case(case: Case):
    nodes = max(1, (case.ranks + 3) // 4)
    cluster = Cluster(Environment(), LASSEN, num_nodes=nodes)
    spec = WorldSpec(
        num_ranks=case.ranks,
        policy=SingletonDevicePolicy(),
        config=Mv2Config(mv2_visible_devices="all", registration_cache=True),
    )
    injector = None
    if case.plan is not None:
        injector = FaultInjector(case.plan, topology=Topology(num_nodes=nodes))
    world = MpiWorld(cluster, spec, faults=injector)
    engine = HorovodEngine(
        world.communicator(),
        HorovodConfig(cycle_time_s=2e-3),
        compression=CompressionConfig.parse(case.compression),
    )
    dataset = SRDataset(
        SyntheticDiv2k(height=24, width=24, seed=7),
        split="train",
        degradation=DegradationConfig(scale=2),
    )
    kwargs = {}
    if case.recovery is not None:
        kwargs["recovery"] = case.recovery
    trainer = DistributedTrainer(
        lambda rank: EDSR(EDSR_TINY, rng=np.random.default_rng(50 + rank)),
        engine,
        dataset,
        batch_per_rank=1,
        lr_patch=8,
        faults=injector,
        local_sgd_h=case.local_sgd_h,
        **kwargs,
    )
    return trainer.train(case.steps), injector


def _hex(value):
    return value.hex() if isinstance(value, float) else value


def case_payload(case: Case) -> dict:
    result, injector = run_case(case)
    payload = {
        "losses": [v.hex() for v in result.losses],
        "step_times": [v.hex() for v in result.simulated_step_times],
    }
    if case.plan is None:
        return payload
    payload["world_sizes"] = list(result.world_sizes)
    payload["steps"] = result.steps
    payload["images"] = result.total_images
    payload["ledger"] = {
        k: _hex(v) for k, v in result.resilience.to_payload().items()
    }
    payload["trace"] = [
        [e.kind, e.time.hex(), e.rank, e.src, e.dst] for e in injector.trace
    ]
    return payload


def case_digest(case: Case) -> str:
    text = json.dumps(case_payload(case), sort_keys=True)
    return hashlib.sha256(text.encode()).hexdigest()


@pytest.mark.parametrize("name", sorted(CASES))
def test_recovery_golden(name):
    assert case_digest(CASES[name]) == GOLDEN[name]
