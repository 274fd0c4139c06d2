#!/usr/bin/env python
"""Deterministic chaos: EDSR training under an injected fault schedule.

Runs the paper's 8-GPU distributed EDSR recipe under a ``FaultPlan`` —
a transient straggler, a flapping InfiniBand link, and (optionally) a rank
failure the heartbeat watchdog declares dead, after which the survivors
shrink the ring and continue — and demonstrates the two reproducibility
guarantees the fault subsystem makes:

1. the *same* plan + seed produces byte-identical fault traces and
   bit-identical throughput across runs;
2. the *empty* plan reproduces the fault-free baseline exactly.

Run:  python examples/inject_faults.py [--ranks 8] [--steps 8] [--fail-rank 5]
"""

from __future__ import annotations

import argparse

import numpy as np

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
from repro.profiling import fault_report
from repro.sim import Environment


def run_training(args, plan: FaultPlan | None):
    """One full training run; returns (result, injector)."""
    from repro.trainer import DistributedTrainer

    scenario = scenario_by_name(args.scenario)
    nodes = max(1, (args.ranks + 3) // 4)
    cluster = Cluster(Environment(), LASSEN, num_nodes=nodes)
    spec = WorldSpec(num_ranks=args.ranks, policy=scenario.policy,
                     config=scenario.mv2)
    injector = FaultInjector(plan) if plan is not None else None
    world = MpiWorld(cluster, spec, faults=injector)
    comm = world.communicator()
    engine = HorovodEngine(comm, HorovodConfig(cycle_time_s=2e-3))

    source = SyntheticDiv2k(height=32, width=32, seed=11)
    dataset = SRDataset(source, split="train",
                        degradation=DegradationConfig(scale=2))
    trainer = DistributedTrainer(
        lambda rank: EDSR(EDSR_TINY, rng=np.random.default_rng(100 + rank)),
        engine,
        dataset,
        batch_per_rank=args.batch,
        lr_patch=8,
        base_lr=5e-4,
        faults=injector,
    )
    result = trainer.train(steps=args.steps)
    return result, injector


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--ranks", type=int, default=8)
    parser.add_argument("--steps", type=int, default=8)
    parser.add_argument("--batch", type=int, default=1)
    parser.add_argument("--scenario", type=str, default="MPI-Opt")
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--fail-rank", type=int, default=-1,
                        help="rank to kill mid-run (-1 disables)")
    args = parser.parse_args()

    faults = [
        # rank 1 runs 1.6x slow for the first simulated second, then recovers
        StragglerFault(rank=1, factor=1.6, start=0.0, duration=1.0),
        # the IB fabric flaps: half bandwidth on alternating 0.4 s half-periods
        LinkFault(kind="ib", bandwidth_factor=0.5, latency_add_s=5e-6,
                  start=0.5, flap_period_s=0.8),
    ]
    if args.fail_rank >= 0:
        faults.append(RankFailure(rank=args.fail_rank, time=1.2))
    plan = FaultPlan(seed=args.seed, faults=tuple(faults))

    print(f"fault plan (seed {args.seed}): {len(plan.faults)} faults, "
          "policy=shrink-continue")

    baseline, _ = run_training(args, None)
    base_ips = baseline.simulated_images_per_second
    print(f"baseline (no injector):      {base_ips:10.2f} img/s")

    zero, _ = run_training(args, FaultPlan(seed=args.seed))
    zero_ips = zero.simulated_images_per_second
    drift = abs(zero_ips - base_ips) / base_ips
    print(f"zero-fault plan:             {zero_ips:10.2f} img/s "
          f"(drift {drift:.5%})")
    assert drift < 1e-3, "zero-fault plan must reproduce the baseline"

    first, inj1 = run_training(args, plan)
    second, inj2 = run_training(args, plan)
    ips1 = first.simulated_images_per_second
    ips2 = second.simulated_images_per_second
    print(f"faulty run 1:                {ips1:10.2f} img/s")
    print(f"faulty run 2 (same seed):    {ips2:10.2f} img/s")
    identical = ips1 == ips2 and inj1.trace.digest() == inj2.trace.digest()
    print(f"runs identical: {identical} "
          f"(trace digest {inj1.trace.digest()[:12]}..., "
          f"{len(inj1.trace)} fault events)")
    assert identical, "same seed + same plan must be bit-identical"
    print(f"world size over time: {first.world_sizes}")
    print(f"slowdown vs baseline: {base_ips / ips1:.2f}x")
    print(fault_report(inj1.trace))


if __name__ == "__main__":
    main()
