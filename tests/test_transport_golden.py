"""Golden transport protocol state of the walk oracle and the default engine.

Each case builds one small MPI world (8 or 16 ranks), runs the same
collective sequence three times and hashes every timing (as
``float.hex``) together with the transport's protocol state after each
call: per-kind byte and transfer counts, per-rank staging seconds, the
open CUDA IPC pairs, and per HCA the eager/rendezvous counters, the
registration cache's hits, misses, evictions and invalidations, its LRU
key order with extents, and its transaction and poisoned sets.

The digests were recorded with the exact engine.  The walk oracle
(``exact``, :func:`~repro.sim.fastpath.walk_oracle`) and the default
engine with its ring closed form (``fast``) must both reproduce them, so
a drift that the two share cannot pass, and neither can a closed-form
shortcut that leaves different state behind.

Hazards and the cases that pin them:

* ring chunks of unequal size (``16 MiB + 28 B`` leaves ``rem != 0``) and
  the ring closed form, which starts firing at 8 ranks: every case;
* several ranks per node sharing staging engines: the 16-rank cases;
* the disabled registration cache, whose receiver pays its first
  advertisement per call: ``mpi-*``, ``gdr-off-*``, ``corrupt-mpi-*``;
* evictions (a 3-entry cache) and a poisoned entry per node plus a
  node-0 flush before the third call: ``cache3-*`` and every cached case;
* eager inter-node transfers of multi-megabyte chunks: ``eager4m-*``;
* CRC retransmit charges priced from the transfer's plain time:
  ``corrupt-*``;
* link state that changes with simulated time: ``flap-*``;
* rings over one rank per node, where staged chunks of both sizes
  collapse and each rank's staging seconds must add up in walk order,
  and hierarchical allreduces whose empty intra-node phases time as the
  int 0: ``leaders-*``.
"""

from __future__ import annotations

import hashlib

import pytest

from repro.faults import CorruptionFault, FaultPlan, LinkFault
from repro.faults.injector import FaultInjector
from repro.hardware import LASSEN, Cluster
from repro.mpi import Mv2Config, MpiWorld, WorldSpec
from repro.mpi.comm import GpuBuffers
from repro.mpi.process import SingletonDevicePolicy
from repro.mpi.transports import TransportKind
from repro.sim import Environment
from repro.sim.fastpath import walk_oracle
from repro.utils.units import KIB, MIB

MPI = Mv2Config(registration_cache=False)
MPI_REG = Mv2Config(registration_cache=True)
MPI_OPT = Mv2Config(registration_cache=True, mv2_visible_devices="all")

CONFIGS = {
    "mpi": MPI,
    "reg": MPI_REG,
    "opt": MPI_OPT,
    "gdr-off": Mv2Config(registration_cache=False, gdr_enabled=False),
    "gdr-off-reg": Mv2Config(
        registration_cache=True, gdr_enabled=False, mv2_visible_devices="all"
    ),
    "cache3": Mv2Config(
        registration_cache=True, reg_cache_entries=3, mv2_visible_devices="all"
    ),
    "eager4m": Mv2Config(
        registration_cache=True, eager_threshold=4 * MIB,
        mv2_visible_devices="all",
    ),
}

CORRUPT = FaultPlan(seed=0, faults=(CorruptionFault(target="wire", prob=0.02),))
FLAP = FaultPlan(
    seed=0,
    faults=(
        LinkFault(
            bandwidth_factor=0.5, latency_add_s=2e-6, flap_period_s=1.0
        ),
    ),
)
#: (config, plan, simulated seconds between calls).  The flap cases step
#: the clock so the links go degraded, healthy, degraded; the corruption
#: cases keep one timestamp so transfers recur across calls.
FAULTY = {
    "corrupt-mpi": (MPI, CORRUPT, 0.0),
    "corrupt-opt": (MPI_OPT, CORRUPT, 0.0),
    "flap-mpi": (MPI, FLAP, 0.6),
    "flap-opt": (MPI_OPT, FLAP, 0.6),
}

ALGORITHMS = ("ring", "recursive_doubling", "reduce_scatter_allgather",
              "hierarchical")
#: 400 B rides the eager paths; 16 MiB + 28 B splits into ring chunks of
#: two sizes; 64 MiB + 12 B puts ring chunks at the CUDA IPC threshold
SIZES = (400, 256 * KIB, 16 * MIB + 28, 64 * MIB + 12)


def _buffers(ranks, nbytes, base):
    return GpuBuffers(nbytes, [base + r for r in ranks])


def protocol_state(transport) -> list[str]:
    """Every piece of a transport's protocol state, as comparable lines."""
    out = []
    for kind in TransportKind:
        out.append(
            f"{kind.value} {transport.stats.bytes_moved[kind]} "
            f"{transport.stats.transfers[kind]}"
        )
    out.append(" ".join(
        f"{r}:{s.hex()}" for r, s in sorted(transport.staged_seconds.items())
    ))
    out.append(repr(sorted(transport._ipc_pairs)))
    for nid, ib in sorted(transport._ib.items()):
        cache = ib.reg_cache
        out.append(
            f"hca{nid} eager={ib.eager_sends} rndv={ib.rndv_sends} "
            f"hits={cache.hits} misses={cache.misses} "
            f"evictions={cache.evictions} inval={cache.invalidations} "
            f"lru={list(cache._entries.items())} "
            f"txn={sorted(cache._txn)} poisoned={sorted(cache._poisoned)}"
        )
    return out


def _hex(x) -> str:
    # an empty schedule times as the int 0; pin the type as well
    return x.hex() if isinstance(x, float) else repr(x)


def _timing(timing) -> str:
    segments = " ".join(
        f"{k}={_hex(v)}" for k, v in sorted(timing.segments.items())
    )
    return f"{timing.op}[{timing.algorithm}] {_hex(timing.time)} {segments}"


def run_case(config, num_ranks, mode, plan=None, gap_s=0.0, stride=1) -> str:
    """Digest of the collective sequence in ``mode`` on a fresh world,
    over every ``stride``-th of ``num_ranks * stride`` ranks."""
    world_ranks = num_ranks * stride
    env = Environment()
    cluster = Cluster(env, LASSEN, num_nodes=(world_ranks + 3) // 4)
    spec = WorldSpec(
        num_ranks=world_ranks, policy=SingletonDevicePolicy(), config=config
    )
    faults = FaultInjector(plan) if plan is not None else None
    with walk_oracle(mode == "exact"):
        world = MpiWorld(cluster, spec, faults=faults)
    assert (world.coster.fastpath is not None) == (mode == "fast")
    comm = world.communicator().reform(range(0, world_ranks, stride))
    ranks = comm.ranks
    transport = world.transport
    lines: list[str] = []
    for call in range(3):
        if call == 2:
            # one poisoned registration per node and a node-0 flush
            # before the last call
            for _, ib in sorted(transport._ib.items()):
                entries = ib.reg_cache._entries
                if entries:
                    ib.reg_cache.poison(next(iter(entries)))
            transport.drop_registrations(0)
        timings = []
        for algorithm in ALGORITHMS:
            for s, nbytes in enumerate(SIZES):
                timings.append(comm.allreduce(
                    _buffers(ranks, nbytes, 1000 * (s + 1)),
                    algorithm=algorithm,
                ))
        _, t = comm.allgather(_buffers(ranks, 1 * MIB, 1000))
        timings.append(t)
        timings.append(comm.bcast(_buffers(ranks, 4 * MIB + 4, 2000),
                                  root_index=1))
        timings.append(comm.reduce(_buffers(ranks, 4 * MIB + 4, 2000),
                                   root_index=2))
        _, t = comm.reduce_scatter(_buffers(ranks, 16 * MIB, 3000))
        timings.append(t)
        # fresh buffer ids on every call: first touch of each buffer
        timings.append(comm.allreduce(
            _buffers(ranks, 16 * MIB + 28, 10_000 * (call + 1))))
        timings.append(comm.barrier())
        _, t = comm.gather(_buffers(ranks, 64 * KIB, 5000))
        timings.append(t)
        timings.append(comm.alltoall(256 * KIB))
        lines.extend(_timing(t) for t in timings)
        lines.extend(protocol_state(transport))
        env.run(until=env.now + gap_s)
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()[:32]


#: name -> (config, ranks, run_case keywords)
CASES = {
    f"{name}-{n}": (config, n, {})
    for name, config in CONFIGS.items() for n in (8, 16)
}
CASES.update({
    f"{name}-{n}": (config, n, {"plan": plan, "gap_s": gap_s})
    for name, (config, plan, gap_s) in FAULTY.items() for n in (8, 16)
})
# one rank per node on 8 nodes: rings with staged chunks of two sizes
# collapse, and hierarchical allreduces have empty intra-node phases
CASES.update({
    f"leaders-{name}-8": (CONFIGS[name], 8, {"stride": 4})
    for name in ("mpi", "gdr-off", "gdr-off-reg")
})

#: exact-mode digests recorded before transfer costing was split into
#: quote and apply
GOLDEN = {
    "cache3-16": "963d2f5dfdb8e18088fe6e45165eceee",
    "cache3-8": "cd24eacf8e3ab28adb5a0075aab8e440",
    "corrupt-mpi-16": "0dbf8d246413cb5f96c3ff9a39ec6feb",
    "corrupt-mpi-8": "eab16124a0f3e357455329b975baf9c7",
    "corrupt-opt-16": "aab2336c574e70ef78201712615a728d",
    "corrupt-opt-8": "b5238c2ac223ffc19222df21b12d91de",
    "eager4m-16": "c00425a68c6667dc75a865f8618f0e93",
    "eager4m-8": "8a626843e214d8d175caed690d7a9031",
    "flap-mpi-16": "5d1e4e8516dd396d34607971deef119b",
    "flap-mpi-8": "7d94b6b207867fea2ff4178a0c76454a",
    "flap-opt-16": "e6cbdc19dee8797012779df47404fd6d",
    "flap-opt-8": "b2bdd85f9bf29d76bab025032d85384e",
    "gdr-off-16": "c7acff0201d96b1023601a8381c43f57",
    "gdr-off-8": "a5b92b32eb4b781176f7486b3b09e7c1",
    "gdr-off-reg-16": "5d34c08756ec8543c418464d9e5c1a08",
    "gdr-off-reg-8": "11c0a67372169c6aea95edc5d72a1a5e",
    "leaders-gdr-off-8": "38801edd6e48e62203569db99c113f3a",
    "leaders-gdr-off-reg-8": "4561f447037fe8e1de186956fe39a76e",
    "leaders-mpi-8": "4146319a89b36f3fbfb18cd447e3d8b0",
    "mpi-16": "e2747a9feb6b1de8d94f71928dfc1c1c",
    "mpi-8": "19cb42e41c65730a1aca31874a9a73f3",
    "opt-16": "d9374654c74536015313a7090d9bed66",
    "opt-8": "4729c844cec3df2e2e959179eecb34e9",
    "reg-16": "f04aeee7f98b3b5271d9bcc1a9486d9a",
    "reg-8": "4b09308abd938ec501c46bdb13c64587",
}


@pytest.mark.parametrize("mode", ["exact", "fast"])
@pytest.mark.parametrize("case", sorted(CASES))
def test_transport_state_golden(case, mode):
    config, num_ranks, kw = CASES[case]
    assert run_case(config, num_ranks, mode, **kw) == GOLDEN[case]
