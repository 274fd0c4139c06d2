"""Golden timings of the MPI-only collectives: reduce, gather, scatter and
alltoall.

The comm golden pins allreduce, bcast, allgather, reduce_scatter and
barrier on every backend; these four ops exist only on the MPI world, and
the other suites check only their signs and orderings.  Each case builds
MPI worlds of one size (1, 4, 6, 16 or 64 ranks) on one engine:

* ``fast``: the default analytic engine, ring and node-group closed forms
  attached;
* ``exact``: the walk oracle (:func:`~repro.sim.fastpath.walk_oracle`);
* ``event``: the event-driven engine.

Each case has one root: index 0 or the last rank (``root0``/``rootN``).
The script runs on the default MPI and the MPI-Opt configuration (no
CUDA IPC and no registration cache, then both). It calls reduce, gather
and scatter at the case's root, at sizes that take the eager,
host-staged, CUDA IPC and GDR paths, twice each, so the second call meets
warm registration caches and open IPC pairs. The ``root0`` cases also
run alltoall, which has no root, once per size. The script then repeats
on a sub-communicator whose ranks run in reverse order, with a
default-selected allreduce and a bcast there too: an out-of-order rank
list decides the roots' trees, the pairwise rounds and how ranks group
into nodes.

The digest hashes each timing's op, algorithm, size, rank count, mode and
the ``float.hex`` of its time and segments. After each configuration's
script it also hashes the transport's per-kind bytes and transfers, each
rank's staging seconds, the open CUDA IPC pairs and the
registration-cache statistics.  The digests were recorded before the
collectives became plans priced by one function.
"""

from __future__ import annotations

import hashlib

import pytest

from repro.core import MPI_DEFAULT, MPI_OPT
from repro.hardware import LASSEN, Cluster
from repro.mpi import MpiWorld, WorldSpec
from repro.mpi.collectives import ExecutionMode
from repro.mpi.comm import GpuBuffers
from repro.mpi.transports import TransportKind
from repro.sim import Environment
from repro.sim.fastpath import walk_oracle
from repro.utils.units import KIB, MIB

RANK_COUNTS = (1, 4, 6, 16, 64)
ENGINES = ("fast", "exact", "event")
SCENARIOS = (MPI_DEFAULT, MPI_OPT)

#: 48 KiB rides the eager paths; 1 MiB is host-staged inside a node;
#: 16 MiB + 28 B takes CUDA IPC under MPI-Opt and GDR across nodes
ROOTED_SIZES = (0, 48 * KIB, 1 * MIB, 16 * MIB + 28)
ALLTOALL_SIZES = (0, 4 * KIB, 1 * MIB)


def _hex(value) -> str:
    return value.hex() if isinstance(value, float) else repr(value)


def _timing(timing) -> str:
    segments = " ".join(f"{k}={_hex(v)}" for k, v in timing.segments.items())
    return (
        f"{timing.op}[{timing.algorithm}] n={timing.nbytes} "
        f"p={timing.num_ranks} {timing.mode.value} t={_hex(timing.time)} "
        f"{segments}"
    )


def _buffers(ranks, nbytes, base):
    return GpuBuffers(nbytes, [base + r for r in ranks])


def _state(world) -> list[str]:
    transport = world.transport
    out = [
        f"{kind.value} {transport.stats.bytes_moved[kind]} "
        f"{transport.stats.transfers[kind]}"
        for kind in TransportKind
    ]
    out.append(" ".join(
        f"{r}:{s.hex()}" for r, s in sorted(transport.staged_seconds.items())
    ))
    out.append(repr(sorted(transport._ipc_pairs)))
    out.append(repr(sorted(world.regcache_stats().items())))
    return out


def _script(comm, root_index: int, alltoall_sizes) -> list[str]:
    ranks = comm.ranks
    timings = []
    for s, nbytes in enumerate(ROOTED_SIZES):
        for call in range(2):
            base = 1000 * (s + 1)
            timings.append(comm.reduce(
                _buffers(ranks, nbytes, base), root_index=root_index))
            _, t = comm.gather(
                _buffers(ranks, nbytes, base), root_index=root_index)
            timings.append(t)
            timings.append(comm.scatter(
                None, _buffers(ranks, nbytes, base), root_index=root_index))
    for nbytes in alltoall_sizes:
        timings.append(comm.alltoall(nbytes))
    return [_timing(t) for t in timings]


def run_case(num_ranks: int, engine: str, root: str) -> str:
    lines: list[str] = []
    for scenario in SCENARIOS:
        cluster = Cluster(Environment(), LASSEN, num_nodes=-(-num_ranks // 4))
        spec = WorldSpec(
            num_ranks=num_ranks, policy=scenario.policy, config=scenario.mv2
        )
        mode = ExecutionMode.EVENT if engine == "event" else ExecutionMode.ANALYTIC
        with walk_oracle(engine == "exact"):
            world = MpiWorld(cluster, spec, mode=mode)
        assert (world.coster.fastpath is not None) == (engine == "fast")
        comm = world.communicator()
        root_index = 0 if root == "root0" else num_ranks - 1
        # alltoall has no root: the root0 cases run it
        alltoall_sizes = ALLTOALL_SIZES if root == "root0" else ()
        lines.append(scenario.name)
        lines.extend(_script(comm, root_index, alltoall_sizes))
        if num_ranks > 1:
            reverse = comm.restrict(comm.ranks[::-1])
            lines.extend(_script(reverse, root_index, alltoall_sizes[-1:]))
            ranks = reverse.ranks
            lines.append(_timing(reverse.allreduce(
                _buffers(ranks, 16 * MIB + 28, 7000))))
            lines.append(_timing(reverse.bcast(
                _buffers(ranks, 16 * MIB + 28, 7000), root_index=root_index)))
        lines.extend(_state(world))
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()[:32]


CASES = [
    (n, engine, root)
    for n in RANK_COUNTS
    for engine in ENGINES
    for root in (("root0",) if n == 1 else ("root0", "rootN"))
]

GOLDEN = {
    "event-1-root0": "dab1a943b6bce20157d84857c3b48a60",
    "event-16-root0": "a6a962b26181ec18a70548d94b91bdc4",
    "event-16-rootN": "a21c7f4bede8a363e07b48a756fd9c61",
    "event-4-root0": "b688b74a38fb486d3af569503fd724fa",
    "event-4-rootN": "805568bc73061cfd0615b6cb471b03de",
    "event-6-root0": "16ee2e7f008b2b57b6fa038f15b83452",
    "event-6-rootN": "2fae804e3e9afd911d41a27cc9dac436",
    "event-64-root0": "1ea81be9c6ae75230bbe8f0d5d654814",
    "event-64-rootN": "5d4673cfdc53b9278ed1c49b76a8d761",
    "exact-1-root0": "a9b3a91ca23188bbe9b5e631f2dd2fbf",
    "exact-16-root0": "5ee03d517f3e90771433577230515115",
    "exact-16-rootN": "0896fa815a4416b026604db70303c4ce",
    "exact-4-root0": "0adbfdaf6cf169599bbeb15f8cc9e647",
    "exact-4-rootN": "98e109600d718a8982c50ff31a360e8b",
    "exact-6-root0": "edf305080e22e8de6ae3294522640396",
    "exact-6-rootN": "ec5902911103dc2eacca0d7b5497a4d8",
    "exact-64-root0": "7d70fe41912499fb2c7ae1bc2a2ee3ee",
    "exact-64-rootN": "2bfd2a3abed3b2485e36ed127fb8aabf",
    "fast-1-root0": "a9b3a91ca23188bbe9b5e631f2dd2fbf",
    "fast-16-root0": "5ee03d517f3e90771433577230515115",
    "fast-16-rootN": "0896fa815a4416b026604db70303c4ce",
    "fast-4-root0": "0adbfdaf6cf169599bbeb15f8cc9e647",
    "fast-4-rootN": "98e109600d718a8982c50ff31a360e8b",
    "fast-6-root0": "edf305080e22e8de6ae3294522640396",
    "fast-6-rootN": "ec5902911103dc2eacca0d7b5497a4d8",
    "fast-64-root0": "7d70fe41912499fb2c7ae1bc2a2ee3ee",
    "fast-64-rootN": "2bfd2a3abed3b2485e36ed127fb8aabf",
}


@pytest.mark.parametrize(
    "num_ranks,engine,root", CASES,
    ids=[f"{engine}-{n}-{root}" for n, engine, root in CASES],
)
def test_mpi_only_collectives_golden(num_ranks, engine, root):
    name = f"{engine}-{num_ranks}-{root}"
    assert run_case(num_ranks, engine, root) == GOLDEN[name]
