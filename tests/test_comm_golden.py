"""Golden collectives for every communication backend.

Each case drives one communicator through a fixed script and pins the
SHA-256 of what it reports.  The digests were recorded before the three
backend communicators became one class over worlds that only price
collectives; any change to a timing, a chosen algorithm, an error, the
functional arithmetic, the fault trace or the observer stream shows up as
a digest mismatch.

Cases:

* ``<backend>-<ranks>-<plan>`` for the mpi, nccl and hierarchical
  backends at 1, 4, 6, 16 and 64 ranks under seven fault plans: no
  faults, a slow IB (bandwidth x0.5, +20 us), a slow NVLink (x0.25), a
  flapping fault on every link, a seeded 0.3 drop with a 10 us delay, a
  certain drop on one pair, and a partition of the last node.  The
  script: allreduce from 0 B to 16 MiB under every algorithm name the
  backend accepts, ``None`` and one name it rejects; bcast, allgather,
  reduce_scatter (mpi and hierarchical) and barrier; the validation
  errors; restrict and reform, valid and invalid; real-array arithmetic;
  and the fault trace;
* ``observers-<backend>``: two observers on one communicator, carried
  over by restrict and reform;
* ``table-<backend>`` and ``active-<backend>``: routing through an
  explicit selection table and through the process's active table, kept
  by restrict and reform, and ignored by ``world.communicator()``;
* ``horovod-<backend>-<mode>``: three Horovod steps with a shrink and a
  reform in the exact, fast and event engine modes.

Error classes are pinned; message text only for ``MpiTimeoutError``.

``sum()`` of floats is compensated from Python 3.12 on, so a timing with
segments pins each segment's ``float.hex`` and the test asserts that its
``time`` is the left-to-right total of its segments (``fold_sum``, the
fold the collectives use) instead of hashing ``time``.  Values
that accumulate such times (the NCCL and hierarchical clocks behind the
fault-trace timestamps, Horovod message starts and finishes) are pinned to
12 significant digits, and ``total_comm_time`` is checked in the test
against the left-to-right total of the timings the communicator reported.
"""

from __future__ import annotations

import hashlib

import numpy as np
import pytest

from repro.comm import build_communicator, default_table
from repro.comm.selection import (
    SelectionTable,
    clear_active_tables,
    set_active_table,
)
from repro.core import MPI_OPT
from repro.errors import MpiTimeoutError
from repro.faults import FaultPlan, LinkFault, MessageFault, PartitionFault
from repro.faults.domains import Topology
from repro.faults.injector import FaultInjector
from repro.hardware import LASSEN
from repro.hardware.cluster import build_cluster
from repro.horovod import HorovodConfig, HorovodEngine
from repro.horovod.fusion import PendingTensor
from repro.mpi import WorldSpec
from repro.mpi.collectives import ExecutionMode
from repro.mpi.comm import GpuBuffer
from repro.mpi.datatypes import ReduceOp
from repro.profiling import Hvprof
from repro.sim.fastpath import enable_fastpath
from repro.utils.folds import fold_sum
from repro.utils.units import KIB, MIB

BACKENDS = ("mpi", "nccl", "hierarchical")
RANK_COUNTS = (1, 4, 6, 16, 64)
GPUS_PER_NODE = LASSEN.node.gpus_per_node

#: every allreduce algorithm name each backend accepts, then one it rejects
ACCEPTED = {
    "mpi": ("ring", "recursive_doubling", "reduce_scatter_allgather",
            "hierarchical"),
    "nccl": ("ring", "nccl-ring", "tree", "nccl-tree"),
    "hierarchical": ("hier-2level",),
}
REJECTED = {"mpi": "nccl-ring", "nccl": "hier-2level", "hierarchical": "ring"}

ALLREDUCE_SIZES = (0, 4 * KIB, 48 * KIB, 1 * MIB, 16 * MIB)
BCAST_SIZES = (0, 64 * KIB, 16 * MIB)
ALLGATHER_SIZES = (0, 4 * KIB, 1 * MIB)
SHARD_SIZES = (1 * KIB, 256 * KIB)


def _nodes(num_ranks: int) -> int:
    return -(-num_ranks // GPUS_PER_NODE)


def _plan(name: str, num_ranks: int):
    """(plan, topology) for one named fault plan, or (None, None)."""
    if name == "none":
        return None, None
    if name == "ib-slow":
        fault = LinkFault(kind="ib", bandwidth_factor=0.5, latency_add_s=20e-6)
    elif name == "nvlink-slow":
        fault = LinkFault(kind="nvlink-p2p", bandwidth_factor=0.25)
    elif name == "flap":
        fault = LinkFault(
            bandwidth_factor=0.5, latency_add_s=2e-6, flap_period_s=2e-3
        )
    elif name == "drop-seeded":
        fault = MessageFault(drop_prob=0.3, delay_s=10e-6)
    elif name == "drop-pair":
        fault = MessageFault(src=0, dst=GPUS_PER_NODE, drop_prob=1.0)
    elif name == "partition":
        # a single-node world partitions an empty second node
        nodes = max(_nodes(num_ranks), 2)
        topology = Topology(num_nodes=nodes, gpus_per_node=GPUS_PER_NODE)
        fault = PartitionFault(nodes=(nodes - 1,), start=1e-3)
        return FaultPlan(seed=5, faults=(fault,)), topology
    else:  # pragma: no cover - the PLANS tuple names every plan
        raise KeyError(name)
    return FaultPlan(seed=5, faults=(fault,)), None


PLANS = ("none", "ib-slow", "nvlink-slow", "flap", "drop-seeded",
         "drop-pair", "partition")


def _spec(num_ranks: int) -> WorldSpec:
    return WorldSpec(
        num_ranks=num_ranks, policy=MPI_OPT.policy, config=MPI_OPT.mv2
    )


def _build(backend, num_ranks, *, faults=None, table=None,
           mode=ExecutionMode.ANALYTIC):
    cluster = build_cluster(LASSEN, num_ranks)
    return build_communicator(
        cluster,
        backend,
        world_spec=_spec(num_ranks) if backend == "mpi" else None,
        num_ranks=num_ranks,
        mode=mode,
        faults=faults,
        table=table,
    )


def virtual(nbytes: int, n: int) -> list[GpuBuffer]:
    return [GpuBuffer.virtual(nbytes) for _ in range(n)]


def _hex(value) -> str:
    return value.hex() if isinstance(value, float) else repr(value)


def timing_line(timing) -> str:
    """One timing as text: segments as ``float.hex``, else the time."""
    if timing.segments:
        assert timing.time == fold_sum(timing.segments.values())
        body = " ".join(f"{k}={_hex(v)}" for k, v in timing.segments.items())
    else:
        body = f"t={_hex(timing.time)}"
    return (
        f"{timing.op}[{timing.algorithm}] n={timing.nbytes} "
        f"p={timing.num_ranks} {timing.mode.value} {body}"
    )


class Script:
    """Runs operations, writes one line per result or error, and keeps
    each communicator's timings to check its ``total_comm_time``.

    Timings are keyed by the communicator itself, which keeps it alive
    for the life of the script: keyed by ``id()``, a communicator built
    after another was freed could reuse its id and inherit its timings.
    """

    def __init__(self):
        self.lines: list[str] = []
        self.issued: dict[object, list[float]] = {}

    def op(self, label: str, comm, fn):
        try:
            result = fn()
        except Exception as exc:
            text = f" {exc}" if isinstance(exc, MpiTimeoutError) else ""
            self.lines.append(f"{label} !{type(exc).__name__}{text}")
            return None
        timing = result[1] if isinstance(result, tuple) else result
        self.issued.setdefault(comm, []).append(timing.time)
        self.lines.append(f"{label} {timing_line(timing)}")
        if isinstance(result, tuple):
            self.lines.append(f"{label} data={_arrays(result[0])}")
        return result

    def op_comm(self, label: str, fn):
        """Like :meth:`op` for restrict and reform."""
        try:
            sub = fn()
        except Exception as exc:
            self.lines.append(f"{label} !{type(exc).__name__}")
            return None
        self.lines.append(f"{label} ranks={list(sub.ranks)} size={sub.size}")
        return sub

    def close(self, label: str, comm) -> None:
        total = 0.0
        for t in self.issued.get(comm, []):
            total += t
        assert comm.total_comm_time == total
        self.lines.append(f"{label} ops={comm.op_count} size={comm.size}")

    def digest(self) -> str:
        return hashlib.sha256("\n".join(self.lines).encode()).hexdigest()


def _arrays(arrays) -> str:
    if arrays is None:
        return "None"
    h = hashlib.sha256()
    for a in arrays:
        h.update(f"{a.dtype}{a.shape}".encode())
        h.update(np.ascontiguousarray(a).tobytes())
    return h.hexdigest()[:16]


def _trace_lines(faults) -> list[str]:
    return [
        f"trace {e.kind} {e.rank} {e.src} {e.dst} {e.detail!r} {e.time:.12e}"
        for e in faults.trace
    ]


def _rank_arrays(n: int, elems: int, scale: float = 1.0):
    return [
        (np.arange(elems, dtype=np.float32) - 3.5) * (r + 1) * scale
        for r in range(n)
    ]


# -- the per-backend script --------------------------------------------------

def _collectives(s: Script, comm, backend: str, n: int) -> None:
    for nbytes in ALLREDUCE_SIZES:
        for algo in ACCEPTED[backend] + (None, REJECTED[backend]):
            s.op(f"allreduce {nbytes} {algo}", comm,
                 lambda: comm.allreduce(virtual(nbytes, n), algorithm=algo))
    for nbytes in BCAST_SIZES:
        for root in sorted({0, n - 1}):
            s.op(f"bcast {nbytes} root={root}", comm,
                 lambda: comm.bcast(virtual(nbytes, n), root_index=root))
    for nbytes in ALLGATHER_SIZES:
        s.op(f"allgather {nbytes}", comm,
             lambda: comm.allgather(virtual(nbytes, n)))
    if backend != "nccl":
        for shard in (0,) + SHARD_SIZES:
            s.op(f"reduce_scatter {shard}", comm,
                 lambda: comm.reduce_scatter(virtual(n * shard, n)))
    s.op("barrier", comm, lambda: comm.barrier())


def _validation(s: Script, comm, backend: str, n: int) -> None:
    s.op("allreduce count", comm,
         lambda: comm.allreduce(virtual(KIB, n + 1)))
    s.op("bcast count", comm, lambda: comm.bcast(virtual(KIB, n + 1)))
    s.op("allgather count", comm,
         lambda: comm.allgather(virtual(KIB, n + 1)))
    if n > 1:
        mixed = virtual(KIB, n - 1) + [GpuBuffer.virtual(2 * KIB)]
        s.op("allreduce sizes", comm, lambda: comm.allreduce(mixed))
        s.op("bcast sizes", comm, lambda: comm.bcast(mixed))
    if backend != "nccl":
        s.op("reduce_scatter count", comm,
             lambda: comm.reduce_scatter(virtual(n * KIB, n + 1)))
        s.op("reduce_scatter indivisible", comm,
             lambda: comm.reduce_scatter(virtual(n * KIB + 1, n)))


def _elasticity(s: Script, comm, n: int) -> None:
    keep = comm.ranks[:-1] or comm.ranks
    sub = s.op_comm("restrict", lambda: comm.restrict(keep))
    if sub is not None:
        s.op("sub allreduce", sub,
             lambda: sub.allreduce(virtual(1 * MIB, sub.size)))
        s.op("sub bcast", sub, lambda: sub.bcast(virtual(64 * KIB, sub.size)))
        back = s.op_comm("reform", lambda: sub.reform(list(range(n))))
        if back is not None:
            s.op("back allreduce", back,
                 lambda: back.allreduce(virtual(1 * MIB, back.size)))
            s.close("back", back)
        s.close("sub", sub)
    s.op_comm("restrict foreign", lambda: comm.restrict([n]))
    s.op_comm("restrict empty", lambda: comm.restrict([]))
    s.op_comm("reform outside", lambda: comm.reform([n]))
    s.op_comm("reform negative", lambda: comm.reform([-1]))
    s.op_comm("reform empty", lambda: comm.reform([]))


def _arithmetic(s: Script, comm, backend: str, n: int) -> None:
    elems = 6 * n

    def run(label, fn, arrays):
        s.op(label, comm, fn)
        s.lines.append(f"{label} data={_arrays(arrays)}")

    a = _rank_arrays(n, elems)
    run("fn allreduce sum", lambda: comm.allreduce(
        [GpuBuffer.from_array(x) for x in a]), a)
    a = _rank_arrays(n, elems, 0.25)
    run("fn allreduce avg", lambda: comm.allreduce(
        [GpuBuffer.from_array(x) for x in a], average=True), a)
    a = _rank_arrays(n, elems)
    run("fn allreduce max", lambda: comm.allreduce(
        [GpuBuffer.from_array(x) for x in a], ReduceOp.MAX), a)
    a = _rank_arrays(n, elems)
    run("fn bcast", lambda: comm.bcast(
        [GpuBuffer.from_array(x) for x in a], root_index=n - 1), a)
    a = _rank_arrays(n, elems)
    s.op("fn allgather", comm,
         lambda: comm.allgather([GpuBuffer.from_array(x) for x in a]))
    if backend != "nccl":
        a = _rank_arrays(n, elems)
        s.op("fn reduce_scatter", comm, lambda: comm.reduce_scatter(
            [GpuBuffer.from_array(x) for x in a]))
    a = _rank_arrays(n, elems)
    s.op("fn avg max", comm, lambda: comm.allreduce(
        [GpuBuffer.from_array(x) for x in a], ReduceOp.MAX, average=True))
    if n > 1:
        mixed = [GpuBuffer.from_array(x) for x in _rank_arrays(n - 1, elems)]
        mixed.append(GpuBuffer.virtual(elems * 4))
        s.op("fn mixed", comm, lambda: comm.allreduce(mixed))


def run_backend_case(backend: str, n: int, plan_name: str) -> str:
    plan, topology = _plan(plan_name, n)
    faults = None
    if plan is not None:
        faults = FaultInjector(plan, topology=topology)
    _world, comm = _build(backend, n, faults=faults)
    s = Script()
    _collectives(s, comm, backend, n)
    _validation(s, comm, backend, n)
    _elasticity(s, comm, n)
    _arithmetic(s, comm, backend, n)
    s.close("comm", comm)
    if faults is not None:
        s.lines.extend(_trace_lines(faults))
    return s.digest()


# -- observers, tables, Horovod ----------------------------------------------

def run_observer_case(backend: str) -> str:
    n = 8
    _world, comm = _build(backend, n)
    seen = []
    hv = Hvprof()
    comm.add_observer(lambda timing, name: seen.append((name, timing)))
    comm.add_observer(hv.observer)
    s = Script()
    s.op("allreduce", comm, lambda: comm.allreduce(virtual(1 * MIB, n)))
    sub = comm.restrict([0, 1, 2, 5, 6])
    s.op("sub allreduce", sub, lambda: sub.allreduce(virtual(1 * MIB, 5)))
    s.op("sub barrier", sub, lambda: sub.barrier())
    back = sub.reform(list(range(n)))
    s.op("back bcast", back, lambda: back.bcast(virtual(64 * KIB, n)))
    s.op("allgather", comm, lambda: comm.allgather(virtual(4 * KIB, n)))
    assert len(seen) == len(hv.records) == 5
    for (name, timing), record in zip(seen, hv.records):
        assert record.time == timing.time
        s.lines.append(
            f"observed {name} {timing_line(timing)} | {record.op} "
            f"{record.backend} {record.algorithm} {record.nbytes} "
            f"{record.num_ranks} {sorted(record.segments)}"
        )
    for label, c in (("comm", comm), ("sub", sub), ("back", back)):
        s.close(label, c)
    return s.digest()


TABLES = {
    "mpi": SelectionTable(
        backend="mpi", byte_edges=(32 * KIB,), rank_edges=(8,),
        algorithms=(("ring", "recursive_doubling"),
                    ("reduce_scatter_allgather", "hierarchical")),
        source="tuned",
    ),
    "nccl": SelectionTable(
        backend="nccl", byte_edges=(64 * KIB,), rank_edges=(),
        algorithms=(("nccl-tree",), ("nccl-ring",)), source="tuned",
    ),
    "hierarchical": default_table("hierarchical"),
}


def _routed_script(s: Script, comm, world, backend: str) -> None:
    for nbytes in (4 * KIB, 1 * MIB, 16 * MIB):
        s.op(f"comm {nbytes}", comm,
             lambda: comm.allreduce(virtual(nbytes, comm.size)))
    s.op("explicit", comm, lambda: comm.allreduce(
        virtual(1 * MIB, comm.size), algorithm=ACCEPTED[backend][-1]))
    sub = comm.restrict(comm.ranks[:-3])
    back = sub.reform(comm.ranks)
    for label, c in (("sub", sub), ("back", back)):
        for nbytes in (4 * KIB, 16 * MIB):
            s.op(f"{label} {nbytes}", c,
                 lambda: c.allreduce(virtual(nbytes, c.size)))
    raw = world.communicator()
    for nbytes in (4 * KIB, 16 * MIB):
        s.op(f"raw {nbytes}", raw,
             lambda: raw.allreduce(virtual(nbytes, raw.size)))
    for label, c in (("comm", comm), ("sub", sub), ("back", back),
                     ("raw", raw)):
        s.close(label, c)


def run_table_case(backend: str, active: bool) -> str:
    s = Script()
    for n in (6, 16):
        s.lines.append(f"ranks {n}")
        if active:
            set_active_table(TABLES[backend])
            world, comm = _build(backend, n)
        else:
            world, comm = _build(backend, n, table=TABLES[backend])
        _routed_script(s, comm, world, backend)
        clear_active_tables()
    return s.digest()


def _gradients() -> list[PendingTensor]:
    return [
        PendingTensor(name=f"grad{i}", nbytes=(i + 1) * 384 * KIB,
                      ready_time=i * 0.7e-3)
        for i in range(7)
    ]


def run_horovod_case(backend: str, mode: str) -> str:
    n = 8
    execution = ExecutionMode.EVENT if mode == "event" else ExecutionMode.ANALYTIC
    world, comm = _build(backend, n, mode=execution)
    if mode == "fast":
        enable_fastpath(world)
    seen = []
    comm.add_observer(lambda timing, name: seen.append(timing))
    engine = HorovodEngine(comm, HorovodConfig(cycle_time_s=1e-3))
    s = Script()
    steps = []
    for label, change in (("full", None), ("shrunk", "shrink"),
                          ("reformed", "reform")):
        if change == "shrink":
            engine.shrink_to([0, 1, 2, 3, 4, 6, 7])
        elif change == "reform":
            engine.reform_to(list(range(n)))
        first = len(seen)
        step = engine.run_step(_gradients(), backward_time=5e-3)
        steps.append(step)
        timings = seen[first:]
        assert len(timings) == len(step.messages)
        s.lines.append(
            f"{label} size={engine.num_ranks} cycles={step.cycles_used} "
            f"coord={_hex(step.coordination_time)} "
            f"finish={step.comm_finish:.12e}"
        )
        for m, timing in zip(step.messages, timings):
            assert m.finish == m.start + timing.time
            s.lines.append(
                f"  {m.nbytes} x{m.fused_count} {m.algorithm} "
                f"{m.start:.12e} {m.finish:.12e} {timing_line(timing)}"
            )
    s.lines.append(f"ops={engine.comm.op_count}")
    return s.digest()


CASES = {}
for _b in BACKENDS:
    for _n in RANK_COUNTS:
        for _p in PLANS:
            CASES[f"{_b}-{_n}-{_p}"] = (run_backend_case, (_b, _n, _p))
for _b in BACKENDS:
    CASES[f"observers-{_b}"] = (run_observer_case, (_b,))
    CASES[f"table-{_b}"] = (run_table_case, (_b, False))
    CASES[f"active-{_b}"] = (run_table_case, (_b, True))
    for _m in ("exact", "fast", "event"):
        CASES[f"horovod-{_b}-{_m}"] = (run_horovod_case, (_b, _m))


def case_digest(name: str) -> str:
    fn, args = CASES[name]
    return fn(*args)


GOLDEN = {
    "active-hierarchical":
        "acbc15c18b4c8c2ba4858f7cd5542226fe76bc56f26d1e850d9e41c4b9e60dd4",
    "active-mpi":
        "d95d5c1aff33e63ef8b833f6d141acb8f60d1ffbfabcad64de8ca5b938eed08f",
    "active-nccl":
        "1c2246e046e808982292d3664a2969a799ee8e39e8caa96d6ce898634a4424b9",
    "hierarchical-1-drop-pair":
        "0f79539f166c3b0533093502a8ec85437c93d13d8f41fe32f63d397e224de1bf",
    "hierarchical-1-drop-seeded":
        "0f79539f166c3b0533093502a8ec85437c93d13d8f41fe32f63d397e224de1bf",
    "hierarchical-1-flap":
        "f0b5063f2f4f82ad83a47e844e243a6bb13d5f7c7bee8f7dd1326631b90a8355",
    "hierarchical-1-ib-slow":
        "7314089d1b86ba3899dfb55d55fb3e3d868507c4b126292d297756607e8c44ce",
    "hierarchical-1-none":
        "0f79539f166c3b0533093502a8ec85437c93d13d8f41fe32f63d397e224de1bf",
    "hierarchical-1-nvlink-slow":
        "feff05b37515e8236864261f5d57ff6ff90410f3ecaa2294ef67c202df19ed0d",
    "hierarchical-1-partition":
        "0f79539f166c3b0533093502a8ec85437c93d13d8f41fe32f63d397e224de1bf",
    "hierarchical-16-drop-pair":
        "120e3a6ea87889588120553470d62d4e6520d1346fbd66e1271bf78e09dd24ec",
    "hierarchical-16-drop-seeded":
        "620677050411414b54e8ac49ade7944dd8a8195b9d5b0924ceed057951819446",
    "hierarchical-16-flap":
        "1b59d6a37b5717d3c0741ceda88087a753f4987225df7342ca2c8106e628b110",
    "hierarchical-16-ib-slow":
        "6868f7aae331d8f15b30158099997ea223ae6b994c1dfc1e1ab97f1e7c6d447a",
    "hierarchical-16-none":
        "27c28fbce667c410c0e42f0f87e794a7065afdb821817123285850b460b5a871",
    "hierarchical-16-nvlink-slow":
        "4ea2d96d0425604a50295de89cdda094e4edbc1875bbc65614bb3cb62c1000a6",
    "hierarchical-16-partition":
        "9dd48ddcf91d1f098a5c6c2db4568c5841595847ef2d6509266885bdc244eafc",
    "hierarchical-4-drop-pair":
        "2a16194c52b1f5950f9ddc9fad5e4afe5972399728b38c957f17709c25906a9d",
    "hierarchical-4-drop-seeded":
        "2a16194c52b1f5950f9ddc9fad5e4afe5972399728b38c957f17709c25906a9d",
    "hierarchical-4-flap":
        "eada1832bb120d536172d588d0c3038d844bae39c40c6c9a3b3ef154a73d3384",
    "hierarchical-4-ib-slow":
        "8a731da2912247f5a9cd2d8b4234ea8d4761577efd3c227fcd74d3a20b30ddba",
    "hierarchical-4-none":
        "2a16194c52b1f5950f9ddc9fad5e4afe5972399728b38c957f17709c25906a9d",
    "hierarchical-4-nvlink-slow":
        "b752306648b2a1470318a1f75ed2b90d9c610a60e2fc78b0675dc3d58769093f",
    "hierarchical-4-partition":
        "2a16194c52b1f5950f9ddc9fad5e4afe5972399728b38c957f17709c25906a9d",
    "hierarchical-6-drop-pair":
        "c7d8640c2515ca405a0c464d83bd5875f80d23adaebd875117bc9d863650de5a",
    "hierarchical-6-drop-seeded":
        "8fef2df1e44846e8c879efded29c3543be393f180001a1c3173d95fbee38987f",
    "hierarchical-6-flap":
        "2060c5994b23f4e123ec58e01d554bf28244a21a48b2e03062ea4e56443cac6e",
    "hierarchical-6-ib-slow":
        "a8f80ca586d7152f239e288b367642f2e183023c4c9621a9db5060346007c252",
    "hierarchical-6-none":
        "2250f09c9b88730d802cc25b4dc419b4d6256b5fe12ff8531c09a72acb804209",
    "hierarchical-6-nvlink-slow":
        "7b0f93a2aa69ca6fe97f5ffde98f274909f6d8a2725da1be64d2a409729ab89a",
    "hierarchical-6-partition":
        "da6565309a4fa0e4f566523155027a3ac117879e45d95ca6ff601d131dbd0f0e",
    "hierarchical-64-drop-pair":
        "f1e6b5abd10545680e0af5315097572439af798836f2da84debe6c3bf413fad5",
    "hierarchical-64-drop-seeded":
        "b16f7c2b9bb4e76a0ae0a83225e3af8dd7f566218ec4a2b1c120c68636fed893",
    "hierarchical-64-flap":
        "27b89949babfaab2694afab47e24f3fa29c8059a90e68acc8e64142f9549882c",
    "hierarchical-64-ib-slow":
        "0d7c25f8fd355d42886904e0e32e9af9610b6fb590837f61a4fe62e28745f0dc",
    "hierarchical-64-none":
        "6b8e64ebd80453d3ef7b3169680306ad455ecf61be689c0c3865283ff59589ec",
    "hierarchical-64-nvlink-slow":
        "812c83c342b2171e2eb94b89b0f3ae89a752b3830dc464700e923310b9af33de",
    "hierarchical-64-partition":
        "a0abc0ab7484efcb22866d8b7e1e21241faf281bd53051b2049a608e6a385e53",
    "horovod-hierarchical-event":
        "f44413eac685b5e4b6d466a5ff9feda7591a06c119ad258c7750e197e4648e52",
    "horovod-hierarchical-exact":
        "f44413eac685b5e4b6d466a5ff9feda7591a06c119ad258c7750e197e4648e52",
    "horovod-hierarchical-fast":
        "f44413eac685b5e4b6d466a5ff9feda7591a06c119ad258c7750e197e4648e52",
    "horovod-mpi-event":
        "b0c3332fcf2e42112656baf884b85fb240f4388b864b029aadc4fb1a66937a34",
    "horovod-mpi-exact":
        "4cf155d301895830fbed6cf83b2ac14f7a37ba246657b7c588c6fa8036b97c67",
    "horovod-mpi-fast":
        "4cf155d301895830fbed6cf83b2ac14f7a37ba246657b7c588c6fa8036b97c67",
    "horovod-nccl-event":
        "a4b97c91270751356587b4eb91e6e2992ad7c9fe0aa6f47a093349870fb58e2c",
    "horovod-nccl-exact":
        "a4b97c91270751356587b4eb91e6e2992ad7c9fe0aa6f47a093349870fb58e2c",
    "horovod-nccl-fast":
        "a4b97c91270751356587b4eb91e6e2992ad7c9fe0aa6f47a093349870fb58e2c",
    "mpi-1-drop-pair":
        "de4df014df851753aa5ce94f27490f4ed332f96f7843f60d01e4bd64f210e1d4",
    "mpi-1-drop-seeded":
        "de4df014df851753aa5ce94f27490f4ed332f96f7843f60d01e4bd64f210e1d4",
    "mpi-1-flap":
        "de4df014df851753aa5ce94f27490f4ed332f96f7843f60d01e4bd64f210e1d4",
    "mpi-1-ib-slow":
        "de4df014df851753aa5ce94f27490f4ed332f96f7843f60d01e4bd64f210e1d4",
    "mpi-1-none":
        "de4df014df851753aa5ce94f27490f4ed332f96f7843f60d01e4bd64f210e1d4",
    "mpi-1-nvlink-slow":
        "de4df014df851753aa5ce94f27490f4ed332f96f7843f60d01e4bd64f210e1d4",
    "mpi-1-partition":
        "de4df014df851753aa5ce94f27490f4ed332f96f7843f60d01e4bd64f210e1d4",
    "mpi-16-drop-pair":
        "16e7a960e93db14ab20fbcad43979146ffd816783f72989ee3935652997603df",
    "mpi-16-drop-seeded":
        "16e7a960e93db14ab20fbcad43979146ffd816783f72989ee3935652997603df",
    "mpi-16-flap":
        "16efc83d335360c5c397dbe3282949354161d5d46df0f17eea80f21c43b500f1",
    "mpi-16-ib-slow":
        "46be4092a0d795d3ebf58076b5fb03fd30a24d33d190841f04270517d09b2022",
    "mpi-16-none":
        "16e7a960e93db14ab20fbcad43979146ffd816783f72989ee3935652997603df",
    "mpi-16-nvlink-slow":
        "31584398c66505055fe88002fdbb2e674b1122ed20b8c97b1aa06948a71de072",
    "mpi-16-partition":
        "16e7a960e93db14ab20fbcad43979146ffd816783f72989ee3935652997603df",
    "mpi-4-drop-pair":
        "ba93f0e6e7d6e2407db27ed89f1b6e448572487ad897946fc80e02b9c4add394",
    "mpi-4-drop-seeded":
        "ba93f0e6e7d6e2407db27ed89f1b6e448572487ad897946fc80e02b9c4add394",
    "mpi-4-flap":
        "df84d791609a9e810860a8e6aca6d857bd61240729b5cc03c0065c4a33f00442",
    "mpi-4-ib-slow":
        "ba93f0e6e7d6e2407db27ed89f1b6e448572487ad897946fc80e02b9c4add394",
    "mpi-4-none":
        "ba93f0e6e7d6e2407db27ed89f1b6e448572487ad897946fc80e02b9c4add394",
    "mpi-4-nvlink-slow":
        "2de0dee768d275cf26d358ae242148d57c257e38537479a4c480b8e36e784b37",
    "mpi-4-partition":
        "ba93f0e6e7d6e2407db27ed89f1b6e448572487ad897946fc80e02b9c4add394",
    "mpi-6-drop-pair":
        "18294bed4cf100519ae435e4c188ddc97a3b77a67f4c46190cd0a89d3ab135f0",
    "mpi-6-drop-seeded":
        "18294bed4cf100519ae435e4c188ddc97a3b77a67f4c46190cd0a89d3ab135f0",
    "mpi-6-flap":
        "9fcaaea78bde1b5c324978ad629990fe1212dd8a90ccbf13474e6a503a4cc5f6",
    "mpi-6-ib-slow":
        "24657245036c61d918b9a14e79a497daccd126a5b612a78614a618d0538ddf57",
    "mpi-6-none":
        "18294bed4cf100519ae435e4c188ddc97a3b77a67f4c46190cd0a89d3ab135f0",
    "mpi-6-nvlink-slow":
        "cc75975ea0d0e40bb69a8e140027b0489c1c7f19516b985861351c57429eadac",
    "mpi-6-partition":
        "18294bed4cf100519ae435e4c188ddc97a3b77a67f4c46190cd0a89d3ab135f0",
    "mpi-64-drop-pair":
        "dbd39e2b091398ba4652afdc605d4de980a6ac431455fb4b3061993b471a5f68",
    "mpi-64-drop-seeded":
        "dbd39e2b091398ba4652afdc605d4de980a6ac431455fb4b3061993b471a5f68",
    "mpi-64-flap":
        "2ace9c09458eb39d68a58ab540811edebd879e7e26fa1810f46a0245b9393d8c",
    "mpi-64-ib-slow":
        "c304d64d950cf7c649261ec876482265ce935f13ae077aa325fdd8f33b9ee663",
    "mpi-64-none":
        "dbd39e2b091398ba4652afdc605d4de980a6ac431455fb4b3061993b471a5f68",
    "mpi-64-nvlink-slow":
        "e90ad3eab37737f5b497a20cff3cafde1340e886e6de11eff8d058cdb738cbb8",
    "mpi-64-partition":
        "dbd39e2b091398ba4652afdc605d4de980a6ac431455fb4b3061993b471a5f68",
    "nccl-1-drop-pair":
        "91841368f0034a74077c4a3389a003da84e4e9291e4c04e19dee76f6627abceb",
    "nccl-1-drop-seeded":
        "91841368f0034a74077c4a3389a003da84e4e9291e4c04e19dee76f6627abceb",
    "nccl-1-flap":
        "91841368f0034a74077c4a3389a003da84e4e9291e4c04e19dee76f6627abceb",
    "nccl-1-ib-slow":
        "91841368f0034a74077c4a3389a003da84e4e9291e4c04e19dee76f6627abceb",
    "nccl-1-none":
        "91841368f0034a74077c4a3389a003da84e4e9291e4c04e19dee76f6627abceb",
    "nccl-1-nvlink-slow":
        "91841368f0034a74077c4a3389a003da84e4e9291e4c04e19dee76f6627abceb",
    "nccl-1-partition":
        "91841368f0034a74077c4a3389a003da84e4e9291e4c04e19dee76f6627abceb",
    "nccl-16-drop-pair":
        "08d56b3ea0e896d1185834b6c8e796153aa7b57495b81b42f6b48a14ddd26a3b",
    "nccl-16-drop-seeded":
        "c7eaece91bcd283658d32b44ca69d9085bf774308f19a8d40d60ba9124632848",
    "nccl-16-flap":
        "308c710df9f0971e5c84855e84cb8e021c81f6ead2a9ac2d5a148522c6377f16",
    "nccl-16-ib-slow":
        "7650f831b78b593560585991cc32246eff30071198a2d9e893846229046d5b71",
    "nccl-16-none":
        "08d56b3ea0e896d1185834b6c8e796153aa7b57495b81b42f6b48a14ddd26a3b",
    "nccl-16-nvlink-slow":
        "6766c3dc0111df680855ee1aeae2712ef783198bfb0e965729ab8fac31b513c0",
    "nccl-16-partition":
        "497e38c4abc1969a8a6956dc2ffa9561ea20f50c27c3623614ed6c7a198284b9",
    "nccl-4-drop-pair":
        "6dd520259dc61391181bec639dbc409bf2533b2316f22dc77efcdbaf0e8a3022",
    "nccl-4-drop-seeded":
        "6dd520259dc61391181bec639dbc409bf2533b2316f22dc77efcdbaf0e8a3022",
    "nccl-4-flap":
        "019f1bda18e72111f6a38879210d45ea338bc8b34cff334b24ba672cd3222123",
    "nccl-4-ib-slow":
        "846cac72076e2e5a006023c21ad544742f2d67472e5b11a12f651631c2c248c9",
    "nccl-4-none":
        "6dd520259dc61391181bec639dbc409bf2533b2316f22dc77efcdbaf0e8a3022",
    "nccl-4-nvlink-slow":
        "ae63b49f915886c670fc9f6f7203bd925b13a98adf36bf26e98209bf9e101a9f",
    "nccl-4-partition":
        "6dd520259dc61391181bec639dbc409bf2533b2316f22dc77efcdbaf0e8a3022",
    "nccl-6-drop-pair":
        "de7a9e1ce98de06622401710011e8d056f77aac09ca6c077e86f8419abbfa0a7",
    "nccl-6-drop-seeded":
        "e46edde21ed8114dfb49ed62ebeccdf686e637a45d1c515915f37f65781726ab",
    "nccl-6-flap":
        "aae4db703ebd0fd77b764aacf9ad0a267ed7f929df6098ccf1e9d7509a1a098e",
    "nccl-6-ib-slow":
        "369c0d1dfd2a6705d30da56fb6e42cfd50449d39bd5b3dc35d07656cbb8816f7",
    "nccl-6-none":
        "de7a9e1ce98de06622401710011e8d056f77aac09ca6c077e86f8419abbfa0a7",
    "nccl-6-nvlink-slow":
        "396ca1061442f97f1d2c9452325143694f02fa7ec2cf3153d082ea69e04bcb60",
    "nccl-6-partition":
        "dea33194386aacf60b7e3bc0d0123b00cfea46a6c9a6e74c399d9d1056206e52",
    "nccl-64-drop-pair":
        "dfde97ce665de2398256f1d3e108cf89dc372cb8817852e58751e90b38abbcb0",
    "nccl-64-drop-seeded":
        "9aca01918a713c734f090b41e8ab047eb3eb43f469eb64ba036e9883c125e9d6",
    "nccl-64-flap":
        "aaad93c974f6b63d4ad2acc56b04353e8ebc481d65f711c2c0d2a421d5d5b880",
    "nccl-64-ib-slow":
        "49b455e671128ecc6340d131f1574e2cced8e9bc785b6f8a1d7387ecee61200b",
    "nccl-64-none":
        "dfde97ce665de2398256f1d3e108cf89dc372cb8817852e58751e90b38abbcb0",
    "nccl-64-nvlink-slow":
        "0914810d2f4e0ca322122a43132858ec39392430203fb40610d87fd5347f16d6",
    "nccl-64-partition":
        "96245200084a8f16872de06358a9ba7e7db14e327bd04e65bf3211cf1e1dea32",
    "observers-hierarchical":
        "8dc17fcf5b22396e91241116454f0aa6282e736d784a1053225a477c1d54a3ad",
    "observers-mpi":
        "50caf9ff9abd3a82ad09ec171f2e13e448dda0b7a1bfe342368d7c20e6659148",
    "observers-nccl":
        "a9f1ff2a300580a65e05e6c0a9ae652ca239e2c6f5f2a12a83c208508f08f70c",
    "table-hierarchical":
        "acbc15c18b4c8c2ba4858f7cd5542226fe76bc56f26d1e850d9e41c4b9e60dd4",
    "table-mpi":
        "d95d5c1aff33e63ef8b833f6d141acb8f60d1ffbfabcad64de8ca5b938eed08f",
    "table-nccl":
        "1c2246e046e808982292d3664a2969a799ee8e39e8caa96d6ce898634a4424b9",
}


@pytest.fixture(autouse=True)
def _no_active_tables():
    clear_active_tables()
    yield
    clear_active_tables()


@pytest.mark.parametrize("name", sorted(CASES))
def test_golden_collectives(name):
    assert case_digest(name) == GOLDEN[name]


def test_golden_covers_every_case():
    assert set(GOLDEN) == set(CASES)
