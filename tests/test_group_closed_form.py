"""The node-group closed form against the per-group schedules and the walk.

``GroupSchedule`` replaces the merged per-group step lists the
hierarchical allreduce and the hierarchical bcast used to build.  The
builders below are those lists, kept as the reference: the schedule must
materialize the same steps, transfer for transfer.

The default engine prices a node-group step from one representative
group per shape (``FastPathSession.group_time``).  It must leave every
timing and every piece of protocol state bit-identical to the walk oracle
(``walk_oracle``), and it must walk, collapsing no group, wherever its
preconditions fail: a partially opened CUDA IPC state, a live
wire-corruption window and a ``LinkFault``.  A check passed with every
compared CUDA IPC pair open is kept per node groups and step; one that
saw a closed pair is not, a shrunk communicator checks its own groups,
and a ``LinkFault`` walks past kept verdicts.  The check reads each
pair's price row and IPC verdict per local pair: it must agree with a
check over fresh ``PairGeometry`` rows, also where same-size groups hold
different local ranks.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.faults import CorruptionFault, FaultPlan, LinkFault
from repro.faults.injector import FaultInjector
from repro.hardware import LASSEN, Cluster
from repro.mpi import Mv2Config, MpiWorld, WorldSpec
from repro.mpi.collectives.allreduce import (
    _binomial_bcast_tree,
    _binomial_reduce_tree,
)
from repro.mpi.collectives.base import GroupSchedule, PairTransfer
from repro.mpi.collectives.bcast import _binomial_tree
from repro.mpi.comm import GpuBuffers
from repro.mpi.process import SingletonDevicePolicy
from repro.mpi.transports import PairGeometry, TransportKind
from repro.sim import Environment
from repro.sim.fastpath import FastPathSession, walk_oracle
from repro.utils.units import KIB, MIB

MPI = Mv2Config(registration_cache=False)
MPI_OPT = Mv2Config(registration_cache=True, mv2_visible_devices="all")
# CUDA IPC only between local ranks 0 and 1: verdicts differ by local pair
MPI_HALF = Mv2Config(registration_cache=True, mv2_visible_devices="0,1")
CORRUPT = FaultPlan(seed=0, faults=(CorruptionFault(target="wire", prob=0.02),))
FLAP = FaultPlan(
    seed=0,
    faults=(
        LinkFault(bandwidth_factor=0.5, latency_add_s=2e-6, flap_period_s=1.0),
    ),
)


# -- the reference: the merged per-group step lists ---------------------------
def reference_hierarchical(groups, nbytes):
    """The allreduce's merged intra-node (reduce, bcast) step lists."""
    def reduce_steps(group):
        g = len(group)
        steps = []
        distance = 1
        while distance < g:
            transfers = []
            for i in range(0, g, 2 * distance):
                j = i + distance
                if j < g:
                    transfers.append(PairTransfer(group[j], group[i], nbytes))
            steps.append(transfers)
            distance *= 2
        return steps

    def bcast_steps(steps):
        return [
            [PairTransfer(t.dst, t.src, t.nbytes) for t in step]
            for step in reversed(steps)
        ]

    def merge(per_group):
        merged_steps = []
        for depth in range(max((len(s) for s in per_group), default=0)):
            merged = []
            for steps in per_group:
                if depth < len(steps):
                    merged.extend(steps[depth])
            if merged:
                merged_steps.append(merged)
        return merged_steps

    reduce_per_group = [reduce_steps(g) for g in groups]
    return (merge(reduce_per_group),
            merge([bcast_steps(s) for s in reduce_per_group]))


def reference_bcast(groups, nbytes):
    """The bcast's merged intra-node binomial dissemination steps."""
    def order(group):
        g = len(group)
        steps = []
        have = 1
        while have < g:
            steps.append([PairTransfer(group[i], group[have + i], 0)
                          for i in range(min(have, g - have))])
            have *= 2
        return steps

    per_node = [order(group) for group in groups if len(group) > 1]
    intra = []
    for d in range(max((len(s) for s in per_node), default=0)):
        merged = []
        for schedule in per_node:
            if d < len(schedule):
                merged.extend(
                    PairTransfer(t.src, t.dst, nbytes) for t in schedule[d]
                )
        if merged:
            intra.append(merged)
    return intra


def check_materializes(groups, nbytes):
    want_reduce, want_bcast = reference_hierarchical(groups, nbytes)
    cases = [
        (GroupSchedule(groups, _binomial_reduce_tree, nbytes), want_reduce),
        (GroupSchedule(groups, _binomial_bcast_tree, nbytes), want_bcast),
        (GroupSchedule(groups, _binomial_tree, nbytes),
         reference_bcast(groups, nbytes)),
    ]
    for sched, want in cases:
        assert len(sched) == len(want)
        assert [sched.step(d) for d in range(len(sched))] == want
        assert list(sched) == want


def node_groups(sizes, start=0):
    groups = []
    for size in sizes:
        groups.append(list(range(start, start + size)))
        start += size
    return groups


@pytest.mark.parametrize("ragged", [False, True])
def test_materializes_the_merged_steps_exhaustively(ragged):
    """Group sizes 1-8 on 1-4 nodes, uniform or with a ragged last node."""
    for g in range(1, 9):
        for nodes in range(1, 5):
            layouts = (
                [[g] * (nodes - 1) + [r] for r in range(1, g)] if ragged
                else [[g] * nodes]
            )
            for sizes in layouts:
                check_materializes(node_groups(sizes), 4 * MIB + 4)


@st.composite
def group_layouts(draw):
    sizes = draw(st.lists(st.integers(1, 8), min_size=1, max_size=8))
    groups = node_groups(sizes, start=draw(st.integers(0, 64)))
    # bcast groups start at the root, not at the lowest rank
    groups = [draw(st.permutations(group)) for group in groups]
    return groups, draw(st.integers(1, 1 << 30))


@settings(max_examples=200, deadline=None)
@given(group_layouts())
def test_materializes_the_merged_steps(case):
    check_materializes(*case)


# -- the closed form against the walk oracle -----------------------------------
def make_world(config, nodes, plan=None):
    spec = WorldSpec(num_ranks=4 * nodes, policy=SingletonDevicePolicy(),
                     config=config)
    faults = FaultInjector(plan) if plan is not None else None
    return MpiWorld(Cluster(Environment(), LASSEN, num_nodes=nodes), spec,
                    faults=faults)


def buffers(ranks, nbytes, base):
    return GpuBuffers(nbytes, [base + r for r in ranks])


def protocol_state(world) -> list[str]:
    """Timing-free state: stats, staging seconds, IPC pairs, regcache."""
    transport = world.transport
    out = [
        f"{kind.value} {transport.stats.bytes_moved[kind]} "
        f"{transport.stats.transfers[kind]}"
        for kind in TransportKind
    ]
    out.append(" ".join(f"{r}:{s.hex()}"
                        for r, s in sorted(transport.staged_seconds.items())))
    out.append(repr(sorted(transport._ipc_pairs)))
    out.append(repr(world.regcache_stats()))
    return out


def fmt(x) -> str:
    return x.hex() if isinstance(x, float) else repr(x)


def timing_line(timing) -> str:
    segments = " ".join(f"{k}={fmt(v)}"
                        for k, v in sorted(timing.segments.items()))
    return f"{timing.op} {fmt(timing.time)} {segments}"


def run_sequence(world, calls=2) -> list[str]:
    """Hierarchical allreduces at eager, staged and IPC sizes, a bcast,
    and both trees run directly with ``reduce_after`` on and off."""
    comm = world.communicator()
    ranks = comm.ranks
    coster = world.coster
    by_node = {}
    for r in ranks:
        by_node.setdefault(world.transport.ranks[r].node_id, []).append(r)
    groups = list(by_node.values())
    lines = []
    for call in range(calls):
        for s, nbytes in enumerate((400, 256 * KIB, 16 * MIB + 28, 64 * MIB)):
            lines.append(timing_line(comm.allreduce(
                buffers(ranks, nbytes, 1000 * (s + 1)),
                algorithm="hierarchical")))
        lines.append(timing_line(
            comm.bcast(buffers(ranks, 4 * MIB + 4, 9000), root_index=1)))
        for tree in (_binomial_reduce_tree, _binomial_bcast_tree):
            for reduce_after in (False, True):
                sched = GroupSchedule(groups, tree, 8 * MIB)
                world.transport.begin_collective()
                lines.append(fmt(coster.run_steps(
                    sched, reduce_after=reduce_after)))
        lines.extend(protocol_state(world))
    return lines


def oracle(config, nodes, plan=None, sequence=run_sequence) -> list[str]:
    with walk_oracle():
        world = make_world(config, nodes, plan)
    assert world.coster.fastpath is None
    return sequence(world)


@pytest.mark.parametrize("nodes", [4, 16, 64])
@pytest.mark.parametrize("config", [MPI, MPI_OPT], ids=["mpi", "mpi-opt"])
def test_closed_form_matches_the_walk(config, nodes):
    world = make_world(config, nodes)
    assert run_sequence(world) == oracle(config, nodes)
    session = world.coster.fastpath
    assert session.group_transfers > 0
    # the session accounts for every transfer sent, walked or not
    assert session.replayed_transfers + session.exact_transfers == \
        sum(world.transport.stats.transfers.values())


@pytest.fixture()
def checks(monkeypatch):
    """Each node-group check the sessions run: (groups, step, verdict),
    the verdict None for a mismatch, else whether it settled."""
    seen = []
    check = FastPathSession._group_check

    def recording(self, sched, d):
        verdict = check(self, sched, d)
        seen.append((
            tuple(map(tuple, sched.groups)), d,
            None if verdict is None else verdict[1],
        ))
        return verdict

    monkeypatch.setattr(FastPathSession, "_group_check", recording)
    return seen


def _hierarchical(comm, base=1000):
    return timing_line(comm.allreduce(
        buffers(comm.ranks, 64 * MIB, base), algorithm="hierarchical"))


def test_closed_form_walks_a_partially_opened_ipc_state(checks):
    """An allreduce over the first two nodes opens their IPC pairs, so
    the groups of a world-wide intra-node reduce disagree and each of its
    steps is walked; once that walk has opened every pair, groups
    collapse again.  A check that saw a closed pair keeps no verdict:
    only a check with every compared pair open settles its step."""
    def sequence(world):
        comm = world.communicator()
        pair = comm.reform(range(8))
        session = world.coster.fastpath
        lines = [_hierarchical(pair)]
        if session is not None:
            # the reduce opens the pairs the bcast then finds open
            assert [(d, settled) for _, d, settled in checks] == [
                (0, False), (1, False), (0, True), (1, True),
            ]
            del checks[:]
        grouped = session.group_transfers if session else 0
        groups = [comm.ranks[n:n + 4] for n in range(0, len(comm.ranks), 4)]
        world.transport.begin_collective()
        lines.append(fmt(world.coster.run_steps(
            GroupSchedule(groups, _binomial_reduce_tree, 64 * MIB),
            reduce_after=True)))
        if session is not None:
            assert session.group_transfers == grouped
            assert [settled for _, _, settled in checks] == [None, None]
            del checks[:]
        lines.append(_hierarchical(comm))
        if session is not None:
            assert session.group_transfers > grouped
            assert [settled for _, _, settled in checks] == [True] * 4
            del checks[:]
        # every step is settled now, but the two-node reduce's
        lines.append(_hierarchical(comm, base=2000))
        lines.append(_hierarchical(pair, base=3000))
        if session is not None:
            assert [(len(g), d, settled) for g, d, settled in checks] == [
                (2, 0, True), (2, 1, True),
            ]
        return lines + protocol_state(world)

    world = make_world(MPI_OPT, 8)
    assert sequence(world) == oracle(MPI_OPT, 8, sequence=sequence)
    assert len(world.transport._ipc_pairs) == 8 * 3


def test_a_check_over_closed_pairs_keeps_no_verdict(checks):
    """A world-wide allreduce at a staged size opens no CUDA IPC pair, so
    its checks, every pair closed, settle nothing.  After a two-node
    allreduce opens only its own nodes' pairs, the world-wide groups
    disagree at an IPC size, and the steps whose pairs differ walk."""
    def sequence(world):
        comm = world.communicator()
        session = world.coster.fastpath
        lines = [timing_line(comm.allreduce(
            buffers(comm.ranks, 256 * KIB, 1000), algorithm="hierarchical"))]
        lines.append(_hierarchical(comm.reform(range(8)), base=2000))
        if session is not None:
            assert [settled for _, _, settled in checks] == [False] * 4 + [
                False, False, True, True,
            ]
            del checks[:]
        lines.append(_hierarchical(comm, base=3000))
        if session is not None:
            assert [settled for _, _, settled in checks] == [
                None, None, True, True,
            ]
        return lines + protocol_state(world)

    world = make_world(MPI_OPT, 4)
    assert sequence(world) == oracle(MPI_OPT, 4, sequence=sequence)


def test_a_shrunk_communicator_runs_its_own_check(checks):
    """Verdicts settle per node groups.  Once the first three nodes'
    groups have settled, a communicator shrunk to the last three has
    groups of the same sizes and trees, the last with its CUDA IPC pairs
    still closed: it checks them afresh, and its mismatched steps walk."""
    def sequence(world):
        comm = world.communicator()
        session = world.coster.fastpath
        first = comm.reform(range(12))
        lines = [_hierarchical(first), _hierarchical(first, base=2000)]
        if session is not None:
            assert [settled for _, _, settled in checks] == [
                False, False, True, True, True, True,
            ]
            del checks[:]
        lines.append(_hierarchical(comm.restrict(range(4, 16)), base=3000))
        if session is not None:
            assert [settled for _, _, settled in checks] == [
                None, None, True, True,
            ]
        return lines + protocol_state(world)

    world = make_world(MPI_OPT, 4)
    assert sequence(world) == oracle(MPI_OPT, 4, sequence=sequence)


def test_a_live_link_fault_walks_past_settled_verdicts(checks):
    """A ``LinkFault`` attached after every verdict has settled still
    walks every node-group step."""
    def sequence(world):
        lines = run_sequence(world)
        session = world.coster.fastpath
        if session is not None:
            assert any(settled for _, _, settled in checks)
            grouped = session.group_transfers
            del checks[:]
        world.cluster.apply_fault_injector(FaultInjector(FLAP))
        lines += run_sequence(world, calls=1)
        if session is not None:
            assert session.group_transfers == grouped
            assert checks == []
        return lines

    world = make_world(MPI_OPT, 4)
    assert sequence(world) == oracle(MPI_OPT, 4, sequence=sequence)


# -- the check by local pair --------------------------------------------------
def fresh_check(transport, sched, d):
    """The node-group check over a fresh ``PairGeometry`` per compared
    pair: what ``FastPathSession._group_check`` must return."""
    opened = transport._ipc_pairs
    shapes, spared, settled = {}, {}, True
    for group in sched.groups:
        local = sched.depths[len(group)]
        if d >= len(local):
            continue
        shape = []
        for i, j in local[d]:
            src, dst = group[i], group[j]
            pair = PairGeometry(transport, src, dst)
            is_open = pair.ipc and (min(src, dst), max(src, dst)) in opened
            settled = settled and (is_open or not pair.ipc)
            shape += [id(pair.prices), is_open]
        rep = shapes.setdefault(len(group), shape)
        if rep is shape:
            spared[len(group)] = 0
        elif shape == rep:
            spared[len(group)] += 1
        else:
            return None
    return spared, settled


#: 4 nodes: whole nodes, and shrunk communicators whose same-size groups
#: hold different local ranks
LAYOUTS = {
    "whole": list(range(16)),
    "shrunk-3": [0, 1, 2, 4, 5, 7, 8, 9, 10, 12, 13, 15],
    "shrunk-2": [0, 1, 6, 7, 9, 11, 12, 13],
    "ragged": [0, 1, 2, 3, 5, 6, 7, 8, 12, 13],
}


@pytest.mark.parametrize("config", [MPI, MPI_OPT, MPI_HALF],
                         ids=["mpi", "mpi-opt", "mpi-half"])
def test_local_rows_are_every_pairs_own(config):
    """Each same-node pair's row and IPC verdict, read per local pair,
    are those of a fresh ``PairGeometry`` of that very pair."""
    world = make_world(config, 4)
    session, transport = world.coster.fastpath, world.transport
    verdicts = set()
    for src in range(16):
        for dst in range(16):
            if src == dst or src // 4 != dst // 4:
                continue
            fresh = PairGeometry(transport, src, dst)
            assert session._local_row(src, dst) == (id(fresh.prices), fresh.ipc)
            verdicts.add(fresh.ipc)
    assert verdicts == ({True, False} if config is MPI_HALF else {config is MPI_OPT})


@pytest.mark.parametrize("layout", LAYOUTS)
@pytest.mark.parametrize("config", [MPI, MPI_OPT, MPI_HALF],
                         ids=["mpi", "mpi-opt", "mpi-half"])
def test_check_matches_fresh_rows(config, layout):
    """Every step's check equals the check over fresh rows, with no IPC
    pair open, with one node's pairs open and with every pair open."""
    world = make_world(config, 4)
    session, transport = world.coster.fastpath, world.transport
    comm = world.communicator().reform(LAYOUTS[layout])
    groups = world.coster.node_groups(sorted(comm.ranks))
    schedules = [GroupSchedule(groups, tree, 64 * MIB) for tree in
                 (_binomial_reduce_tree, _binomial_bcast_tree, _binomial_tree)]
    outcomes = set()
    for opened in ((), (0,), range(4)):
        for node in opened:
            for a in range(4 * node, 4 * node + 4):
                for b in range(a + 1, 4 * node + 4):
                    if transport._pair(a, b).ipc:
                        transport.open_ipc(a, b)
        for sched in schedules:
            for d in range(len(sched)):
                want = fresh_check(transport, sched, d)
                assert session._group_check(sched, d) == want
                outcomes.add(None if want is None else want[1])
    if layout.startswith("shrunk"):
        assert None in outcomes  # some step's local pairs differ


def test_differing_local_ranks_match_the_walk(checks):
    """On a shrunk communicator the groups of three hold local ranks
    (0, 1, 2) and (0, 1, 3): steps whose compared local pairs agree are
    priced from representatives, the others walk, bit-identically to the
    walk oracle."""
    def sequence(world):
        comm = world.communicator().reform(LAYOUTS["shrunk-3"])
        session = world.coster.fastpath
        lines = [_hierarchical(comm), _hierarchical(comm, base=2000)]
        if session is not None:
            # reduce depths (1->0 agrees, 2->0 differs), bcast depths
            # (0->2 differs, 0->1 agrees); the second call checks only
            # the steps whose first check saw a closed pair
            assert [(d, settled) for _, d, settled in checks] == [
                (0, False), (1, None), (0, None), (1, True),
                (0, True), (1, None), (0, None),
            ]
            assert session.group_transfers > 0
        return lines + protocol_state(world)

    world = make_world(MPI_OPT, 4)
    assert sequence(world) == oracle(MPI_OPT, 4, sequence=sequence)


@pytest.mark.parametrize("plan", [CORRUPT, FLAP], ids=["corrupt", "link-fault"])
@pytest.mark.parametrize("config", [MPI, MPI_OPT], ids=["mpi", "mpi-opt"])
def test_faulty_worlds_walk_every_group(config, plan):
    """A live wire-corruption window and a ``LinkFault`` each walk every
    node-group step and collapse no group."""
    world = make_world(config, 4, plan)
    assert run_sequence(world) == oracle(config, 4, plan)
    assert world.coster.fastpath.group_transfers == 0
