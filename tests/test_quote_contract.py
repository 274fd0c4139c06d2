"""The contract between ``TransportModel.quote``, ``apply`` and the rows.

The walk costs a transfer as ``(wire + staging) + apply(q)``; on
every analytic world the ring closed form prices warm steps from
``steady_row``, each pair's price entry or None, without quoting or
applying them.  That is sound only if

* ``quote`` and ``steady_row`` read protocol state and never change it,
* ``cost`` is exactly ``apply(quote(...))``, and
* a pair's row entry is None exactly when its next ``apply`` would open
  an IPC pair or change a registration, and otherwise that send costs
  the entry's ``(wire + staging) + protocol``, the steady protocol, and
* ``send_row`` leaves what that many steady applies leave, but staging.

Each property is checked for every transport kind, with the registration
cache enabled and disabled, from cold, warm, next-call, poisoned,
undersized and flushed states, and on a row whose consecutive pairs
belong to different price rows.
"""

from __future__ import annotations

import itertools

import pytest

from repro.hardware import LASSEN, Cluster
from repro.mpi import Mv2Config, MpiWorld, WorldSpec
from repro.mpi.process import SingletonDevicePolicy
from repro.mpi.transports import TransportKind
from repro.sim import Environment
from repro.utils.units import KIB, MIB
from tests.test_transport_golden import protocol_state

SRC_BUF, DST_BUF = 7, 8
EXTENT = 16 * MIB

#: (src, dst, nbytes) on two 4-GPU nodes: every kind appears under some
#: config (IPC needs MPI visibility of all devices, STAGED_INTER needs
#: GDR off)
TRANSFERS = {
    "self": (0, 0, 1 * MIB),
    "smp-eager": (0, 1, 4 * KIB),
    "intra-large": (0, 1, 8 * MIB),
    "ib-eager": (0, 4, 4 * KIB),
    "inter-large": (0, 4, 8 * MIB),
}
STATES = ("cold", "warm", "next-call", "poisoned", "undersized", "flushed")
CONFIGS = {
    f"cache={cache}-gdr={gdr}-visible={visible}": Mv2Config(
        registration_cache=cache, gdr_enabled=gdr, mv2_visible_devices=visible
    )
    for cache, gdr, visible in itertools.product(
        (True, False), (True, False), (None, "all")
    )
}


def _transport(config):
    cluster = Cluster(Environment(), LASSEN, num_nodes=2)
    spec = WorldSpec(num_ranks=8, policy=SingletonDevicePolicy(), config=config)
    return MpiWorld(cluster, spec).transport


def _quote(transport, transfer, extent=EXTENT):
    src, dst, nbytes = TRANSFERS[transfer]
    return transport.quote(
        src, dst, nbytes, src_buffer=SRC_BUF, dst_buffer=DST_BUF,
        buffer_extent=extent,
    )


def _row(transport, transfer, extent=EXTENT):
    """``transfer``'s entry in a one-pair steady row, or None."""
    src, dst, nbytes = TRANSFERS[transfer]
    [entry] = transport.steady_row(
        [transport._pair(src, dst)], nbytes, {src: SRC_BUF, dst: DST_BUF},
        extent,
    )
    return entry


def _row_total(entry) -> float:
    _, _, wire, staging, protocol = entry
    return (wire + staging) + protocol


def _prepared(config, transfer, state):
    """A fresh transport brought into ``state`` for ``transfer``."""
    transport = _transport(config)
    transport.begin_collective()
    if state == "cold":
        return transport
    if state == "undersized":
        # registered at half the extent the transfer will ask for
        transport.apply(_quote(transport, transfer, extent=EXTENT // 2))
        return transport
    transport.apply(_quote(transport, transfer))
    if state == "next-call":
        transport.begin_collective()
    elif state == "poisoned":
        for ib in transport._ib.values():
            ib.reg_cache.poison(SRC_BUF)
            ib.reg_cache.poison(DST_BUF)
    elif state == "flushed":
        transport.drop_registrations()
    return transport


def _cases():
    return itertools.product(TRANSFERS, STATES)


def _registrations(transport):
    """The registration state an apply may not change when it is steady."""
    return (
        sorted(transport._ipc_pairs),
        [
            (
                dict(ib.reg_cache._entries),
                sorted(ib.reg_cache._poisoned),
                ib.reg_cache.evictions,
                ib.reg_cache.invalidations,
                # with the cache disabled, the call's transaction holds the
                # registrations of this call's advertised buffers
                None if ib.reg_cache.enabled else sorted(ib.reg_cache._txn),
            )
            for _, ib in sorted(transport._ib.items())
        ],
    )


@pytest.mark.parametrize("name", sorted(CONFIGS))
def test_quote_changes_no_protocol_state(name):
    for transfer, state in _cases():
        transport = _prepared(CONFIGS[name], transfer, state)
        before = protocol_state(transport)
        _quote(transport, transfer)
        assert protocol_state(transport) == before, (transfer, state)


@pytest.mark.parametrize("name", sorted(CONFIGS))
def test_cost_is_apply_of_quote(name):
    for transfer, state in _cases():
        by_cost = _prepared(CONFIGS[name], transfer, state)
        by_parts = _prepared(CONFIGS[name], transfer, state)
        src, dst, nbytes = TRANSFERS[transfer]
        bd = by_cost.cost(
            src, dst, nbytes, src_buffer=SRC_BUF, dst_buffer=DST_BUF,
            buffer_extent=EXTENT,
        )
        q = _quote(by_parts, transfer)
        protocol = by_parts.apply(q)
        assert (bd.kind, bd.wire, bd.staging, bd.protocol) == (
            q.kind, q.wire, q.staging, protocol
        ), (transfer, state)
        assert bd.total == (q.wire + q.staging) + protocol
        assert protocol_state(by_cost) == protocol_state(by_parts)


@pytest.mark.parametrize("name", sorted(CONFIGS))
def test_steady_protocol_is_the_next_apply(name):
    steady = 0
    for transfer, state in _cases():
        transport = _prepared(CONFIGS[name], transfer, state)
        before = protocol_state(transport)
        entry = _row(transport, transfer)
        assert protocol_state(transport) == before, (transfer, state)
        q = _quote(transport, transfer)
        registrations = _registrations(transport)
        charged = transport.apply(q)
        changed = _registrations(transport) != registrations
        assert (entry is None) == changed, (transfer, state)
        if entry is None:
            continue
        steady += 1
        assert entry[:2] == (q.kind, q.staged), (transfer, state)
        assert _row_total(entry).hex() == (
            (q.wire + q.staging) + charged
        ).hex(), (transfer, state)
    assert steady


def test_steady_protocol_reads_state_it_does_not_change():
    """A cold rendezvous is unsteady and stays so until it is applied."""
    transport = _transport(Mv2Config(registration_cache=True))
    transport.begin_collective()
    before = protocol_state(transport)
    assert _row(transport, "inter-large") is None
    assert protocol_state(transport) == before
    transport.apply(_quote(transport, "inter-large"))
    assert _row(transport, "inter-large") is not None


@pytest.mark.parametrize("name", sorted(CONFIGS))
def test_send_row_is_repeated_steady_applies(name):
    """``send_row`` leaves what as many applies of a steady send leave,
    but the staging charges, which its caller replays."""
    sent = 0
    for transfer, state in _cases():
        if transfer == "self":
            continue  # a ring pair never sends to itself
        by_row = _prepared(CONFIGS[name], transfer, state)
        by_apply = _prepared(CONFIGS[name], transfer, state)
        entry = _row(by_row, transfer)
        if entry is None:
            continue
        src, dst, nbytes = TRANSFERS[transfer]
        by_row.send_row(
            [by_row._pair(src, dst)], [entry], 3, [3 * nbytes],
            {src: SRC_BUF, dst: DST_BUF}, EXTENT,
        )
        for _ in range(3):
            q = _quote(by_apply, transfer)
            by_apply.apply(q)
            if q.staged:
                by_row.charge_staging(src, dst, q.staging)
        assert protocol_state(by_row) == protocol_state(by_apply), (
            transfer, state,
        )
        sent += 1
    assert sent


#: a ring over each node's first two GPUs, 0 -> 1 -> 4 -> 5 -> 0: an
#: intra-node pair, then an inter-node one, and so on, so no two
#: consecutive pairs share a price row
MIXED_RING = (0, 1, 4, 5)


@pytest.mark.parametrize("name", sorted(CONFIGS))
def test_mixed_row_prices_each_pair_from_its_own_row(name):
    transport = _transport(CONFIGS[name])
    nbytes = 8 * MIB
    pairs = list(zip(MIXED_RING, MIXED_RING[1:] + MIXED_RING[:1]))
    geometry = [transport._pair(src, dst) for src, dst in pairs]
    assert all(
        a.prices is not b.prices for a, b in zip(geometry, geometry[1:])
    )
    ids = {rank: 100 + rank for rank in MIXED_RING}
    steady = 0
    for call in range(3):
        transport.begin_collective()
        before = protocol_state(transport)
        entries = transport.steady_row(geometry, nbytes, ids, EXTENT)
        assert protocol_state(transport) == before
        for (src, dst), pair, entry in zip(pairs, geometry, entries):
            q = transport.quote(
                src, dst, nbytes, src_buffer=ids[src], dst_buffer=ids[dst],
                buffer_extent=EXTENT,
            )
            registrations = _registrations(transport)
            charged = transport.apply(q)
            changed = _registrations(transport) != registrations
            assert (entry is None) == changed, (call, src, dst)
            if entry is not None:
                steady += 1
                assert entry is pair.prices[nbytes]
                assert _row_total(entry).hex() == (
                    (q.wire + q.staging) + charged
                ).hex(), (call, src, dst)
    assert steady


def test_every_transport_kind_is_covered():
    kinds = {
        _quote(_transport(config), transfer).kind
        for config in CONFIGS.values() for transfer in TRANSFERS
    }
    assert kinds == set(TransportKind)
