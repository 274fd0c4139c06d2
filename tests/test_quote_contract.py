"""The contract between ``TransportModel.quote`` and ``TransportModel.apply``.

Both engine modes cost a transfer as ``(wire + staging) + apply(q)``;
fast mode reuses a memoized ``q`` and the ring closed form prices warm
steps from ``steady_protocol(q)`` without applying them.  That is sound
only if

* ``quote`` reads protocol state and never changes it,
* ``cost`` is exactly ``apply(quote(...))``, and
* whenever ``steady_protocol(q)`` is not None, the next ``apply(q)``
  charges exactly that value and changes no registration.

Each property is checked for every transport kind, with the registration
cache enabled and disabled, from cold, warm, next-call, poisoned,
undersized and flushed states.
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
        q = _quote(transport, transfer)
        predicted = transport.steady_protocol(q)
        if predicted is None:
            continue
        steady += 1
        before = _registrations(transport)
        charged = transport.apply(q)
        assert charged.hex() == predicted.hex(), (transfer, state)
        assert _registrations(transport) == before, (transfer, state)
    assert steady


def test_steady_protocol_reads_state_it_does_not_change():
    """A cold rendezvous is unsteady and stays so until it is applied."""
    transport = _transport(Mv2Config(registration_cache=True))
    transport.begin_collective()
    q = _quote(transport, "inter-large")
    before = protocol_state(transport)
    assert transport.steady_protocol(q) is None
    assert protocol_state(transport) == before
    transport.apply(q)
    assert transport.steady_protocol(q) is not None


def test_every_transport_kind_is_covered():
    kinds = {
        _quote(_transport(config), transfer).kind
        for config in CONFIGS.values() for transfer in TRANSFERS
    }
    assert kinds == set(TransportKind)
