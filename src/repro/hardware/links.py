"""Contended link instances on top of :class:`~repro.hardware.specs.LinkSpec`.

A :class:`Link` owns one :class:`~repro.sim.resources.Resource` per
direction (full-duplex) or a single shared resource (half-duplex).  An
event-mode transfer holds its directional channel on every hop of its
route for the transfer's duration
(:meth:`~repro.hardware.cluster.Cluster.hold_route`), so two simultaneous
same-direction transfers serialize — the mechanism behind intra-node
congestion when four ranks stage through the same CPU.  Only event-mode
transfers claim channels, so a link builds them on first use.
"""

from __future__ import annotations

import enum

from repro.sim.engine import Environment
from repro.sim.resources import Resource
from repro.hardware.specs import LinkSpec


class LinkKind(enum.Enum):
    """Physical class of a link; used by transports to pick routes."""

    NVLINK_P2P = "nvlink-p2p"
    NVLINK_CPU = "nvlink-cpu"
    XBUS = "x-bus"
    PCIE = "pcie"
    IB = "ib"
    HOST_MEM = "host-mem"


class Link:
    """One physical link between two endpoints.

    ``endpoints`` are opaque hashable ids (DeviceRef or node ids); direction
    keys are the ordered endpoint pair.
    """

    def __init__(
        self,
        env: Environment,
        spec: LinkSpec,
        kind: LinkKind,
        a: object,
        b: object,
        *,
        channels: int = 1,
    ):
        self.env = env
        self.spec = spec
        self.kind = kind
        self.a = a
        self.b = b
        self._capacity = channels
        # direction -> Resource, built by the first channel() call
        self._res: dict[tuple[object, object], Resource] | None = None

    def other(self, endpoint: object) -> object:
        if endpoint == self.a:
            return self.b
        if endpoint == self.b:
            return self.a
        raise KeyError(f"{endpoint!r} is not an endpoint of {self!r}")

    def _build_channels(self) -> dict[tuple[object, object], Resource]:
        a, b, env, capacity = self.a, self.b, self.env, self._capacity
        name = f"{self.kind.value}:{a}<->{b}"
        if self.spec.duplex:
            return {
                (a, b): Resource(env, capacity=capacity, name=name + ":fwd"),
                (b, a): Resource(env, capacity=capacity, name=name + ":rev"),
            }
        shared = Resource(env, capacity=capacity, name=name)
        return {(a, b): shared, (b, a): shared}

    def channel(self, src: object, dst: object) -> Resource:
        if self._res is None:
            self._res = self._build_channels()
        try:
            return self._res[(src, dst)]
        except KeyError:
            raise KeyError(f"no direction {src!r}->{dst!r} on {self!r}") from None

    def __repr__(self) -> str:
        return f"<Link {self.kind.value} {self.a!r}<->{self.b!r} {self.spec.name}>"
