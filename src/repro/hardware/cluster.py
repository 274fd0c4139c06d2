"""Cluster model: nodes plus the InfiniBand fabric.

The fabric is a full-bisection fat-tree (Lassen/Longhorn both are), so the
core is modelled as non-blocking: an inter-node message contends only for
the source node's HCA uplink and the destination node's HCA downlink.
``oversubscription > 1`` in the spec derates the per-port bandwidth to model
tapered networks.

Transfers are *pipelined* (wormhole) across multi-hop routes: total time is
``sum(alpha_i) + nbytes / min(bandwidth_i)``, with every hop's directional
channel held for the duration so congestion propagates.

Every node is built from the one ``spec.node`` template, so a cluster
builds a :class:`~repro.hardware.node.Node` and its IB uplink only when
something indexes them; device addresses come from index arithmetic.
"""

from __future__ import annotations

import weakref
from collections.abc import Sequence
from dataclasses import replace
from typing import Callable, Generator, Iterable, TypeVar

from repro.errors import HardwareError
from repro.sim.engine import Environment
from repro.sim.resources import try_acquire_all
from repro.hardware.links import Link, LinkKind
from repro.hardware.node import DeviceKind, DeviceRef, Node
from repro.hardware.specs import ClusterSpec

#: sentinel endpoint for the non-blocking switch core
CORE = "ib-core"

T = TypeVar("T")


class BuiltOnIndex(Sequence[T]):
    """A fixed-length sequence whose item ``i`` is ``build(i)``, made the
    first time ``i`` is indexed and kept.  Iterating builds every item."""

    __slots__ = ("_items", "_build")

    def __init__(self, length: int, build: Callable[[int], T]):
        self._items: list[T | None] = [None] * length
        self._build = build

    def __len__(self) -> int:
        return len(self._items)

    def __getitem__(self, i: int) -> T:
        item = self._items[i]
        if item is None:
            item = self._items[i] = self._build(i % len(self._items))
        return item

    def is_built(self, i: int) -> bool:
        return self._items[i] is not None


class Cluster:
    """A set of nodes wired to a fat-tree core."""

    def __init__(self, env: Environment, spec: ClusterSpec, num_nodes: int):
        if num_nodes < 1:
            raise HardwareError(f"num_nodes must be >= 1, got {num_nodes}")
        if num_nodes > spec.max_nodes:
            raise HardwareError(
                f"{spec.name} has {spec.max_nodes} nodes, requested {num_nodes}"
            )
        self.env = env
        self.spec = spec
        self.num_nodes = num_nodes
        #: per-world CUDA state placed on nodes when their memory is first
        #: read (see :meth:`defer_cuda_state`), in registration order
        self._cuda_states: list[weakref.ReferenceType] = []
        node_spec, states = spec.node, self._cuda_states
        self.nodes: BuiltOnIndex[Node] = BuiltOnIndex(
            num_nodes, lambda i: Node(env, i, node_spec, states)
        )
        ib_spec = spec.ib
        if spec.oversubscription != 1.0:
            ib_spec = replace(
                ib_spec, bandwidth=ib_spec.bandwidth / spec.oversubscription
            )
        self._ib_links: BuiltOnIndex[Link] = BuiltOnIndex(
            num_nodes,
            lambda i: Link(
                env, ib_spec, LinkKind.IB, DeviceRef(i, DeviceKind.HCA, 0), CORE
            ),
        )
        self.fault_injector = None
        #: link state varies with simulated time: the attached injector's
        #: plan holds a LinkFault (``FaultInjector.degrades_links``)
        self.live_links = False
        # Topology is immutable after construction: memoize routes per
        # endpoint pair and the (sum-of-alphas, bottleneck-bandwidth) pair
        # per route class (see route_class).
        self._route_cache: dict[
            tuple[DeviceRef, DeviceRef], list[tuple[Link, object, object]]
        ] = {}
        self._path_cache: dict[tuple, tuple[float, float]] = {}

    def apply_fault_injector(self, injector) -> None:
        """Attach a :class:`~repro.faults.FaultInjector`: active
        :class:`~repro.faults.LinkFault` windows degrade :meth:`path_cost`,
        which prices event-driven transfers and quotes alike."""
        self.fault_injector = injector
        self.live_links = injector.degrades_links

    def defer_cuda_state(self, state) -> None:
        """Register a world's per-node CUDA state, an object with
        ``place(node_id)``.

        A node calls ``place`` on every registered state before anything
        reads its memory, so a read sees every context block the world's
        ranks put there.  The cluster holds the state by weak reference,
        so it never keeps a world alive.
        """
        self._cuda_states.append(weakref.ref(state))

    # -- device addressing -------------------------------------------------
    @property
    def gpus_per_node(self) -> int:
        return self.spec.node.gpus_per_node

    @property
    def num_gpus(self) -> int:
        return self.num_nodes * self.gpus_per_node

    def gpu_ref(self, global_gpu: int) -> DeviceRef:
        """Map a flat GPU index (MPI-rank order) to its device ref."""
        if not 0 <= global_gpu < self.num_gpus:
            raise HardwareError(f"gpu index {global_gpu} out of range (n={self.num_gpus})")
        node, local = divmod(global_gpu, self.gpus_per_node)
        return DeviceRef(node, DeviceKind.GPU, local)

    def staging_cpu(self, gpu: DeviceRef) -> DeviceRef:
        """The CPU socket a GPU's host staging runs through: its own."""
        return DeviceRef(
            gpu.node, DeviceKind.CPU, gpu.index // self.spec.node.gpus_per_socket
        )

    def node_groups(self, ranks: Iterable[int]) -> list[list[int]]:
        """``ranks`` grouped by node, nodes in order of first appearance,
        each group in the ranks' order.  Rank ``r`` runs on node
        ``r // gpus_per_node`` (node-major, as ``build_world`` lays ranks
        out), so sorted ranks give the groups in node order, each sorted."""
        gpn = self.gpus_per_node
        by_node: dict[int, list[int]] = {}
        for r in ranks:
            by_node.setdefault(r // gpn, []).append(r)
        return list(by_node.values())

    # -- failure-domain addressing ------------------------------------------
    def topology(self):
        """The fault layer's :class:`~repro.faults.domains.Topology` view
        of this cluster (rank → node → leaf-switch addressing)."""
        from repro.faults.domains import Topology

        return Topology(
            num_nodes=self.num_nodes,
            gpus_per_node=self.gpus_per_node,
            nodes_per_switch=self.spec.nodes_per_switch,
        )

    def same_node(self, a: DeviceRef, b: DeviceRef) -> bool:
        return a.node == b.node

    def gpu_memory(self, ref: DeviceRef):
        if ref.kind is not DeviceKind.GPU:
            raise HardwareError(f"{ref} is not a GPU")
        return self.nodes[ref.node].gpu_memory[ref]

    # -- routing -----------------------------------------------------------
    def route(self, src: DeviceRef, dst: DeviceRef) -> list[tuple[Link, object, object]]:
        """Return the hop list [(link, from, to), ...] from src to dst.

        Memoized (the fabric is fixed); callers must treat the returned
        list as read-only.
        """
        cached = self._route_cache.get((src, dst))
        if cached is not None:
            return cached
        hops = self._route_uncached(src, dst)
        self._route_cache[(src, dst)] = hops
        return hops

    def _route_uncached(
        self, src: DeviceRef, dst: DeviceRef
    ) -> list[tuple[Link, object, object]]:
        if src == dst:
            return []
        if src.node == dst.node:
            node = self.nodes[src.node]
            hops = []
            here: object = src
            for link in node.route(src, dst):
                there = link.other(here)
                hops.append((link, here, there))
                here = there
            return hops
        src_node, dst_node = self.nodes[src.node], self.nodes[dst.node]
        hops: list[tuple[Link, object, object]] = []
        here = src
        for link in src_node.route(src, src_node.hca_ref):
            there = link.other(here)
            hops.append((link, here, there))
            here = there
        hops.append((self._ib_links[src.node], src_node.hca_ref, CORE))
        hops.append((self._ib_links[dst.node], CORE, dst_node.hca_ref))
        here = dst_node.hca_ref
        for link in dst_node.route(dst_node.hca_ref, dst):
            there = link.other(here)
            hops.append((link, here, there))
            here = there
        return hops

    @staticmethod
    def route_class(src: DeviceRef, dst: DeviceRef) -> tuple:
        """``(src.kind, src.index, dst.kind, dst.index, same node)``: what
        a route's links depend on, given a uniform fabric.

        Every node is built from the one ``spec.node`` and every uplink
        from the one IB spec, so two routes of a class cross links of the
        same specs in the same order, and a GPU's index fixes its socket
        and so the CPU it stages through.  :meth:`path_constants` and the
        transport's price table are keyed by it.
        """
        return (src.kind, src.index, dst.kind, dst.index, src.node == dst.node)

    def path_constants(
        self, src: DeviceRef, dst: DeviceRef
    ) -> tuple[float, float]:
        """Fault-free ``(sum of hop latencies, bottleneck bandwidth)`` of
        the route, ``(0.0, inf)`` for an empty one.

        Memoized per :meth:`route_class`, not per endpoint pair, so a
        4096-rank world walks a few dozen routes instead of one per rank
        pair.  The hop list is reduced and dropped, not added to the
        route memo.  Latencies are added left to right, as
        :meth:`path_cost`'s live walk adds them, so both give the same
        float (``sum()`` is compensated from Python 3.12 on).
        """
        key = self.route_class(src, dst)
        constants = self._path_cache.get(key)
        if constants is None:
            hops = self._route_cache.get((src, dst)) or self._route_uncached(src, dst)
            alpha = 0.0
            for link, _, _ in hops:
                alpha += link.spec.latency_s
            constants = (
                alpha,
                min((link.spec.bandwidth for link, _, _ in hops),
                    default=float("inf")),
            )
            self._path_cache[key] = constants
        return constants

    def path_cost(self, src: DeviceRef, dst: DeviceRef, nbytes: int) -> float:
        """Uncontended pipelined transfer time along the route.

        Under a :class:`~repro.faults.LinkFault` the route is walked hop by
        hop at ``env.now``; otherwise it prices at :meth:`path_constants`.
        """
        if self.live_links:
            hops = self.route(src, dst)
            if not hops:
                return 0.0
            now = self.env.now
            alpha = 0.0
            bottleneck = float("inf")
            for link, _, _ in hops:
                bw_factor, extra = self.fault_injector.link_state(link.kind, now)
                alpha += link.spec.latency_s + extra
                bottleneck = min(bottleneck, link.spec.bandwidth * bw_factor)
            return alpha + nbytes / bottleneck
        alpha, bottleneck = self.path_constants(src, dst)
        if bottleneck == float("inf"):
            return 0.0
        return alpha + nbytes / bottleneck

    def path_bandwidth(self, src: DeviceRef, dst: DeviceRef) -> float:
        """Fault-free bottleneck bandwidth of the route, ``inf`` for an
        empty one (per :meth:`route_class`, like :meth:`path_constants`)."""
        return self.path_constants(src, dst)[1]

    def transfer(self, src: DeviceRef, dst: DeviceRef, nbytes: int) -> Generator:
        """Simulation process: move ``nbytes`` src -> dst, holding every hop
        for the route's :meth:`path_cost`."""
        hops = self.route(src, dst)
        if hops:
            yield from self.hold_route(hops, self.path_cost(src, dst, nbytes))

    def hold_route(
        self, hops: list[tuple[Link, object, object]], duration: float
    ) -> Generator:
        """Hold every hop's directional channel for ``duration`` seconds.

        Channels are acquired in route order (consistent ordering avoids
        deadlock among concurrent transfers).
        """
        channels = [link.channel(frm, to) for link, frm, to in hops]
        if try_acquire_all(channels):
            # Uncontended fast path: the whole route was free, so per-hop
            # request/grant events would all fire immediately — collapse
            # them into the single timed event.  Channels are genuinely
            # held, so concurrent flows queue exactly as on the slow path.
            try:
                yield self.env.timeout(duration)
            finally:
                for channel in reversed(channels):
                    channel.release()
            return
        held = []
        try:
            for channel in channels:
                yield channel.request()
                held.append(channel)
            yield self.env.timeout(duration)
        finally:
            for channel in reversed(held):
                channel.release()

    def __repr__(self) -> str:
        return (
            f"<Cluster {self.spec.name!r} nodes={self.num_nodes} "
            f"gpus={self.num_gpus}>"
        )


def build_cluster(
    spec: ClusterSpec, num_gpus: int, env: Environment | None = None
) -> Cluster:
    """Convenience: build the smallest cluster holding ``num_gpus`` GPUs."""
    env = env or Environment()
    per = spec.node.gpus_per_node
    nodes = (num_gpus + per - 1) // per
    return Cluster(env, spec, nodes)
