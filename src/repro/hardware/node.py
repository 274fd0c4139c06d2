"""Node model: sockets, GPUs, NVLink/X-Bus wiring, HBM and host memory.

The Lassen wiring (Fig. 8 of the paper) is reproduced structurally:

* socket 0 hosts GPUs 0-1, socket 1 hosts GPUs 2-3 (for 4-GPU nodes);
* GPUs on the same socket are NVLink peers and NVLink-attached to the CPU;
* the two sockets are joined by X-Bus;
* each CPU socket reaches the InfiniBand HCA over PCIe (socket 0 holds it).

A node's memory pools may hold CUDA context blocks of worlds whose ranks
have not been touched yet: before anything reads them, the node places the
CUDA state every world registered on its cluster
(:meth:`~repro.hardware.cluster.Cluster.defer_cuda_state`).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Iterable, Sequence
from weakref import ReferenceType

from repro.errors import HardwareError
from repro.sim.engine import Environment
from repro.hardware.links import Link, LinkKind
from repro.hardware.memory import MemoryPool
from repro.hardware.specs import NodeSpec


class DeviceKind(enum.Enum):
    GPU = "gpu"
    CPU = "cpu"
    HCA = "hca"


@dataclass(frozen=True, order=True)
class DeviceRef:
    """Globally-unique address of a device in the cluster."""

    node: int
    kind: DeviceKind
    index: int

    def __str__(self) -> str:
        return f"n{self.node}:{self.kind.value}{self.index}"

    __repr__ = __str__


class Node:
    """One compute node: devices, memory pools, and intra-node links."""

    def __init__(
        self,
        env: Environment,
        node_id: int,
        spec: NodeSpec,
        cuda_states: Sequence[ReferenceType] = (),
    ):
        self.env = env
        self.node_id = node_id
        self.spec = spec
        self.gpu_refs = [
            DeviceRef(node_id, DeviceKind.GPU, i) for i in range(spec.gpus_per_node)
        ]
        self.cpu_refs = [
            DeviceRef(node_id, DeviceKind.CPU, s) for s in range(spec.sockets)
        ]
        self.hca_ref = DeviceRef(node_id, DeviceKind.HCA, 0)
        self._gpu_memory = {
            ref: MemoryPool(f"{ref}:hbm", spec.gpu.memory_bytes) for ref in self.gpu_refs
        }
        self._host_memory = MemoryPool(
            f"n{node_id}:dram", spec.cpu.memory_bytes * spec.sockets
        )
        # the cluster's registered world CUDA states, and how many of them
        # have been placed on this node
        self._cuda_states = cuda_states
        self._placed = 0
        self._links: list[Link] = []
        self._adjacency: dict[DeviceRef, list[Link]] = {
            ref: [] for ref in (*self.gpu_refs, *self.cpu_refs, self.hca_ref)
        }
        # the wiring is fixed at construction, so shortest routes are too:
        # memoize them (route() dominates large analytic sweeps otherwise)
        self._route_cache: dict[tuple[DeviceRef, DeviceRef], list[Link]] = {}
        self._wire()

    # -- memory -------------------------------------------------------------
    @property
    def gpu_memory(self) -> dict[DeviceRef, MemoryPool]:
        """HBM pool per GPU, holding every registered world's contexts."""
        self._place_cuda_states()
        return self._gpu_memory

    @property
    def host_memory(self) -> MemoryPool:
        self._place_cuda_states()
        return self._host_memory

    def _place_cuda_states(self) -> None:
        """Place the worlds' CUDA state registered since the last read, in
        registration order.  A read from inside a placement (a context
        allocating its block) returns the pools as they stand."""
        states = self._cuda_states
        while self._placed < len(states):
            start, self._placed = self._placed, len(states)
            for ref in states[start:self._placed]:
                state = ref()
                if state is not None:
                    state.place(self.node_id)

    # -- wiring -----------------------------------------------------------
    def _add_link(self, spec, kind: LinkKind, a: DeviceRef, b: DeviceRef) -> None:
        link = Link(self.env, spec, kind, a, b)
        self._links.append(link)
        self._adjacency[a].append(link)
        self._adjacency[b].append(link)

    def _wire(self) -> None:
        s = self.spec
        for gi, gref in enumerate(self.gpu_refs):
            socket = gi // s.gpus_per_socket
            self._add_link(s.nvlink_gpu_cpu, LinkKind.NVLINK_CPU, gref, self.cpu_refs[socket])
        # Same-socket GPU peers (all-to-all within the socket).
        for socket in range(s.sockets):
            members = self.gpu_refs[
                socket * s.gpus_per_socket : (socket + 1) * s.gpus_per_socket
            ]
            for i in range(len(members)):
                for j in range(i + 1, len(members)):
                    self._add_link(
                        s.nvlink_gpu_gpu, LinkKind.NVLINK_P2P, members[i], members[j]
                    )
        if s.sockets == 2:
            self._add_link(s.xbus_cpu_cpu, LinkKind.XBUS, self.cpu_refs[0], self.cpu_refs[1])
        self._add_link(s.pcie_cpu_hca, LinkKind.PCIE, self.cpu_refs[0], self.hca_ref)

    # -- queries ----------------------------------------------------------
    def socket_of_gpu(self, gpu_index: int) -> int:
        if not 0 <= gpu_index < self.spec.gpus_per_node:
            raise HardwareError(f"gpu index {gpu_index} out of range on node {self.node_id}")
        return gpu_index // self.spec.gpus_per_socket

    def route(self, src: DeviceRef, dst: DeviceRef) -> list[Link]:
        """Shortest intra-node route (BFS over the small device graph).

        Memoized: the device graph never changes after ``_wire``.  Callers
        must treat the returned list as read-only.
        """
        cached = self._route_cache.get((src, dst))
        if cached is not None:
            return cached
        route = self._route_uncached(src, dst)
        self._route_cache[(src, dst)] = route
        return route

    def _route_uncached(self, src: DeviceRef, dst: DeviceRef) -> list[Link]:
        if src == dst:
            return []
        if src not in self._adjacency or dst not in self._adjacency:
            raise HardwareError(f"device not on node {self.node_id}: {src} or {dst}")
        frontier = [(src, [])]
        seen = {src}
        while frontier:
            nxt: list[tuple[DeviceRef, list[Link]]] = []
            for here, path in frontier:
                for link in self._adjacency[here]:
                    there = link.other(here)
                    if there in seen:
                        continue
                    if there == dst:
                        return path + [link]
                    seen.add(there)
                    nxt.append((there, path + [link]))
            frontier = nxt
        raise HardwareError(f"no route {src} -> {dst} on node {self.node_id}")

    @property
    def links(self) -> Iterable[Link]:
        return tuple(self._links)

    def __repr__(self) -> str:
        return f"<Node {self.node_id} spec={self.spec.name!r} gpus={len(self.gpu_refs)}>"
