"""Device memory allocations (``cudaMalloc`` handles)."""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

from repro.hardware.memory import MemoryBlock
from repro.hardware.node import DeviceRef


@dataclass
class DeviceAllocation:
    """A live device buffer: physical location plus backing pool block.

    ``buffer_id`` identifies the *logical* buffer for registration-cache
    keying: reallocating at the same simulated address is modelled by reusing
    an allocation object, matching how MPI registration caches key on
    (address, length) in reality.
    """

    _ids = itertools.count(1)

    device: DeviceRef
    nbytes: int
    tag: str
    block: MemoryBlock
    buffer_id: int = field(default_factory=lambda: next(DeviceAllocation._ids))
    freed: bool = False

    def __hash__(self) -> int:
        return hash(self.buffer_id)

    def __repr__(self) -> str:
        state = "freed" if self.freed else "live"
        return (
            f"<DeviceAllocation #{self.buffer_id} {self.nbytes}B on {self.device} "
            f"({self.tag}, {state})>"
        )
