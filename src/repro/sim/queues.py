"""FIFO message stores for producer/consumer processes.

The MPI point-to-point layer uses one :class:`Store` per (receiver,
matching-key) to implement message matching with correct arrival ordering.
"""

from __future__ import annotations

from collections import deque
from typing import Any

from repro.sim.engine import URGENT, Environment, Event


class Store:
    """Unbounded FIFO channel: ``put`` never blocks, ``get`` blocks if empty."""

    def __init__(self, env: Environment, name: str = "store"):
        self.env = env
        self.name = name
        self._items: deque[Any] = deque()
        self._getters: deque[Event] = deque()
        self.put_count = 0
        self.get_count = 0

    def __len__(self) -> int:
        return len(self._items)

    def put(self, item: Any) -> None:
        """Deposit an item, waking the oldest waiting getter immediately."""
        self.put_count += 1
        if self._getters:
            getter = self._getters.popleft()
            self.get_count += 1
            getter.succeed(item, priority=URGENT)
        else:
            self._items.append(item)

    def get(self) -> Event:
        """Return an event yielding the next item (fires when available)."""
        event = Event(self.env, name=f"get:{self.name}")
        if self._items:
            self.get_count += 1
            event.succeed(self._items.popleft(), priority=URGENT)
        else:
            self._getters.append(event)
        return event
