"""Generator-based discrete-event simulation engine.

Design notes
------------
* Events are scheduled on a binary heap keyed ``(time, priority, seq)``;
  ``seq`` is a monotone counter making execution order fully deterministic.
* A :class:`Process` wraps a generator.  Each ``yield`` must produce an
  :class:`Event`; the process resumes when that event fires, receiving the
  event's value as the result of the ``yield`` expression.
* Exceptions set on an event (via :meth:`Event.fail`) are re-raised inside
  every waiting process, so protocol code can use ordinary ``try/except``.
* ``Environment.run()`` with no bound drains the queue and then checks for
  suspended processes, raising :class:`~repro.errors.DeadlockError` so that
  lost-message bugs in MPI protocol code fail loudly in tests.
"""

from __future__ import annotations

import heapq
from typing import Any, Callable, Generator, Iterable, Optional

from repro.errors import DeadlockError, SimulationError

# Event priorities: URGENT fires before NORMAL at the same timestamp. Used so
# resource releases propagate before new requests at identical times.
URGENT = 0
NORMAL = 1


class Event:
    """A one-shot occurrence processes can wait on.

    Lifecycle: *pending* -> *triggered* (scheduled on the heap) ->
    *processed* (callbacks ran).  ``succeed``/``fail`` may be called exactly
    once.
    """

    __slots__ = (
        "env",
        "callbacks",
        "_value",
        "_ok",
        "_scheduled",
        "_processed",
        "_defused",
        "name",
    )

    def __init__(self, env: "Environment", name: str = ""):
        self.env = env
        self.callbacks: list[Callable[[Event], None]] = []
        self._value: Any = None
        self._ok: Optional[bool] = None
        self._scheduled = False
        self._processed = False
        # True once some consumer (process, condition, run(until=...)) will
        # observe a failure; failed events nobody observes crash the run.
        self._defused = False
        self.name = name

    # -- state inspection ------------------------------------------------
    @property
    def triggered(self) -> bool:
        return self._ok is not None

    @property
    def processed(self) -> bool:
        return self._processed

    @property
    def ok(self) -> bool:
        if self._ok is None:
            raise SimulationError(f"event {self!r} has not been triggered")
        return self._ok

    @property
    def value(self) -> Any:
        if self._ok is None:
            raise SimulationError(f"event {self!r} has no value yet")
        return self._value

    # -- triggering ------------------------------------------------------
    def succeed(self, value: Any = None, *, priority: int = NORMAL) -> "Event":
        if self._ok is not None:
            raise SimulationError(f"event {self!r} already triggered")
        self._ok = True
        self._value = value
        self.env._schedule(self, priority)
        return self

    def fail(self, exception: BaseException, *, priority: int = NORMAL) -> "Event":
        if self._ok is not None:
            raise SimulationError(f"event {self!r} already triggered")
        if not isinstance(exception, BaseException):
            raise SimulationError("Event.fail() requires an exception instance")
        self._ok = False
        self._value = exception
        self.env._schedule(self, priority)
        return self

    def __repr__(self) -> str:
        state = "pending" if self._ok is None else ("ok" if self._ok else "failed")
        label = f" {self.name!r}" if self.name else ""
        return f"<{type(self).__name__}{label} {state}>"


class Timeout(Event):
    """An event that fires ``delay`` seconds after creation."""

    __slots__ = ("delay",)

    def __init__(self, env: "Environment", delay: float, value: Any = None):
        if not delay >= 0:  # also rejects NaN, which would break heap order
            raise SimulationError(f"timeout delay must be >= 0, got {delay}")
        # fields set directly: a serving run builds ~135k timeouts, and
        # none reads the name that Event.__init__ would format
        self.env = env
        self.callbacks = []
        self._value = value
        self._ok = True
        self._scheduled = False
        self._processed = False
        self._defused = False
        self.delay = delay
        env._schedule(self, NORMAL, delay=delay)

    @property
    def name(self) -> str:
        return f"timeout({self.delay:g})"


class Process(Event):
    """Wraps a generator; the process *is* an event that fires on return.

    The event value is the generator's ``return`` value; an uncaught
    exception inside the generator fails the event (and propagates to the
    environment if nobody is waiting).
    """

    __slots__ = ("_generator",)

    def __init__(self, env: "Environment", generator: Generator, name: str = ""):
        if not hasattr(generator, "send"):
            raise SimulationError(
                f"Process requires a generator, got {type(generator).__name__}"
            )
        super().__init__(env, name=name or getattr(generator, "__name__", "process"))
        self._generator = generator
        # Kick-start at the current time via an initialization event.
        init = Event(env, name=f"init:{self.name}")
        init.callbacks.append(self._resume)
        init._ok = True
        env._schedule(init, URGENT)

    # -- stepping ----------------------------------------------------------
    def _resume(self, event: Event) -> None:
        if event._ok:
            self._step_send(event._value)
        else:
            self._step_throw(event._value)

    def _step_send(self, value: Any) -> None:
        try:
            target = self._generator.send(value)
        except StopIteration as stop:
            self.succeed(stop.value)
            return
        except BaseException as exc:  # noqa: BLE001 - process body failed
            self._fail_from_body(exc)
            return
        self._wait_on(target)

    def _step_throw(self, exc: BaseException) -> None:
        try:
            target = self._generator.throw(exc)
        except StopIteration as stop:
            self.succeed(stop.value)
            return
        except BaseException as body_exc:  # noqa: BLE001
            self._fail_from_body(body_exc)
            return
        self._wait_on(target)

    def _fail_from_body(self, exc: BaseException) -> None:
        if isinstance(exc, (KeyboardInterrupt, SystemExit)):
            raise exc
        self.fail(exc)

    def _wait_on(self, target: Any) -> None:
        if not isinstance(target, Event):
            self._step_throw(
                SimulationError(
                    f"process {self.name!r} yielded non-event {target!r}"
                )
            )
            return
        target._defused = True
        if target._processed:
            # Already fired: resume immediately (same timestamp).
            kick = Event(self.env, name=f"requeue:{self.name}")
            kick._ok = target._ok
            kick._value = target._value
            kick.callbacks.append(self._resume)
            self.env._schedule(kick, URGENT)
            return
        target.callbacks.append(self._resume)


class AllOf(Event):
    """Fires when every child event has fired; value is the list of values."""

    __slots__ = ("events", "_remaining")

    def __init__(self, env: "Environment", events: Iterable[Event]):
        super().__init__(env)
        self.events = list(events)
        for ev in self.events:
            if ev.env is not env:
                raise SimulationError("condition mixes events from different environments")
            ev._defused = True
        self._remaining = 0
        for ev in self.events:
            if ev._processed:
                if not ev._ok:
                    self.fail(ev._value)
                    return
                continue
            self._remaining += 1
            ev.callbacks.append(self._on_child)
        if self._remaining == 0 and self._ok is None:
            self.succeed(self._collect())

    def _collect(self) -> list[Any]:
        return [ev._value for ev in self.events if ev._ok is not None]

    def _on_child(self, ev: Event) -> None:
        if self._ok is not None:
            return
        if not ev._ok:
            self.fail(ev._value)
            return
        self._remaining -= 1
        if self._remaining == 0:
            self.succeed(self._collect())


class Environment:
    """Owns the clock and the event heap.

    >>> env = Environment()
    >>> def proc(env):
    ...     yield env.timeout(1.5)
    ...     return env.now
    >>> p = env.process(proc(env))
    >>> env.run()
    >>> p.value
    1.5
    """

    __slots__ = ("_now", "_heap", "_seq", "_active_processes", "events_processed")

    def __init__(self, initial_time: float = 0.0):
        self._now = float(initial_time)
        self._heap: list[tuple[float, int, int, Event]] = []
        self._seq = 0
        self._active_processes = 0
        # Monotone count of events popped off the heap; the perf harness
        # reports simulated events/sec from it.
        self.events_processed = 0

    @property
    def now(self) -> float:
        return self._now

    # -- factories -------------------------------------------------------
    def event(self, name: str = "") -> Event:
        return Event(self, name=name)

    def timeout(self, delay: float, value: Any = None) -> Timeout:
        return Timeout(self, delay, value)

    def process(self, generator: Generator, name: str = "") -> Process:
        proc = Process(self, generator, name=name)
        self._active_processes += 1
        proc.callbacks.append(self._on_process_end)
        return proc

    def all_of(self, events: Iterable[Event]) -> AllOf:
        return AllOf(self, events)

    def _on_process_end(self, ev: Event) -> None:
        self._active_processes -= 1

    # -- scheduling -------------------------------------------------------
    def _schedule(self, event: Event, priority: int, *, delay: float = 0.0) -> None:
        if event._scheduled:
            raise SimulationError(f"event {event!r} scheduled twice")
        event._scheduled = True
        self._seq += 1
        heapq.heappush(self._heap, (self._now + delay, priority, self._seq, event))

    def discard_pending(self) -> int:
        """Drop every scheduled event unfired; the clock does not move.

        A run that stops at ``run(until=...)`` leaves later entries on the
        heap (the next poll, timers that lost a race), and their callbacks
        keep whatever they reference alive.  Dropping them lets a finished
        simulation be freed by reference counting.  Returns how many went.
        """
        dropped = len(self._heap)
        self._heap.clear()
        return dropped

    # -- execution ---------------------------------------------------------
    def step(self) -> None:
        """Process a single event from the heap."""
        when, _prio, _seq, event = heapq.heappop(self._heap)
        if when < self._now - 1e-15:
            raise SimulationError("event scheduled in the past")
        if when > self._now:
            self._now = when
        self.events_processed += 1
        event._processed = True
        callbacks = event.callbacks
        if callbacks:
            # swap before running: appends during processing must not fire
            # (waiters check _processed and requeue themselves instead)
            event.callbacks = []
            for callback in callbacks:
                callback(event)
        if event._ok is False and not event._defused:
            # A failure nobody observes would vanish silently; surface it.
            raise event._value

    def run(self, until: float | Event | None = None) -> Any:
        """Run until the given time, event, or queue exhaustion.

        With ``until=None``, drains the queue and raises
        :class:`DeadlockError` if any process is still suspended (a lost
        wakeup — e.g. a receive with no matching send).
        """
        heap = self._heap
        step = self.step
        if isinstance(until, Event):
            stop_event = until
            stop_event._defused = True
            while not stop_event._processed:
                if not heap:
                    raise DeadlockError(
                        f"event queue drained before {stop_event!r} fired"
                    )
                step()
            if not stop_event._ok:
                raise stop_event._value
            return stop_event._value
        if until is not None:
            horizon = float(until)
            if not horizon >= self._now:  # also rejects a NaN horizon
                raise SimulationError(
                    f"cannot run until {horizon}: the clock reads {self._now}"
                )
            while heap and heap[0][0] <= horizon:
                step()
            self._now = horizon
            return None
        while heap:
            step()
        if self._active_processes > 0:
            raise DeadlockError(
                f"{self._active_processes} process(es) still waiting after the "
                "event queue drained (lost wakeup / unmatched communication)"
            )
        return None
