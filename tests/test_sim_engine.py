"""Unit tests for the discrete-event simulation engine."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import DeadlockError, SimulationError
from repro.sim import AllOf, Environment, Resource, Store


def test_timeout_advances_clock():
    env = Environment()

    def proc(env):
        yield env.timeout(1.5)
        return env.now

    p = env.process(proc(env))
    env.run()
    assert p.value == pytest.approx(1.5)
    assert env.now == pytest.approx(1.5)


def test_zero_delay_timeout_preserves_fifo_order():
    env = Environment()
    order = []

    def proc(env, tag):
        yield env.timeout(0)
        order.append(tag)

    for tag in range(5):
        env.process(proc(env, tag))
    env.run()
    assert order == [0, 1, 2, 3, 4]


def test_process_return_value_propagates_through_yield():
    env = Environment()

    def child(env):
        yield env.timeout(2)
        return "payload"

    def parent(env):
        result = yield env.process(child(env))
        return result + "!"

    p = env.process(parent(env))
    env.run()
    assert p.value == "payload!"


def test_exception_in_child_propagates_to_parent():
    env = Environment()

    def child(env):
        yield env.timeout(1)
        raise ValueError("boom")

    def parent(env):
        try:
            yield env.process(child(env))
        except ValueError as exc:
            return f"caught {exc}"

    p = env.process(parent(env))
    env.run()
    assert p.value == "caught boom"


def test_unhandled_process_exception_surfaces_from_run():
    env = Environment()

    def bad(env):
        yield env.timeout(1)
        raise RuntimeError("unhandled")

    env.process(bad(env))
    with pytest.raises(RuntimeError, match="unhandled"):
        env.run()


def test_yielding_non_event_raises_inside_process():
    env = Environment()

    def bad(env):
        yield 42

    env.process(bad(env))
    with pytest.raises(SimulationError, match="non-event"):
        env.run()


def test_negative_timeout_rejected():
    env = Environment()
    fired = []
    for delay in (2, -1, float("nan"), 1, 3):
        if delay >= 0:
            env.timeout(delay).callbacks.append(lambda ev: fired.append(env.now))
        else:
            with pytest.raises(SimulationError):
                env.timeout(delay)
    # a NaN on the heap would break its order for the unrelated timeouts
    env.run()
    assert fired == [1, 2, 3]


def test_nan_horizon_rejected():
    env = Environment()
    env.timeout(1)
    with pytest.raises(SimulationError):
        env.run(until=float("nan"))
    assert env.now == 0
    env.run(until=2)
    assert env.now == 2


def test_discard_pending_drops_events_unfired():
    env = Environment()
    fired = []
    for delay in (1, 5, 5, 9):
        env.timeout(delay).callbacks.append(lambda ev: fired.append(env.now))
    env.run(until=2)
    assert fired == [1]
    assert env.discard_pending() == 3
    assert env.now == 2
    env.run()
    assert fired == [1]
    assert env.now == 2
    # the environment stays usable
    env.timeout(1).callbacks.append(lambda ev: fired.append(env.now))
    env.run()
    assert fired == [1, 3]


def test_event_double_trigger_rejected():
    env = Environment()
    ev = env.event()
    ev.succeed(1)
    with pytest.raises(SimulationError):
        ev.succeed(2)


def test_all_of_waits_for_every_event():
    env = Environment()

    def proc(env):
        t1 = env.timeout(1, value="a")
        t2 = env.timeout(3, value="b")
        values = yield AllOf(env, [t1, t2])
        return env.now, values

    p = env.process(proc(env))
    env.run()
    now, values = p.value
    assert now == pytest.approx(3)
    assert values == ["a", "b"]


def test_all_of_empty_fires_immediately():
    env = Environment()

    def proc(env):
        yield AllOf(env, [])
        return env.now

    p = env.process(proc(env))
    env.run()
    assert p.value == 0


def test_run_until_time_stops_midway():
    env = Environment()
    seen = []

    def proc(env):
        for _ in range(10):
            yield env.timeout(1)
            seen.append(env.now)

    env.process(proc(env))
    env.run(until=4.5)
    assert seen == [1, 2, 3, 4]
    assert env.now == pytest.approx(4.5)


def test_run_until_event():
    env = Environment()

    def proc(env):
        yield env.timeout(2)
        return "done"

    p = env.process(proc(env))
    result = env.run(until=p)
    assert result == "done"
    assert env.now == pytest.approx(2)


def test_deadlock_detection_on_unmatched_wait():
    env = Environment()

    def waiter(env):
        yield env.event()  # never triggered

    env.process(waiter(env))
    with pytest.raises(DeadlockError):
        env.run()


def test_yield_already_processed_event_resumes_immediately():
    env = Environment()

    def proc(env):
        t = env.timeout(1)
        yield env.timeout(5)  # t fires and is processed meanwhile
        value = yield t
        return env.now, value

    def other(env, t):
        # Make sure the timeout is processed (has a waiter) before re-yield.
        yield t

    t_holder = {}

    def outer(env):
        t = env.timeout(1, value="v")
        t_holder["t"] = t
        yield env.timeout(5)
        value = yield t
        return env.now, value

    p = env.process(outer(env))
    env.run()
    now, value = p.value
    assert now == pytest.approx(5)
    assert value == "v"


class TestResource:
    def test_serializes_beyond_capacity(self):
        env = Environment()
        res = Resource(env, capacity=1)
        spans = {}

        def user(env, tag):
            yield res.request()
            start = env.now
            yield env.timeout(2)
            res.release()
            spans[tag] = (start, env.now)

        env.process(user(env, "a"))
        env.process(user(env, "b"))
        env.run()
        assert spans["a"] == (0, 2)
        assert spans["b"] == (2, 4)

    def test_capacity_two_runs_concurrently(self):
        env = Environment()
        res = Resource(env, capacity=2)
        ends = []

        def user(env):
            yield res.request()
            yield env.timeout(2)
            res.release()
            ends.append(env.now)

        for _ in range(2):
            env.process(user(env))
        env.run()
        assert ends == [2, 2]

    def test_fifo_grant_order(self):
        env = Environment()
        res = Resource(env, capacity=1)
        order = []

        def user(env, tag, delay):
            yield env.timeout(delay)
            yield res.request()
            order.append(tag)
            yield env.timeout(1)
            res.release()

        env.process(user(env, "first", 0.0))
        env.process(user(env, "second", 0.1))
        env.process(user(env, "third", 0.2))
        env.run()
        assert order == ["first", "second", "third"]

    def test_release_without_request_raises(self):
        env = Environment()
        res = Resource(env, capacity=1)
        with pytest.raises(SimulationError):
            res.release()

    def test_wait_statistics(self):
        env = Environment()
        res = Resource(env, capacity=1)

        def user(env):
            yield res.request()
            yield env.timeout(5)
            res.release()

        env.process(user(env))
        env.process(user(env))
        env.run()
        assert res.grant_count == 2
        assert res.total_wait_time == pytest.approx(5)


class TestStore:
    def test_put_then_get(self):
        env = Environment()
        store = Store(env)

        def producer(env):
            yield env.timeout(1)
            store.put("x")

        def consumer(env):
            item = yield store.get()
            return env.now, item

        env.process(producer(env))
        c = env.process(consumer(env))
        env.run()
        assert c.value == (1.0, "x")

    def test_get_before_put_blocks(self):
        env = Environment()
        store = Store(env)

        def consumer(env):
            item = yield store.get()
            return env.now, item

        def producer(env):
            yield env.timeout(7)
            store.put("late")

        c = env.process(consumer(env))
        env.process(producer(env))
        env.run()
        assert c.value == (7.0, "late")

    def test_fifo_ordering(self):
        env = Environment()
        store = Store(env)
        got = []

        def consumer(env):
            for _ in range(3):
                item = yield store.get()
                got.append(item)

        def producer(env):
            for item in "abc":
                store.put(item)
                yield env.timeout(1)

        env.process(consumer(env))
        env.process(producer(env))
        env.run()
        assert got == ["a", "b", "c"]


class TestConditionFailures:
    def test_all_of_fails_fast_on_child_failure(self):
        env = Environment()

        def failing(env):
            yield env.timeout(1)
            raise ValueError("child died")

        def parent(env):
            try:
                yield AllOf(env, [env.timeout(10), env.process(failing(env))])
            except ValueError as exc:
                return f"caught at {env.now}: {exc}"

        p = env.process(parent(env))
        env.run(until=p)
        assert p.value == "caught at 1.0: child died"

    def test_nested_conditions(self):
        env = Environment()

        def proc(env):
            inner = AllOf(env, [env.timeout(1, "a"), env.timeout(2, "b")])
            value = yield AllOf(env, [inner, env.timeout(3, "c")])
            return env.now, value

        p = env.process(proc(env))
        env.run()
        now, value = p.value
        assert now == pytest.approx(3)
        assert value == [["a", "b"], "c"]

    def test_event_value_before_trigger_rejected(self):
        env = Environment()
        ev = env.event()
        with pytest.raises(SimulationError):
            _ = ev.value

    def test_fail_requires_exception_instance(self):
        env = Environment()
        with pytest.raises(SimulationError):
            env.event().fail("not an exception")


# keep hypothesis fast and deterministic in CI
FAST = settings(max_examples=50, deadline=None)

# finite non-negative delays; tight upper bound keeps runs instantaneous
_delays = st.lists(
    st.floats(0.0, 100.0, allow_nan=False, allow_infinity=False),
    min_size=1, max_size=30,
)


def _firing_order(delays, spawn_perm):
    """Spawn one process per delay (in permuted order) and record the
    (time, tag) sequence in which they complete."""
    env = Environment()
    order = []

    def proc(env, tag, delay):
        yield env.timeout(delay)
        order.append((env.now, tag))

    for tag in spawn_perm:
        env.process(proc(env, int(tag), delays[int(tag)]))
    env.run()
    return order


class TestEventOrderingProperties:
    """The replay contract's foundation: the event queue is a *stable*
    priority queue.  Completion order is a pure function of (delays,
    spawn order) — re-running the same schedule, in any process, yields
    the identical sequence, and equal timestamps resolve in scheduling
    (FIFO) order, never by comparison of payloads or heap accidents."""

    @given(delays=_delays, seed=st.integers(0, 2**32 - 1))
    @FAST
    def test_order_deterministic_in_seed_and_schedule(self, delays, seed):
        perm = np.random.default_rng(seed).permutation(len(delays))
        assert _firing_order(delays, perm) == _firing_order(delays, perm)

    @given(delays=_delays, seed=st.integers(0, 2**32 - 1))
    @FAST
    def test_order_sorted_by_time_stable_in_spawn_order(self, delays, seed):
        perm = np.random.default_rng(seed).permutation(len(delays))
        order = _firing_order(delays, perm)
        times = [t for t, _ in order]
        assert times == sorted(times)
        # among equal timestamps, completion order == spawn order
        spawn_rank = {int(tag): i for i, tag in enumerate(perm)}
        for (t1, a), (t2, b) in zip(order, order[1:]):
            if t1 == t2:
                assert spawn_rank[a] < spawn_rank[b]

    @given(
        dup=st.floats(0.0, 10.0, allow_nan=False, allow_infinity=False),
        n=st.integers(2, 20),
        seed=st.integers(0, 2**32 - 1),
    )
    @FAST
    def test_identical_timestamps_fire_fifo(self, dup, n, seed):
        """All-equal delays: pure tie-break territory.  The firing order
        must be exactly the spawn order (replay-safe: no dependence on
        heap layout or hashing)."""
        perm = np.random.default_rng(seed).permutation(n)
        order = _firing_order([dup] * n, perm)
        assert [tag for _, tag in order] == [int(t) for t in perm]

    @given(delays=_delays)
    @FAST
    def test_interleaved_spawn_does_not_reorder_equal_times(self, delays):
        """Timeouts scheduled *during* the run (from a running process)
        join the back of their timestamp's FIFO class, exactly as replay
        assumes when it re-injects recorded completions."""
        env = Environment()
        order = []

        def leaf(env, tag, delay):
            yield env.timeout(delay)
            order.append(tag)

        def spawner(env):
            for tag, d in enumerate(delays):
                env.process(leaf(env, tag, d))
                yield env.timeout(0)

        env.process(spawner(env))
        env.run()
        by_delay = sorted(range(len(delays)),
                          key=lambda i: (delays[i], i))
        assert order == by_delay
