"""Unit tests for Store, DropQueue, Sampler, and TraceLog."""

import pytest

from repro.sim import DropQueue, Environment, Sampler, Store, TraceLog


def test_store_put_get_fifo():
    env = Environment()
    store = Store(env)
    received = []

    def producer(env):
        for item in "abc":
            yield store.put(item)
            yield env.timeout(1)

    def consumer(env):
        for _ in range(3):
            item = yield store.get()
            received.append((item, env.now))

    env.process(producer(env))
    env.process(consumer(env))
    env.run()
    assert [item for item, _ in received] == ["a", "b", "c"]


def test_store_get_blocks_until_item():
    env = Environment()
    store = Store(env)

    def consumer(env):
        item = yield store.get()
        return (item, env.now)

    def producer(env):
        yield env.timeout(2)
        yield store.put("late")

    p = env.process(consumer(env))
    env.process(producer(env))
    env.run()
    assert p.value == ("late", 2.0)


def test_store_capacity_blocks_put():
    env = Environment()
    store = Store(env, capacity=1)
    put_times = []

    def producer(env):
        for item in range(3):
            yield store.put(item)
            put_times.append(env.now)

    def consumer(env):
        while True:
            yield env.timeout(1)
            yield store.get()

    env.process(producer(env))
    env.process(consumer(env))
    env.run(until=10)
    assert put_times == [0.0, 1.0, 2.0]


def test_store_validation_and_introspection():
    env = Environment()
    with pytest.raises(ValueError):
        Store(env, capacity=0)
    store = Store(env, capacity=7)
    assert store.capacity == 7
    assert len(store) == 0
    store.put("x")
    env.run()
    assert len(store) == 1
    assert "items=1" in repr(store)


def test_drop_queue_accepts_until_full():
    env = Environment()
    queue = DropQueue(env, capacity=3)
    results = [queue.offer(i) for i in range(5)]
    assert results == [True, True, True, False, False]
    assert queue.offered == 5
    assert queue.accepted == 3
    assert queue.dropped == 2


def test_drop_queue_drop_callback():
    env = Environment()
    dropped = []
    queue = DropQueue(env, capacity=1, on_drop=dropped.append)
    queue.offer("kept")
    queue.offer("lost")
    assert dropped == ["lost"]


def test_drop_queue_hands_item_to_waiting_consumer():
    env = Environment()
    queue = DropQueue(env, capacity=1)

    def consumer(env):
        item = yield queue.get()
        return (item, env.now)

    def producer(env):
        yield env.timeout(1)
        assert queue.offer("direct")

    p = env.process(consumer(env))
    env.process(producer(env))
    env.run()
    assert p.value == ("direct", 1.0)
    # Direct handoff never sits in the queue.
    assert len(queue) == 0


def test_drop_queue_direct_handoff_not_counted_against_capacity():
    env = Environment()
    queue = DropQueue(env, capacity=1)
    queue.offer("fills")

    def consumer(env):
        first = yield queue.get()
        second = yield queue.get()
        return [first, second]

    def producer(env):
        # By now the consumer is parked on its second get(): the offer is
        # handed over directly even though the queue capacity is 1.
        yield env.timeout(1)
        assert queue.offer("second")

    p = env.process(consumer(env))
    env.process(producer(env))
    env.run()
    assert p.value == ["fills", "second"]


def test_drop_queue_peak_length():
    env = Environment()
    queue = DropQueue(env, capacity=10)
    for i in range(6):
        queue.offer(i)

    def consumer(env):
        for _ in range(6):
            yield queue.get()

    env.process(consumer(env))
    env.run()
    assert queue.peak_length == 6
    assert len(queue) == 0


def test_drop_queue_validation():
    env = Environment()
    with pytest.raises(ValueError):
        DropQueue(env, capacity=0)


def test_drop_queue_repr():
    env = Environment()
    queue = DropQueue(env, capacity=2)
    queue.offer(1)
    assert "1/2" in repr(queue)


def test_sampler_records_on_period():
    env = Environment()
    state = {"value": 0}

    def bump(env):
        while True:
            yield env.timeout(0.1)
            state["value"] += 1

    env.process(bump(env))
    sampler = Sampler(env, lambda: state["value"], period=0.25, name="probe")
    env.run(until=1.0)
    times, values = sampler.series()
    assert times == pytest.approx([0.0, 0.25, 0.5, 0.75])
    # At the 0.5 tie the sampler's timeout was scheduled first (at 0.25,
    # before the bumper's 0.4), so it samples before the 5th bump lands.
    assert values == [0, 2, 4, 7]
    assert len(sampler) == 4


def test_sampler_stop():
    env = Environment()
    sampler = Sampler(env, lambda: 1, period=0.5)
    env.run(until=1.2)
    sampler.stop()
    sampler.stop()  # idempotent
    env.run(until=5.0)
    assert len(sampler) == 3  # samples at 0.0, 0.5, 1.0 only


def test_sampler_validation():
    env = Environment()
    with pytest.raises(ValueError):
        Sampler(env, lambda: 0, period=0)


def test_tracelog_records_and_filters():
    env = Environment()
    trace = TraceLog(env, name="dispatch")

    def proc(env):
        for i in range(5):
            trace.log({"seq": i})
            yield env.timeout(1)

    env.process(proc(env))
    env.run()
    assert len(trace) == 5
    window = trace.between(1.0, 3.0)
    assert [payload["seq"] for _, payload in window] == [1, 2]
    assert [t for t, _ in trace] == [0.0, 1.0, 2.0, 3.0, 4.0]
