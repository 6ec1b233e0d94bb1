"""Unit tests for Resource and PriorityResource."""

import pytest

from repro.errors import SimulationError
from repro.sim import Environment, PriorityResource, Resource


def test_capacity_validation():
    env = Environment()
    with pytest.raises(ValueError):
        Resource(env, capacity=0)


def test_immediate_grant_when_free():
    env = Environment()
    res = Resource(env, capacity=2)

    def proc(env):
        req = res.request()
        assert req.triggered  # granted synchronously
        yield req
        return res.count

    p = env.process(proc(env))
    env.run()
    assert p.value == 1


def test_fifo_queueing():
    env = Environment()
    res = Resource(env, capacity=1)
    order = []

    def worker(env, tag, hold):
        with res.request() as req:
            yield req
            order.append((tag, env.now))
            yield env.timeout(hold)

    for tag in range(3):
        env.process(worker(env, tag, 1.0))
    env.run()
    assert order == [(0, 0.0), (1, 1.0), (2, 2.0)]


def test_counts_and_queue_length():
    env = Environment()
    res = Resource(env, capacity=2)

    def holder(env):
        with res.request() as req:
            yield req
            yield env.timeout(10)

    for _ in range(5):
        env.process(holder(env))
    env.run(until=1)
    assert res.count == 2
    assert res.available == 0
    assert res.queue_length == 3
    assert res.capacity == 2


def test_release_admits_next_waiter():
    env = Environment()
    res = Resource(env, capacity=1)
    granted = []

    def first(env):
        req = res.request()
        yield req
        yield env.timeout(2)
        res.release(req)

    def second(env):
        yield env.timeout(0.5)
        with res.request() as req:
            yield req
            granted.append(env.now)

    env.process(first(env))
    env.process(second(env))
    env.run()
    assert granted == [2.0]


def test_release_unowned_request_raises():
    env = Environment()
    res = Resource(env)

    def proc(env):
        req = res.request()
        yield req
        res.release(req)
        with pytest.raises(SimulationError):
            res.release(req)

    env.process(proc(env))
    env.run()


def test_cancel_pending_request():
    env = Environment()
    res = Resource(env, capacity=1)

    def hog(env):
        with res.request() as req:
            yield req
            yield env.timeout(10)

    def impatient(env):
        req = res.request()
        outcome = yield req | env.timeout(0.3)
        assert req not in outcome
        req.cancel()
        return env.now

    env.process(hog(env))
    p = env.process(impatient(env))
    env.run()
    assert p.value == 0.3
    assert res.queue_length == 0


def test_cancel_granted_request_raises():
    env = Environment()
    res = Resource(env)

    def proc(env):
        req = res.request()
        yield req
        with pytest.raises(SimulationError):
            req.cancel()
        res.release(req)

    env.process(proc(env))
    env.run()


def test_cancel_or_release_handles_both_states():
    env = Environment()
    res = Resource(env, capacity=1)

    def hog(env):
        req = res.request()
        yield req
        yield env.timeout(5)
        req.cancel_or_release()  # granted -> release

    def waiter(env):
        yield env.timeout(1)
        req = res.request()
        outcome = yield req | env.timeout(0.1)
        req.cancel_or_release()  # pending -> cancel
        return req.triggered

    env.process(hog(env))
    p = env.process(waiter(env))
    env.run()
    assert p.value is False
    assert res.count == 0
    assert res.queue_length == 0


def test_cancelled_request_is_skipped_on_release():
    env = Environment()
    res = Resource(env, capacity=1)
    served = []

    def hog(env):
        req = res.request()
        yield req
        yield env.timeout(1)
        res.release(req)

    def quitter(env):
        req = res.request()
        yield env.timeout(0.5)
        req.cancel()

    def patient(env):
        with res.request() as req:
            yield req
            served.append(env.now)

    env.process(hog(env))
    env.process(quitter(env))
    env.process(patient(env))
    env.run()
    assert served == [1.0]


def test_request_records_issue_time():
    env = Environment()
    res = Resource(env, capacity=1)

    def proc(env):
        yield env.timeout(2.5)
        req = res.request()
        yield req
        return req.issued_at

    p = env.process(proc(env))
    env.run()
    assert p.value == 2.5


def test_priority_resource_orders_waiters():
    env = Environment()
    res = PriorityResource(env, capacity=1)
    order = []

    def hog(env):
        with res.request() as req:
            yield req
            yield env.timeout(1)

    def worker(env, prio, tag):
        yield env.timeout(0.1)
        with res.request(priority=prio) as req:
            yield req
            order.append(tag)
            yield env.timeout(0.1)

    env.process(hog(env))
    env.process(worker(env, 5, "low"))
    env.process(worker(env, 1, "high"))
    env.process(worker(env, 3, "mid"))
    env.run()
    assert order == ["high", "mid", "low"]


def test_priority_ties_break_fifo():
    env = Environment()
    res = PriorityResource(env, capacity=1)
    order = []

    def hog(env):
        with res.request() as req:
            yield req
            yield env.timeout(1)

    def worker(env, tag):
        yield env.timeout(0.1)
        with res.request(priority=2) as req:
            yield req
            order.append(tag)

    env.process(hog(env))
    for tag in ["a", "b", "c"]:
        env.process(worker(env, tag))
    env.run()
    assert order == ["a", "b", "c"]


def test_resource_repr():
    env = Environment()
    res = Resource(env, capacity=3)
    assert "capacity=3" in repr(res)
