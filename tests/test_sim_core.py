"""Unit tests for the DES environment and event loop."""

import pytest

from repro.errors import SimulationError
from repro.sim import Environment, Event, Interrupt, Timeout


def test_clock_starts_at_initial_time():
    assert Environment().now == 0.0
    assert Environment(initial_time=5.5).now == 5.5


def test_timeout_advances_clock():
    env = Environment()
    seen = []

    def proc(env):
        yield env.timeout(1.5)
        seen.append(env.now)
        yield env.timeout(0.5)
        seen.append(env.now)

    env.process(proc(env))
    env.run()
    assert seen == [1.5, 2.0]


def test_timeout_with_value():
    env = Environment()

    def proc(env):
        value = yield env.timeout(1.0, value="payload")
        return value

    proc_event = env.process(proc(env))
    env.run()
    assert proc_event.value == "payload"


def test_negative_timeout_rejected():
    env = Environment()
    with pytest.raises(SimulationError):
        env.timeout(-1)


def test_run_until_time_stops_exactly():
    env = Environment()

    def ticker(env):
        while True:
            yield env.timeout(1.0)

    env.process(ticker(env))
    env.run(until=10.0)
    assert env.now == 10.0


def test_run_until_past_time_rejected():
    env = Environment(initial_time=5.0)
    with pytest.raises(SimulationError):
        env.run(until=1.0)


def test_run_until_event_returns_value():
    env = Environment()

    def proc(env):
        yield env.timeout(2.0)
        return 42

    result = env.run(until=env.process(proc(env)))
    assert result == 42
    assert env.now == 2.0


def test_run_until_untriggered_event_raises():
    env = Environment()
    never = env.event()
    with pytest.raises(SimulationError):
        env.run(until=never)


def test_run_without_until_drains_queue():
    env = Environment()

    def proc(env):
        yield env.timeout(3.0)

    env.process(proc(env))
    env.run()
    assert env.now == 3.0
    assert len(env) == 0


def test_events_fire_in_time_order():
    env = Environment()
    order = []

    def delayed(env, delay, tag):
        yield env.timeout(delay)
        order.append(tag)

    for delay, tag in [(3, "c"), (1, "a"), (2, "b")]:
        env.process(delayed(env, delay, tag))
    env.run()
    assert order == ["a", "b", "c"]


def test_simultaneous_events_fire_fifo():
    env = Environment()
    order = []

    def tagger(env, tag):
        yield env.timeout(1.0)
        order.append(tag)

    for tag in range(5):
        env.process(tagger(env, tag))
    env.run()
    assert order == [0, 1, 2, 3, 4]


def test_event_succeed_wakes_waiter():
    env = Environment()
    gate = env.event()
    seen = []

    def waiter(env):
        value = yield gate
        seen.append((env.now, value))

    def opener(env):
        yield env.timeout(2.0)
        gate.succeed("open")

    env.process(waiter(env))
    env.process(opener(env))
    env.run()
    assert seen == [(2.0, "open")]


def test_event_fail_raises_in_waiter():
    env = Environment()
    gate = env.event()

    def waiter(env):
        try:
            yield gate
        except RuntimeError as exc:
            return str(exc)

    def failer(env):
        yield env.timeout(1.0)
        gate.fail(RuntimeError("boom"))

    waiter_proc = env.process(waiter(env))
    env.process(failer(env))
    env.run()
    assert waiter_proc.value == "boom"


def test_unhandled_event_failure_propagates():
    env = Environment()
    gate = env.event()
    gate.fail(RuntimeError("nobody listening"))
    with pytest.raises(RuntimeError, match="nobody listening"):
        env.run()


def test_defused_failure_is_silent():
    env = Environment()
    gate = env.event()
    gate.fail(RuntimeError("ignored"))
    gate.defuse()
    env.run()  # must not raise


def test_double_trigger_rejected():
    env = Environment()
    event = env.event()
    event.succeed(1)
    with pytest.raises(SimulationError):
        event.succeed(2)
    with pytest.raises(SimulationError):
        event.fail(RuntimeError())


def test_fail_requires_exception_instance():
    env = Environment()
    with pytest.raises(TypeError):
        env.event().fail("not an exception")


def test_event_value_unavailable_before_trigger():
    env = Environment()
    event = env.event()
    with pytest.raises(SimulationError):
        _ = event.value
    with pytest.raises(SimulationError):
        _ = event.ok


def test_trigger_copies_outcome():
    env = Environment()
    source = env.event()
    source.succeed("copied")
    target = env.event()
    target.trigger(source)
    env.run()
    assert target.value == "copied"


def test_schedule_into_past_rejected():
    env = Environment()
    with pytest.raises(SimulationError):
        env.schedule(env.event(), delay=-0.1)


def test_timeout_repr_and_delay():
    env = Environment()
    timeout = env.timeout(0.25)
    assert timeout.delay == 0.25
    assert "0.25" in repr(timeout)


def test_event_repr_shows_state():
    env = Environment()
    event = env.event()
    assert "pending" in repr(event)
    event.succeed()
    assert "triggered" in repr(event)
    env.run()
    assert "processed" in repr(event)


def test_nan_and_inf_schedule_rejected():
    """NaN or infinite delays would silently corrupt heap ordering:
    NaN compares false against everything, so heap invariants break and
    events dispatch in arbitrary order."""
    env = Environment()
    for bad in (float("nan"), float("inf"), -float("inf")):
        with pytest.raises(SimulationError):
            env.schedule(env.event(), delay=bad)


def test_nan_and_inf_timeout_rejected():
    env = Environment()
    for bad in (float("nan"), float("inf"), -float("inf")):
        with pytest.raises(SimulationError):
            env.timeout(bad)


def test_timeout_and_schedule_reject_a_bad_delay_alike():
    """Both ways onto the schedule raise the same class and message."""
    env = Environment()
    for bad in (float("nan"), float("inf"), -1.0):
        with pytest.raises(SimulationError) as from_timeout:
            env.timeout(bad)
        with pytest.raises(SimulationError) as from_schedule:
            env.schedule(env.event(), delay=bad)
        assert str(from_timeout.value) == str(from_schedule.value)


def test_trace_hook_sees_every_dispatched_event():
    env = Environment()
    seen = []
    env.trace = lambda when, event: seen.append((when, type(event).__name__))

    def proc(env):
        yield env.timeout(1.0)
        yield env.timeout(2.0)

    env.process(proc(env))
    env.run()
    assert [entry[1] for entry in seen] == [
        "Initialize", "Timeout", "Timeout", "Process"]
    assert [entry[0] for entry in seen] == [0.0, 1.0, 3.0, 3.0]
