"""Edge-case tests for the DES kernel that the models rely on."""

import pytest

from repro.errors import SimulationError
from repro.sim import (
    NORMAL,
    URGENT,
    AnyOf,
    DropQueue,
    Environment,
    Event,
    Interrupt,
    Store,
)
from repro.sim.monitor import MonitorHub, Sampler


class TestStoreGetCancel:
    def test_cancel_pending_get_removes_waiter(self):
        env = Environment()
        store = Store(env)

        def impatient(env):
            get = store.get()
            outcome = yield get | env.timeout(0.5)
            assert get not in outcome
            get.cancel()
            return env.now

        def late_producer(env):
            yield env.timeout(1.0)
            yield store.put("late")

        p = env.process(impatient(env))
        env.process(late_producer(env))
        env.run()
        assert p.value == 0.5
        # The cancelled getter must not have consumed the item.
        assert list(store.items) == ["late"]

    def test_cancel_after_fulfilment_is_noop(self):
        env = Environment()
        store = Store(env)
        store.put("item")

        def consumer(env):
            get = store.get()
            value = yield get
            get.cancel()  # already triggered: must not blow up
            return value

        p = env.process(consumer(env))
        env.run()
        assert p.value == "item"

    def test_drop_queue_get_cancel(self):
        env = Environment()
        queue = DropQueue(env, capacity=4)

        def impatient(env):
            get = queue.get()
            yield env.timeout(0.1)
            get.cancel()

        env.process(impatient(env))
        env.run()
        # After cancellation an offer goes to the queue, not the
        # withdrawn waiter.
        assert queue.offer("x")
        assert len(queue) == 1


class TestProcessInterruptRaces:
    def test_double_interrupt_before_delivery(self):
        env = Environment()
        causes = []

        def victim(env):
            while True:
                try:
                    yield env.timeout(10)
                    return
                except Interrupt as interrupt:
                    causes.append(interrupt.cause)

        def attacker(env, victim_proc):
            yield env.timeout(1)
            victim_proc.interrupt("first")
            victim_proc.interrupt("second")

        v = env.process(victim(env))
        env.process(attacker(env, v))
        env.run(until=5)
        assert causes == ["first", "second"]

    def test_interrupt_racing_with_completion_is_dropped(self):
        env = Environment()

        def victim(env):
            yield env.timeout(1.0)
            return "done"

        def attacker(env, victim_proc):
            # Interrupt scheduled at the exact completion time: the
            # victim finishes first (its timeout was scheduled
            # earlier), so the interrupt must be silently dropped.
            yield env.timeout(1.0)
            if victim_proc.is_alive:
                victim_proc.interrupt()

        v = env.process(victim(env))
        env.process(attacker(env, v))
        env.run()
        assert v.value == "done"


class TestConditionEdgeCases:
    def test_any_of_with_already_processed_event(self):
        env = Environment()
        done = env.event()
        done.succeed("early")
        env.run()  # processes `done`

        def waiter(env):
            result = yield AnyOf(env, [done, env.timeout(5)])
            return (env.now, done in result)

        p = env.process(waiter(env))
        env.run()
        assert p.value == (0.0, True)

    def test_condition_with_failed_preprocessed_event(self):
        env = Environment()
        bad = env.event()
        bad.fail(RuntimeError("early failure"))
        bad.defuse()
        env.run()

        def waiter(env):
            try:
                yield bad & env.timeout(1)
            except RuntimeError:
                return "propagated"

        p = env.process(waiter(env))
        env.run()
        assert p.value == "propagated"

    def test_or_chain_returns_first_of_many(self):
        env = Environment()

        def waiter(env):
            timeouts = [env.timeout(delay, value=delay)
                        for delay in (3.0, 1.0, 2.0)]
            result = yield timeouts[0] | timeouts[1] | timeouts[2]
            return result.values()

        p = env.process(waiter(env))
        env.run(until=10)
        assert p.value == [1.0]


class TestEnvironmentEdgeCases:
    def test_run_until_event_that_fails(self):
        env = Environment()
        gate = env.event()

        def failer(env):
            yield env.timeout(1)
            gate.fail(ValueError("stop signal"))

        env.process(failer(env))
        with pytest.raises(ValueError, match="stop signal"):
            env.run(until=gate)

    def test_nested_process_chains(self):
        env = Environment()

        def leaf(env, depth):
            yield env.timeout(0.1)
            return depth

        def node(env, depth):
            if depth == 0:
                value = yield env.process(leaf(env, depth))
                return value
            value = yield env.process(node(env, depth - 1))
            return value + 1

        p = env.process(node(env, 20))
        env.run()
        assert p.value == 20
        assert env.now == pytest.approx(0.1)

    def test_many_simultaneous_events_drain(self):
        env = Environment()
        fired = []

        def proc(env, tag):
            yield env.timeout(1.0)
            fired.append(tag)

        for tag in range(1000):
            env.process(proc(env, tag))
        env.run()
        assert fired == list(range(1000))


class TestSchedulerThroughEnvironment:
    """Schedule ordering edge cases, driven through the public kernel
    API: events must pop in exact ``(time, priority, creation)`` order
    (the golden-trace hashes depend on exactly this)."""

    def test_fire_order_is_time_priority_creation(self):
        """Events created in shuffled order, with duplicate times and
        both priorities at a shared time, fire sorted by ``(time,
        priority, creation)``: URGENT before NORMAL at equal times,
        then first created first."""
        import random

        rng = random.Random(7)
        specs = [(rng.choice([0.0, 1e-4, 1e-3, 0.05, 0.3, 2.0]), None)
                 for _ in range(500)]
        specs += [(0.05, priority) for priority in (URGENT, NORMAL) * 20]
        rng.shuffle(specs)
        env = Environment()
        fired = []
        for creation, (delay, priority) in enumerate(specs):
            if priority is None:
                event = env.timeout(delay)
                priority = NORMAL
            else:
                event = env.event()
                env.schedule(event, priority=priority, delay=delay)
            key = (delay, priority, creation)
            event.callbacks.append(lambda _, key=key: fired.append(key))
        env.run()
        assert len(fired) == len(specs)
        assert fired == sorted(fired)
        at_shared = [priority for t, priority, _ in fired if t == 0.05]
        assert at_shared[:20] == [URGENT] * 20
        assert set(at_shared[20:]) == {NORMAL}

    def test_zero_delay_during_drain_runs_before_later_same_slot(self):
        """A zero-delay continuation scheduled while the schedule drains
        must fire before a later event less than a millisecond on."""
        env = Environment()
        order = []

        def early(env):
            yield env.timeout(1e-4)
            order.append("early")
            yield env.timeout(0.0)
            order.append("continuation")

        def late(env):
            yield env.timeout(9e-4)
            order.append("late")

        env.process(early(env))
        env.process(late(env))
        env.run()
        assert order == ["early", "continuation", "late"]

    def test_think_time_scale_mixes_with_sub_ms_events(self):
        """Think-time events (~1 s) must interleave correctly with
        sub-ms service-time churn."""
        env = Environment()
        fired = []

        def at(env, delay, tag):
            yield env.timeout(delay)
            fired.append((env.now, tag))

        delays = ([(i * 1e-3, "svc%d" % i) for i in range(50)]
                  + [(1.0 + i * 0.9, "think%d" % i) for i in range(5)])
        for delay, tag in reversed(delays):
            env.process(at(env, delay, tag))
        env.run()
        assert fired == sorted(fired)
        assert len(fired) == len(delays)

    def test_rejected_delay_leaves_scheduler_usable(self):
        """A NaN/inf rejection must not corrupt the pending schedule:
        the raise happens before anything is inserted."""
        env = Environment()
        env.timeout(1.0, value="ok")
        pending = len(env)
        for bad in (float("nan"), float("inf"), -1.0):
            with pytest.raises(SimulationError):
                env.timeout(bad)
        assert len(env) == pending
        env.run()
        assert env.now == 1.0

    def test_massive_same_time_cohort_is_fifo(self):
        """A large cohort of simultaneous processes where every event
        shares one timestamp: completion order must stay
        process-creation order (the packed-key FIFO contract)."""
        env = Environment()
        fired = []
        n = 1024

        def proc(env, tag):
            yield env.timeout(0.5)
            fired.append(tag)

        for tag in range(n):
            env.process(proc(env, tag))
        env.run()
        assert fired == list(range(n))


class TestMonitorHub:
    def test_hub_series_match_per_sampler_series(self):
        """Batched sampling is a pure scheduling optimisation: the
        recorded (time, value) series must equal dedicated-process
        samplers probing the same state."""

        def build(use_hub):
            env = Environment()
            state = {"v": 0}

            def bump(env):
                while True:
                    yield env.timeout(0.1)
                    state["v"] += 1

            env.process(bump(env))
            hub = MonitorHub(env, period=0.25) if use_hub else None
            samplers = [Sampler(env, lambda: state["v"], period=0.25,
                                name="s%d" % i, hub=hub)
                        for i in range(3)]
            env.run(until=1.0)
            return [s.series() for s in samplers]

        assert build(use_hub=True) == build(use_hub=False)

    def test_unused_hub_schedules_nothing(self):
        env = Environment()
        MonitorHub(env, period=0.05)
        assert len(env) == 0

    def test_hub_sampler_owns_no_process(self):
        env = Environment()
        hub = MonitorHub(env, period=0.05)
        sampler = Sampler(env, lambda: 0, hub=hub)
        assert sampler._process is None
        assert len(hub) == 1
        assert sampler.period == hub.period

    def test_late_attach_joins_next_tick(self):
        env = Environment()
        hub = MonitorHub(env, period=0.25)
        first = Sampler(env, lambda: "a", hub=hub)
        late = {}

        def attach_later(env):
            yield env.timeout(0.6)
            late["sampler"] = Sampler(env, lambda: "b", hub=hub)

        env.process(attach_later(env))
        env.run(until=1.1)
        assert first.times == pytest.approx([0.0, 0.25, 0.5, 0.75, 1.0])
        # Attached at 0.6: first shared tick it can see is 0.75.
        assert late["sampler"].times == pytest.approx([0.75, 1.0])

    def test_stop_halts_every_attached_sampler(self):
        env = Environment()
        hub = MonitorHub(env, period=0.25)
        samplers = [Sampler(env, lambda: 1, hub=hub) for _ in range(2)]

        def stopper(env):
            yield env.timeout(0.6)
            hub.stop()
            hub.stop()  # idempotent

        env.process(stopper(env))
        env.run(until=2.0)
        for sampler in samplers:
            assert sampler.times == pytest.approx([0.0, 0.25, 0.5])

    def test_hub_validation(self):
        with pytest.raises(ValueError):
            MonitorHub(Environment(), period=0.0)
