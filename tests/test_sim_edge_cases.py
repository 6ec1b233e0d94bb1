"""Edge-case tests for the DES kernel that the models rely on."""

import pytest

from repro.errors import SimulationError
from repro.sim import (
    AnyOf,
    DropQueue,
    Environment,
    Event,
    Interrupt,
    Store,
)
from repro.sim.calendar import (
    DEFAULT_BUCKETS,
    GROW_FACTOR,
    MIN_BUCKETS,
    CalendarQueue,
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


def _entry(t, seq):
    """A kernel-shaped ``(time, key, payload)`` scheduler entry.

    The kernel packs ``key = (priority << 53) | eid``; the scheduler's
    contract is plain tuple comparison, so a bare sequence int is an
    equivalent key for direct queue tests.
    """
    return (t, seq, ("payload", seq))


def _drain(queue):
    out = []
    while True:
        entry = queue.pop()
        if entry is None:
            return out
        out.append(entry)


class TestCalendarQueueOrdering:
    """Direct scheduler tests: pop order must equal global sorted order
    of ``(time, key)`` in every wheel configuration the kernel can hit
    (the golden-trace hashes depend on exactly this)."""

    def test_pop_order_globally_sorted_with_duplicates(self):
        import random

        rng = random.Random(7)
        entries = [_entry(rng.choice([0.0, 1e-4, 1e-3, 0.05, 0.3, 2.0]),
                          seq) for seq in range(500)]
        queue = CalendarQueue()
        shuffled = entries[:]
        rng.shuffle(shuffled)
        for entry in shuffled:
            queue.push(entry)
        assert _drain(queue) == sorted(entries)
        assert len(queue) == 0 and not queue

    def test_same_timestamp_cluster_pops_in_sequence_order(self):
        """A large equal-time cohort cannot be spread by any bucket
        width; FIFO order must still hold exactly."""
        queue = CalendarQueue()
        n = 4 * GROW_FACTOR * DEFAULT_BUCKETS  # forces resize attempts
        for seq in range(n):
            queue.push(_entry(0.123, seq))
        assert [e[1] for e in _drain(queue)] == list(range(n))

    def test_same_timestamp_cluster_backs_off_resizing(self):
        """An unspreadable cluster must not re-trigger an O(n) rebuild
        on every subsequent push: when the rebuild cannot spread the
        pending set below the new wheel's grow trigger, the trigger
        backs off to ``count * GROW_FACTOR`` (white-box: ``_resize`` is
        invoked directly because the push-triggered doubling always
        provides enough headroom on its own)."""
        queue = CalendarQueue()
        n = 3 * MIN_BUCKETS
        entries = [_entry(0.1, seq) for seq in range(n)]
        for entry in entries:
            queue.push(entry)
        queue._resize(MIN_BUCKETS)  # cannot spread n same-time entries
        assert queue._grow_at == n * GROW_FACTOR
        assert _drain(queue) == entries

    def test_overflow_pushes_never_trigger_resize(self):
        """Beyond-horizon entries sit in the overflow heap, not the
        wheel, so piling them up must not grow the wheel."""
        queue = CalendarQueue()
        for seq in range(4 * GROW_FACTOR * DEFAULT_BUCKETS):
            queue.push(_entry(1e3 + seq, seq))
        assert queue.nbuckets == DEFAULT_BUCKETS

    def test_beyond_horizon_entries_go_to_overflow(self):
        queue = CalendarQueue()
        horizon = queue._horizon
        near = [_entry(1e-4 * i, seq) for seq, i in enumerate(range(10))]
        far = [_entry(horizon * (i + 1.5), 100 + i) for i in range(5)]
        for entry in far + near:
            queue.push(entry)
        assert len(queue._overflow) == len(far)
        assert _drain(queue) == sorted(near + far)

    def test_far_future_entry_jumps_epochs(self):
        """A lone entry many epochs out must pop without scanning every
        empty intermediate epoch (the rollover jump path)."""
        queue = CalendarQueue()
        entry = _entry(1e6, 1)
        queue.push(entry)
        assert queue.pop() == entry
        assert queue.pop() is None

    def test_push_into_draining_slot_keeps_order(self):
        """Zero-delay scheduling lands in the current slot while it
        drains; both the append fast path and the insort path must
        place the entry correctly against the undrained suffix."""
        queue = CalendarQueue()
        queue.push(_entry(1e-4, 1))
        queue.push(_entry(9e-4, 2))   # same initial slot (width 1 ms)
        assert queue.pop() == _entry(1e-4, 1)
        queue.push(_entry(2e-4, 3))   # < ready tail: insort path
        queue.push(_entry(9.5e-4, 4))  # >= ready tail: append path
        assert [e[1] for e in _drain(queue)] == [3, 2, 4]


class TestCalendarQueueResize:
    def test_grows_under_load_and_keeps_order(self):
        queue = CalendarQueue()
        entries = [_entry(i * 1e-5, i)
                   for i in range(4 * GROW_FACTOR * DEFAULT_BUCKETS)]
        for entry in entries:
            queue.push(entry)
        assert queue.nbuckets > DEFAULT_BUCKETS
        assert _drain(queue) == entries

    def test_resize_adapts_width_to_skewed_spacing(self):
        """Dense sub-microsecond cluster plus a sparse far tail: the
        re-estimated width must follow the median gap (the cluster),
        not the outliers, and order must survive the rebuild."""
        dense = [_entry(i * 1e-6, i) for i in range(600)]
        sparse = [_entry(10.0 + i, 1000 + i) for i in range(5)]
        queue = CalendarQueue()
        for entry in sparse + dense:
            queue.push(entry)
        assert queue.nbuckets > DEFAULT_BUCKETS
        assert queue.width < 1e-4  # tracked the dense cluster's gaps
        assert _drain(queue) == sorted(dense + sparse)

    def test_resize_mid_drain_resumes_exactly(self):
        """Growing while the current slot is partially consumed must
        not replay popped entries or skip pending ones."""
        queue = CalendarQueue()
        first = [_entry(i * 1e-6, i) for i in range(100)]
        for entry in first:
            queue.push(entry)
        popped = [queue.pop() for _ in range(50)]
        assert popped == first[:50]
        rest = [_entry(1e-3 + i * 1e-6, 100 + i)
                for i in range(2 * GROW_FACTOR * DEFAULT_BUCKETS)]
        for entry in rest:
            queue.push(entry)
        assert queue.nbuckets > DEFAULT_BUCKETS
        assert _drain(queue) == first[50:] + rest

    def test_shrinks_at_rollover_when_nearly_empty(self):
        queue = CalendarQueue()
        # 0.2 ms spacing keeps every entry inside the initial 0.256 s
        # horizon, so the pushes land in the wheel and trigger growth.
        spread = [_entry(i * 2e-4, i)
                  for i in range(2 * GROW_FACTOR * DEFAULT_BUCKETS)]
        for entry in spread:
            queue.push(entry)
        grown = queue.nbuckets
        assert grown > DEFAULT_BUCKETS
        straggler = _entry(1e4, 10 ** 6)
        queue.push(straggler)
        for expected in spread:
            assert queue.pop() == expected
        # Next pop crosses an epoch boundary with one pending entry:
        # the wheel must halve rather than scan at full size forever.
        assert queue.pop() == straggler
        assert queue.nbuckets < grown
        assert queue.nbuckets >= MIN_BUCKETS

    def test_never_shrinks_below_min_buckets(self):
        queue = CalendarQueue(nbuckets=MIN_BUCKETS)
        queue.push(_entry(1e5, 1))
        assert queue.pop() == _entry(1e5, 1)
        assert queue.nbuckets == MIN_BUCKETS


class TestSchedulerThroughEnvironment:
    """The same edge cases driven through the public kernel API."""

    def test_zero_delay_during_drain_runs_before_later_same_slot(self):
        """A zero-delay continuation scheduled *while its slot drains*
        must fire before a later event in the same bucket."""
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
        """Think-time events (~1 s) start beyond the default wheel
        horizon (0.256 s) and must interleave correctly with the sub-ms
        service-time churn the wheel is tuned for."""
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
            with pytest.raises((ValueError, SimulationError)):
                env.timeout(bad)
        assert len(env) == pending
        env.run()
        assert env.now == 1.0

    def test_massive_same_time_cohort_is_fifo_through_resize(self):
        """Enough simultaneous processes to force wheel resizes while
        every event shares one timestamp: completion order must stay
        process-creation order (the packed-key FIFO contract)."""
        env = Environment()
        fired = []
        n = 2 * GROW_FACTOR * DEFAULT_BUCKETS

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
