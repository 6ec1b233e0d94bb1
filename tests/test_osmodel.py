"""Unit tests for the OS substrate: Disk, PageCache, Cpu, FlushDaemon, Host."""

import pytest

from repro.errors import ConfigurationError
from repro.osmodel import (
    Cpu,
    Disk,
    Host,
    MillibottleneckProfile,
    PageCache,
)
from repro.sim import Environment


class TestDisk:
    def test_write_duration(self):
        env = Environment()
        disk = Disk(env, write_bandwidth=100e6)
        assert disk.write_duration(50e6) == pytest.approx(0.5)
        assert disk.write_duration(0) == 0.0

    def test_validation(self):
        env = Environment()
        with pytest.raises(ValueError):
            Disk(env, write_bandwidth=0)
        disk = Disk(env)
        with pytest.raises(ValueError):
            disk.write_duration(-1)

    def test_write_occupies_channel_serially(self):
        env = Environment()
        disk = Disk(env, write_bandwidth=1e6)
        done = []

        def writer(env, tag):
            yield from disk.write(1e6)  # 1 second each
            done.append((tag, env.now))

        env.process(writer(env, "a"))
        env.process(writer(env, "b"))
        env.run()
        assert done == [("a", 1.0), ("b", 2.0)]
        assert disk.bytes_written == pytest.approx(2e6)
        assert disk.writes_completed == 2

    def test_busy_flag(self):
        env = Environment()
        disk = Disk(env, write_bandwidth=1e6)
        seen = []

        def writer(env):
            yield from disk.write(1e6)

        def prober(env):
            yield env.timeout(0.5)
            seen.append(disk.busy)
            yield env.timeout(1.0)
            seen.append(disk.busy)

        env.process(writer(env))
        env.process(prober(env))
        env.run()
        assert seen == [True, False]


class TestPageCache:
    def test_write_accumulates_dirty_bytes(self):
        cache = PageCache(Environment())
        cache.write(100)
        cache.write(200)
        assert cache.dirty_bytes == 300
        assert cache.total_written == 300

    def test_take_all_resets(self):
        cache = PageCache(Environment())
        cache.write(500)
        assert cache.take_all() == 500
        assert cache.dirty_bytes == 0
        assert cache.total_flushed == 500

    def test_take_partial(self):
        cache = PageCache(Environment())
        cache.write(100)
        assert cache.take(30) == 30
        assert cache.dirty_bytes == 70
        assert cache.take(1000) == 70
        assert cache.dirty_bytes == 0

    def test_validation(self):
        cache = PageCache(Environment())
        with pytest.raises(ValueError):
            cache.write(-1)
        with pytest.raises(ValueError):
            cache.take(-1)


class TestCpu:
    def test_execute_accounts_user_time(self):
        env = Environment()
        cpu = Cpu(env, cores=2)

        def work(env):
            yield from cpu.execute(0.5)

        env.process(work(env))
        env.run()
        assert cpu.user.busy_seconds(env.now) == pytest.approx(0.5)
        assert cpu.utilization(0.0, 0.5) == pytest.approx(0.5)  # 1 of 2 cores

    def test_execute_queues_when_cores_busy(self):
        env = Environment()
        cpu = Cpu(env, cores=1)
        finished = []

        def work(env, tag):
            yield from cpu.execute(1.0)
            finished.append((tag, env.now))

        env.process(work(env, "a"))
        env.process(work(env, "b"))
        env.run()
        assert finished == [("a", 1.0), ("b", 2.0)]

    def test_stall_blocks_foreground(self):
        env = Environment()
        cpu = Cpu(env, cores=2)
        finished = []

        def stall(env):
            yield env.timeout(0.1)
            yield from cpu.stall(0.5)

        def work(env, tag, delay):
            yield env.timeout(delay)
            yield from cpu.execute(0.05)
            finished.append((tag, env.now))

        env.process(stall(env))
        env.process(work(env, "before", 0.0))
        env.process(work(env, "during", 0.2))
        env.run()
        # "before" completes normally; "during" arrives mid-stall and
        # must wait until the stall ends at 0.6.
        assert finished[0] == ("before", pytest.approx(0.05))
        assert finished[1][0] == "during"
        assert finished[1][1] == pytest.approx(0.65)

    def test_stall_waits_for_running_slices(self):
        env = Environment()
        cpu = Cpu(env, cores=1)
        timeline = {}

        def work(env):
            yield from cpu.execute(0.2)
            timeline["work_done"] = env.now

        def stall(env):
            yield env.timeout(0.1)
            yield from cpu.stall(0.3)
            timeline["stall_done"] = env.now

        env.process(work(env))
        env.process(stall(env))
        env.run()
        assert timeline["work_done"] == pytest.approx(0.2)
        assert timeline["stall_done"] == pytest.approx(0.5)

    def test_stall_preempts_queued_foreground(self):
        env = Environment()
        cpu = Cpu(env, cores=1)
        order = []

        def hog(env):
            yield from cpu.execute(0.1)
            order.append("hog")

        def queued(env):
            yield env.timeout(0.01)
            yield from cpu.execute(0.1)
            order.append("queued")

        def stall(env):
            yield env.timeout(0.02)
            yield from cpu.stall(0.2)
            order.append("stall")

        env.process(hog(env))
        env.process(queued(env))
        env.process(stall(env))
        env.run()
        # The stall was requested after "queued" but jumps the queue.
        assert order == ["hog", "stall", "queued"]

    def test_iowait_accounted_during_stall(self):
        env = Environment()
        cpu = Cpu(env, cores=4)

        def stall(env):
            yield from cpu.stall(0.5)

        env.process(stall(env))
        env.run()
        assert cpu.iowait.utilization(0.0, 0.5) == pytest.approx(1.0)
        assert cpu.user.utilization(0.0, 0.5) == pytest.approx(0.0)
        assert cpu.utilization(0.0, 0.5) == pytest.approx(1.0)

    def test_utilization_series_combines_user_and_iowait(self):
        env = Environment()
        cpu = Cpu(env, cores=1)

        def work(env):
            yield from cpu.execute(0.05)
            yield from cpu.stall(0.05)

        env.process(work(env))
        env.run(until=0.2)
        series = cpu.utilization_series(window=0.05, until=0.2)
        assert series.values == pytest.approx([1.0, 1.0, 0.0, 0.0])
        iowait = cpu.iowait_series(window=0.05, until=0.2)
        assert iowait.values == pytest.approx([0.0, 1.0, 0.0, 0.0])

    def test_validation(self):
        env = Environment()
        with pytest.raises(ValueError):
            Cpu(env, cores=0)
        cpu = Cpu(env)
        with pytest.raises(ValueError):
            next(cpu.execute(-1))
        with pytest.raises(ValueError):
            next(cpu.stall(-1))

    def test_observability_properties(self):
        env = Environment()
        cpu = Cpu(env, cores=1)

        def work(env):
            yield from cpu.execute(1.0)

        env.process(work(env))
        env.process(work(env))
        env.run(until=0.5)
        assert cpu.busy_cores == 1


class TestMillibottleneckProfile:
    def test_defaults_enabled(self):
        profile = MillibottleneckProfile()
        assert profile.enabled

    def test_disabled_matches_paper_remedy(self):
        profile = MillibottleneckProfile.disabled()
        assert not profile.enabled
        assert profile.flush_interval == 600.0
        assert profile.dirty_threshold_bytes == pytest.approx(4.8e9)

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            MillibottleneckProfile(flush_interval=0)
        with pytest.raises(ConfigurationError):
            MillibottleneckProfile(dirty_threshold_bytes=-1)
        with pytest.raises(ConfigurationError):
            MillibottleneckProfile(phase=-1)


class TestFlushDaemonAndHost:
    def make_host(self, env, **kwargs):
        profile = MillibottleneckProfile(
            flush_interval=1.0, dirty_threshold_bytes=1e6, **kwargs)
        return Host(env, "tomcat1", cores=2, disk_bandwidth=100e6,
                    flush_profile=profile)

    def test_flush_produces_millibottleneck_record(self):
        env = Environment()
        host = self.make_host(env)

        def dirtier(env):
            # 10 MB of logs in the first second -> 100 ms flush burst.
            for _ in range(10):
                host.write_file(1e6)
                yield env.timeout(0.05)

        env.process(dirtier(env))
        env.run(until=3.0)
        assert len(host.millibottlenecks) == 1
        record = host.millibottlenecks[0]
        assert record.host == "tomcat1"
        assert record.started_at == pytest.approx(1.0)
        assert record.duration == pytest.approx(0.1)
        assert record.bytes_flushed == pytest.approx(10e6)

    def test_flush_stalls_foreground_work(self):
        env = Environment()
        host = self.make_host(env)
        host.write_file(20e6)  # 200 ms of write-back when flushed at t=1
        finished = []

        def work(env):
            yield env.timeout(1.05)  # arrives mid-flush
            yield from host.execute(0.001)
            finished.append(env.now)

        env.process(work(env))
        env.run(until=3.0)
        assert finished[0] == pytest.approx(1.201, abs=1e-3)

    def test_no_flush_below_threshold(self):
        env = Environment()
        host = self.make_host(env)
        host.write_file(0.5e6)  # below the 1 MB threshold
        env.run(until=5.0)
        assert host.millibottlenecks == []
        assert host.pagecache.dirty_bytes == pytest.approx(0.5e6)

    def test_disabled_profile_never_flushes(self):
        env = Environment()
        host = Host(env, "apache1",
                    flush_profile=MillibottleneckProfile.disabled())
        host.write_file(100e6)
        env.run(until=30.0)
        assert host.millibottlenecks == []
        assert not host.flush_daemon.running

    def test_default_host_has_flushing_disabled(self):
        env = Environment()
        host = Host(env, "mysql1")
        assert not host.flush_profile.enabled

    def test_phase_staggers_first_flush(self):
        env = Environment()
        host = self.make_host(env, phase=0.5)
        host.write_file(5e6)
        env.run(until=2.0)
        assert host.millibottlenecks[0].started_at == pytest.approx(1.5)

    def test_repeated_flushes(self):
        env = Environment()
        host = self.make_host(env)

        def dirtier(env):
            while True:
                host.write_file(2e5)
                yield env.timeout(0.1)

        env.process(dirtier(env))
        env.run(until=5.5)
        # ~2 MB dirty per second, flushed every second: 5 bursts.
        assert len(host.millibottlenecks) == 5
        assert host.flush_daemon.flushes == 5
