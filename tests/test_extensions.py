"""Tests for the extension modules: bursty workload, lag correlation,
CSV export, and sweeps (grid axes)."""

import numpy as np
import pytest

from repro.analysis import (
    best_lag,
    export_result,
    lagged_pearson,
    pearson,
    series_from_csv,
    series_to_csv,
    shift,
)
from repro.cluster import Grid
from repro.cluster.scenarios import policy_run
from repro.errors import AnalysisError, ConfigurationError
from repro.metrics import TimeSeries, WindowedCounter
from repro.netmodel import ListenSocket
from repro.sim import Environment
from repro.workload import BurstProfile, OpenLoopGenerator, read_write_mix


class TestBurstProfile:
    def test_validation(self):
        with pytest.raises(ConfigurationError):
            BurstProfile(base_rate=0, burst_rate=10)
        with pytest.raises(ConfigurationError):
            BurstProfile(base_rate=10, burst_rate=5)
        with pytest.raises(ConfigurationError):
            BurstProfile(base_rate=1, burst_rate=2, burst_duration=0)


class EchoBackend:
    """Completes requests from a socket after a tiny delay."""

    def __init__(self, env, socket, delay=0.001):
        self.env = env
        self.socket = socket
        self.delay = delay
        env.process(self._run())

    def _run(self):
        while True:
            request = yield self.socket.accept()
            yield self.env.timeout(self.delay)
            request.served_by = "echo"
            request.completion.succeed(request)


class TestOpenLoopGenerator:
    def test_steady_rate_generates_poisson_arrivals(self):
        env = Environment()
        socket = ListenSocket(env, backlog=1000)
        EchoBackend(env, socket)
        generator = OpenLoopGenerator(
            env, socket, read_write_mix(), BurstProfile.steady(100.0),
            np.random.default_rng(0))
        env.run(until=10.0)
        # ~1000 requests expected; allow wide tolerance.
        assert 800 < generator.requests_sent < 1200
        assert len(generator.recorder) > 700
        assert not generator.bursting

    def test_bursts_modulate_the_rate(self):
        env = Environment()
        socket = ListenSocket(env, backlog=10000)
        EchoBackend(env, socket, delay=0.0001)
        profile = BurstProfile(base_rate=20, burst_rate=2000,
                               burst_duration=0.2, quiet_duration=1.0)
        generator = OpenLoopGenerator(
            env, socket, read_write_mix(), profile,
            np.random.default_rng(1))
        env.run(until=10.0)
        completions = WindowedCounter(window=0.1)
        for request in generator.recorder.requests:
            completions.record(request.finished_at)
        # Peak window rate far above the base rate: bursts happened
        # (over 10 x 20/s is over 20 completions in one 0.1 s window).
        assert completions.series().max() > 20
        assert generator.requests_sent > 500

    def test_open_loop_does_not_backpressure(self):
        """Unlike the closed loop, a slow backend does not slow the
        arrival process."""
        env = Environment()
        socket = ListenSocket(env, backlog=100000)
        EchoBackend(env, socket, delay=1.0)  # extremely slow
        generator = OpenLoopGenerator(
            env, socket, read_write_mix(), BurstProfile.steady(100.0),
            np.random.default_rng(2))
        env.run(until=5.0)
        assert generator.requests_sent > 350

    def test_drops_are_retransmitted_and_counted(self):
        env = Environment()
        socket = ListenSocket(env, backlog=1)  # everything overflows
        generator = OpenLoopGenerator(
            env, socket, read_write_mix(), BurstProfile.steady(50.0),
            np.random.default_rng(3))
        env.run(until=5.0)
        assert generator.sender.packets_dropped > 0


class TestLagCorrelation:
    def make_pair(self, lag):
        """cause pulses at t=2,5,8; effect follows `lag` later."""
        grid = [round(0.1 * i, 5) for i in range(120)]
        cause = TimeSeries("cause")
        effect = TimeSeries("effect")
        pulses = {2.0, 5.0, 8.0}
        for t in grid:
            cause.append(t, 1.0 if round(t, 5) in pulses else 0.0)
            effect.append(
                t, 1.0 if round(t - lag, 5) in pulses else 0.0)
        return cause, effect

    def test_shift(self):
        series = TimeSeries("x", [(1.0, 5.0), (2.0, 6.0)])
        shifted = shift(series, -1.5)
        assert shifted.times == [0.5]
        assert shifted.values == [6.0]

    def test_lagged_pearson_recovers_relationship(self):
        cause, effect = self.make_pair(lag=1.0)
        assert pearson(cause, effect) < 0.5       # invisible at lag 0
        assert lagged_pearson(cause, effect, 1.0) > 0.9

    def test_best_lag_finds_the_timer(self):
        cause, effect = self.make_pair(lag=1.0)
        lag, r = best_lag(cause, effect, max_lag=2.0, step=0.1)
        assert lag == pytest.approx(1.0)
        assert r > 0.9

    def test_validation(self):
        series = TimeSeries("x", [(0, 1), (1, 2)])
        with pytest.raises(AnalysisError):
            lagged_pearson(series, series, -1)
        with pytest.raises(AnalysisError):
            best_lag(series, series, max_lag=-1, step=0.1)


class TestCsvExport:
    def test_series_roundtrip(self, tmp_path):
        series = TimeSeries("queue", [(0.0, 1.0), (0.05, 3.5)])
        path = tmp_path / "series.csv"
        series_to_csv(series, path)
        loaded = series_from_csv(path)
        assert loaded.name == "queue"
        assert list(loaded) == list(series)

    def test_bad_csv_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("a,b,c\n1,2,3\n")
        with pytest.raises(AnalysisError):
            series_from_csv(path)

    def test_export_result_writes_everything(self, tmp_path):
        from repro.cluster import ExperimentRunner
        result = ExperimentRunner(
            policy_run("current_load", duration=2.0, seed=1,
                       trace=False)).run()
        out = export_result(result, tmp_path / "run")
        names = {p.name for p in out.iterdir()}
        assert "summary.json" in names
        assert "rt.csv" in names
        assert "vlrt.csv" in names
        assert "queue_tomcat1.csv" in names
        assert "cpu_apache1.csv" in names
        assert "iowait_mysql1.csv" in names
        import json
        summary = json.loads((out / "summary.json").read_text())
        assert summary["bundle"] == "current_load"
        assert summary["table1_row"]["total_requests"] > 0


class TestSweep:
    """Parameter sweeps are :class:`Grid` axes over config overrides."""

    def base(self):
        return policy_run("current_load", duration=1.5, seed=1,
                          trace=False)

    def test_grid_size_and_overrides(self):
        grid = Grid(self.base(), {
            "seed": {str(seed): {"seed": seed} for seed in (1, 2)},
            "clients": {str(n): {"profile.clients": n}
                        for n in (100, 200, 300)}})
        cells = grid.cells()
        assert len(cells) == 6
        assert {"seed": "2", "clients": "300"} in [labels for labels, _
                                                   in cells]
        assert {config.profile.clients for _, config in cells} == {
            100, 200, 300}

    def test_empty_sweep_runs_base_once(self):
        rows = Grid(self.base(), {}).run()
        assert len(rows) == 1
        labels, run = rows[0]
        assert labels == {}
        assert run.stats().count > 0

    def test_run_collects_rows(self):
        rows = Grid(self.base(), {
            "seed": {"1": {"seed": 1}, "2": {"seed": 2}}}).run()
        assert len(rows) == 2
        assert rows[0][0] == {"seed": "1"}
        assert [run.config.seed for _, run in rows] == [1, 2]
        assert all(run.response_stats.mean_ms > 0 for _, run in rows)

    def test_validation(self):
        def grid(overrides):
            return Grid(self.base(), {"axis": {"x": overrides}})

        with pytest.raises(ConfigurationError):
            Grid(self.base(), {"seed": {}})
        with pytest.raises(ConfigurationError):
            grid({"nonsense": 1})
        with pytest.raises(ConfigurationError):
            grid({"profile.nonsense": 1})
        with pytest.raises(ConfigurationError):
            grid({"profile.clients.deep": 1})
