"""Parallel fan-out: pool/serial equivalence, ordering, picklability."""

import pickle
from dataclasses import replace

import pytest

from repro.analysis.report import improvement_factors, table1
from repro.cluster.runner import (
    ExperimentConfig,
    ExperimentRunner,
    Grid,
    RunMetrics,
    compare_policies,
)
from repro.cluster.scenarios import policy_run
from repro.cluster.spec import TopologySpec
from repro.errors import ConfigurationError
from repro.parallel import replicate, run_experiments


def small_config(seed=11, bundle_key="original_total_request"):
    config = policy_run(bundle_key, duration=2.0, seed=seed, trace=False)
    return replace(config, profile=config.profile.scaled(0.5))


class TestSummarize:
    def test_summary_matches_full_result(self):
        config = small_config()
        result = ExperimentRunner(config).run()
        metrics = result.metrics
        assert metrics is result.metrics  # built once, on first access
        assert metrics.stats() == result.stats()
        assert metrics.drops == sum(frontend.socket.dropped
                                    for frontend in result.system.frontends)
        assert metrics.config == config
        assert metrics.summary().startswith("original_total_request: ")

    def test_summary_is_picklable(self):
        metrics = ExperimentRunner(small_config()).run().metrics
        clone = pickle.loads(pickle.dumps(metrics))
        assert clone == metrics
        assert clone.summary() == metrics.summary()

    def test_full_result_is_not_picklable(self):
        """The reason the pool ships metrics, not results."""
        result = ExperimentRunner(small_config()).run()
        with pytest.raises(Exception):
            pickle.dumps(result)


class TestRunExperiments:
    def test_serial_and_parallel_stats_are_identical(self):
        config = small_config(seed=21)
        serial, = run_experiments([config], workers=1)
        parallel = run_experiments([config, small_config(seed=22)],
                                   workers=2)
        assert serial == parallel[0]

    def test_results_come_back_in_submission_order(self):
        seeds = [31, 32, 33]
        runs = run_experiments(
            [small_config(seed=seed) for seed in seeds], workers=2)
        assert [run.config.seed for run in runs] == seeds

    def test_invalid_workers_rejected(self):
        with pytest.raises(ConfigurationError):
            run_experiments([small_config()], workers=0)

    def test_pooled_topology_summary_matches_live(self):
        """A pooled topology run is labelled by its topology, exactly as
        the live result is (the pool once fell back to ``bundle_key``)."""
        spec = TopologySpec.geo(clients=40)
        config = ExperimentConfig(topology=spec, duration=2.0)
        live = ExperimentRunner(config).run().metrics.summary()
        pooled = run_experiments([config, replace(config, seed=12)],
                                 workers=2)[0].summary()
        assert live.startswith("topology:geo: ")
        assert pooled == live


class TestReplicate:
    def test_keyed_by_seed_in_order(self):
        rep = replicate(small_config(), seeds=[3, 1, 2], workers=2)
        assert rep.seeds == (3, 1, 2)
        assert set(rep.by_seed()) == {1, 2, 3}
        for seed, run in rep.by_seed().items():
            assert run.config.seed == seed

    def test_replications_match_direct_runs(self):
        rep = replicate(small_config(), seeds=[5, 6], workers=2)
        direct = ExperimentRunner(replace(small_config(), seed=6)).run()
        assert rep.by_seed()[6] == direct.metrics

    def test_duplicate_seeds_rejected(self):
        with pytest.raises(ConfigurationError):
            replicate(small_config(), seeds=[1, 1])

    def test_aggregate_shape(self):
        aggregate = replicate(small_config(), seeds=[7, 8]).aggregate()
        assert aggregate["runs"] == 2.0
        assert aggregate["avg_rt_ms_mean"] > 0
        assert "vlrt_pct_std" in aggregate

    def test_serial_and_parallel_identical(self):
        serial = replicate(small_config(), seeds=[9, 10], workers=1)
        assert replicate(small_config(), seeds=[9, 10],
                         workers=2) == serial


class TestComparePoliciesWorkers:
    KEYS = ["original_total_request", "current_load"]

    def test_parallel_matches_serial(self):
        profile = small_config().profile
        serial = compare_policies(self.KEYS, profile=profile,
                                  duration=2.0, seed=51)
        parallel = compare_policies(self.KEYS, profile=profile,
                                    duration=2.0, seed=51, workers=2)
        assert [type(run) for run in serial] == [RunMetrics, RunMetrics]
        assert [type(run) for run in parallel] == [RunMetrics, RunMetrics]
        for one, pooled in zip(serial, parallel):
            assert one.stats() == pooled.stats()
            assert one.table1_row() == pooled.table1_row()
            assert one.config.bundle_key == pooled.config.bundle_key

    def test_summaries_feed_reports(self):
        profile = small_config().profile
        results = compare_policies(self.KEYS, profile=profile,
                                   duration=2.0, seed=52, workers=2)
        rendered = table1(results)
        assert "Policy" in rendered
        factors = improvement_factors(results)
        assert set(factors) == set(self.KEYS)


class TestSweepWorkers:
    def test_parallel_rows_match_serial(self):
        def grid():
            return Grid(small_config(), {
                "seed": {str(seed): {"seed": seed} for seed in (61, 62)},
                "clients": {"60": {"profile.clients": 60},
                            "90": {"profile.clients": 90}}})

        serial = grid().run(workers=1)
        assert [labels for labels, _ in serial] == [
            {"seed": "61", "clients": "60"}, {"seed": "61", "clients": "90"},
            {"seed": "62", "clients": "60"}, {"seed": "62", "clients": "90"}]
        assert grid().run(workers=2) == serial


class TestGridWorkers:
    """Every suite grid returns identical rows serially and pooled."""

    def test_rematch_rows(self):
        from repro.cluster.scenarios import PolicyRematch

        def suite():
            return PolicyRematch(bundle_keys=["prequal", "jiq"],
                                 fault_keys=["slow"], duration=2.0)

        serial = suite().run(workers=1)
        assert [labels for labels, _ in serial] == [
            {"bundle": "prequal", "fault": "slow"},
            {"bundle": "jiq", "fault": "slow"}]
        assert suite().run(workers=2) == serial

    def test_geo_rows(self):
        from repro.cluster.geo import GeoSuite

        def suite():
            return GeoSuite(fault_keys=["cache_failover"], duration=2.0,
                            clients=40)

        serial = suite().run(workers=1)
        assert all(run.vlrt_buckets is not None for _, run in serial)
        assert suite().run(workers=2) == serial
