"""Fig. 12 — tier queues under the current_load policy.

Paper: under current_load there is barely any huge spike in the Tomcat
tier, and the Apache tier spikes less than under the stock policies —
queue amplification from the app tier disappears because the balancer
stops feeding the stalled server.

Shape to reproduce: Tomcat-tier peaks bounded near the endpoint-pool
level; Apache-tier peaks a small fraction of the original policy's; no
drops.
"""

from conftest import BENCH_SEED, FIGURE_DURATION, banner, run_experiment

from repro.analysis import tier_series, timeline
from repro.cluster.runner import ExperimentRunner
from repro.cluster.scenarios import policy_run


def test_fig12_current_load_queues(benchmark):
    result = run_experiment(
        benchmark,
        policy_run("current_load", duration=FIGURE_DURATION,
                   seed=BENCH_SEED, trace=False),
        "fig12")
    original = ExperimentRunner(
        policy_run("original_total_request", duration=FIGURE_DURATION,
                   seed=BENCH_SEED, trace=False)).run()

    apache_tier = tier_series(result.queue_series, "apache")
    tomcat_tier = tier_series(result.queue_series, "tomcat")
    mysql_tier = tier_series(result.queue_series, "mysql")
    original_apache = tier_series(original.queue_series, "apache")
    original_tomcat = tier_series(original.queue_series, "tomcat")

    banner("Fig. 12: queued requests under current_load")
    print(timeline(apache_tier, label="apache tier"))
    print(timeline(tomcat_tier, label="tomcat tier"))
    print(timeline(mysql_tier, label="mysql tier"))
    print("tomcat peak: {} (total_request: {});  apache peak: {} "
          "(total_request: {})".format(
              tomcat_tier.max(), original_tomcat.max(),
              apache_tier.max(), original_apache.max()))

    # No huge Tomcat-tier spikes: the scheduling issue is gone.
    assert tomcat_tier.max() < original_tomcat.max()
    assert tomcat_tier.max() < 80
    # The Apache tier no longer amplifies.
    assert apache_tier.max() < original_apache.max() / 3
    assert result.metrics.drops == 0
    # Millibottlenecks still happened — they just stopped mattering.
    assert len(result.system.millibottleneck_records()) >= 4
