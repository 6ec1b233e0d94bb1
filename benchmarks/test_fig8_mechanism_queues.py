"""Fig. 8 — tier queues under total_request with modified get_endpoint.

Paper: the mechanism-level remedy cuts the queued requests by 75 %
relative to the original total_request policy, because requests stop
being sent to (and stuck waiting on) the stalled Tomcat.

Shape to reproduce: web-tier queue peaks collapse (ours: >3x smaller),
packet drops disappear, and the app-tier peak shrinks.
"""

from conftest import BENCH_SEED, FIGURE_DURATION, banner, run_experiment

from repro.analysis import tier_series, timeline
from repro.cluster.scenarios import policy_run


def test_fig8_queues_with_modified_get_endpoint(benchmark):
    remedied = run_experiment(
        benchmark,
        policy_run("total_request_modified", duration=FIGURE_DURATION,
                   seed=BENCH_SEED, trace=False),
        "fig8")
    # Reference run (outside the timed region): the original mechanism.
    from repro.cluster.runner import ExperimentRunner
    original = ExperimentRunner(
        policy_run("original_total_request", duration=FIGURE_DURATION,
                   seed=BENCH_SEED, trace=False)).run()

    remedied_apache = tier_series(remedied.queue_series, "apache")
    original_apache = tier_series(original.queue_series, "apache")
    remedied_tomcat = tier_series(remedied.queue_series, "tomcat")
    original_tomcat = tier_series(original.queue_series, "tomcat")

    banner("Fig. 8: queued requests with modified get_endpoint "
           "(total_request)")
    print(timeline(original_apache, label="apache (orig)"))
    print(timeline(remedied_apache, label="apache (fixed)"))
    print(timeline(original_tomcat, label="tomcat (orig)"))
    print(timeline(remedied_tomcat, label="tomcat (fixed)"))
    reduction = 1 - remedied_apache.max() / original_apache.max()
    print("web-tier peak reduction: {:.0%} (paper: 75% fewer queued "
          "requests)".format(reduction))

    # The paper reports queued requests cut by 75%; in our scaled model
    # the web tier dominates that count (app-tier inflow is bounded by
    # the endpoint pools in both runs, so its peaks are comparable).
    assert remedied_apache.max() < original_apache.max() / 3
    combined_remedied = remedied_apache.max() + remedied_tomcat.max()
    combined_original = original_apache.max() + original_tomcat.max()
    assert combined_remedied < 0.5 * combined_original
    assert remedied.metrics.drops == 0
    assert original.metrics.drops > 0
