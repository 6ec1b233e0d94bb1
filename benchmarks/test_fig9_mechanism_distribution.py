"""Fig. 9(a-b) — workload distribution with modified get_endpoint.

Paper: with the mechanism-level remedy, during the period in which one
Tomcat has the millibottleneck, all requests are routed to the Tomcats
*without* millibottlenecks; the stalled Tomcat's queue peak is a
quarter of the original's.

Shape to reproduce: ~zero dispatches to the stalled member during its
stall (beyond the pool-bounded first wave), healthy members carrying
the full load.
"""

from conftest import (
    BENCH_SEED,
    FIGURE_DURATION,
    banner,
    first_clean_stall,
    run_experiment,
)

from repro.analysis import distribution_by_phase, segment, timeline
from repro.cluster.scenarios import policy_run


def test_fig9_distribution_with_modified_get_endpoint(benchmark):
    config = policy_run("total_request_modified",
                        duration=FIGURE_DURATION, seed=BENCH_SEED)
    result = run_experiment(benchmark, config, "fig9")
    record = first_clean_stall(result)
    phases = segment(record)

    banner("Fig. 9: workload distribution, total_request + modified "
           "get_endpoint ({} stalled)".format(record.host))
    print(timeline(result.queue_series[record.host],
                   label="(a) {} q".format(record.host)))
    balancer = result.system.balancers[0]
    for phase_name, counts in distribution_by_phase(
            balancer, phases).items():
        print("(b) {:16s} {}".format(phase_name, counts))

    # During the stall (past the first pool-bounded wave), dispatches
    # avoid the stalled member on every Apache.
    window = (record.started_at + 0.05, record.ended_at)
    for balancer in result.system.balancers:
        counts = balancer.distribution_between(*window)
        healthy = sum(count for name, count in counts.items()
                      if name != record.host)
        assert healthy > 5
        assert counts[record.host] <= max(2, 0.1 * healthy)
    # No request was lost anywhere.
    assert result.metrics.drops == 0
