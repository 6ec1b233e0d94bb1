"""Fig. 13(a-b) — workload distribution under current_load.

Paper: during the period in which one Tomcat has a millibottleneck,
the current_load policy sends all requests to the available candidates
instead of the stalled one; fewer than 40 requests ever queue at the
stalled Tomcat.

Shape to reproduce: a small queue bump on the stalled member; during
the stall the overwhelming majority of dispatches target healthy
members, on every Apache.
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


def test_fig13_current_load_distribution(benchmark):
    config = policy_run("current_load", duration=FIGURE_DURATION,
                        seed=BENCH_SEED)
    result = run_experiment(benchmark, config, "fig13")
    record = first_clean_stall(result)
    phases = segment(record)

    banner("Fig. 13: workload distribution under current_load "
           "({} stalled)".format(record.host))
    print(timeline(result.queue_series[record.host],
                   label="(a) {} q".format(record.host)))
    balancer = result.system.balancers[0]
    for phase_name, counts in distribution_by_phase(
            balancer, phases).items():
        print("(b) {:16s} {}".format(phase_name, counts))

    # (a) the stalled Tomcat's queue stays small (paper: < 40).
    stall_queue = result.queue_series[record.host].slice(
        record.started_at, record.ended_at + 0.3)
    assert stall_queue.max() < 40
    # (b) requests route to the healthy candidates during the stall.
    window = (record.started_at + 0.05, record.ended_at)
    for balancer in result.system.balancers:
        counts = balancer.distribution_between(*window)
        total = sum(counts.values())
        assert total > 0
        assert counts[record.host] / total < 0.2
    assert result.metrics.drops == 0
