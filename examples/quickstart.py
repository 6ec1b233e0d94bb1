#!/usr/bin/env python3
"""Quickstart: run one n-tier experiment and look at the long tail.

Builds the paper's 4 Apache / 4 Tomcat / 1 MySQL testbed (scaled), runs
the default mod_jk policy (total_request) for 10 simulated seconds with
millibottlenecks enabled, and prints the response-time picture.

Run:  python examples/quickstart.py
"""

from repro import ExperimentConfig, ExperimentRunner, ScaleProfile
from repro.analysis import timeline


def main() -> None:
    config = ExperimentConfig(
        bundle_key="original_total_request",  # mod_jk's default policy
        profile=ScaleProfile(),               # scaled Table III testbed
        duration=10.0,
        seed=42,
    )
    print("Running {} for {:.0f} simulated seconds "
          "({} clients, {} Apache / {} Tomcat / 1 MySQL)...".format(
              config.bundle_key, config.duration, config.profile.clients,
              config.profile.apache_count, config.profile.tomcat_count))
    result = ExperimentRunner(config).run()

    stats = result.stats()
    print()
    print("requests completed : {}".format(stats.count))
    print("average RT         : {:.2f} ms".format(stats.mean_ms))
    print("median RT          : {:.2f} ms".format(stats.median * 1000))
    print("99th percentile    : {:.2f} ms".format(stats.p99 * 1000))
    print("VLRT (>1 s)        : {} ({:.2f}%)".format(
        stats.vlrt_count, 100 * stats.vlrt_fraction))
    print("packets dropped    : {}".format(result.metrics.drops))
    print("millibottlenecks   : {}".format(
        len(result.system.millibottleneck_records())))
    print()
    print("Point-in-time response time (worst request per 50 ms window;")
    print("the spikes are the paper's 'very long response time' requests):")
    print(timeline(result.point_in_time_rt(), label="response time",
                   unit=" s"))
    print()
    print("Who caused it?  Ground-truth flush stalls:")
    for record in result.system.millibottleneck_records()[:6]:
        print("  {} stalled {:.0f} ms at t={:.2f}s "
              "(flushed {:.1f} MB of dirty log pages)".format(
                  record.host, 1000 * record.duration, record.started_at,
                  record.bytes_flushed / 1e6))
    print()
    print("Next: examples/policy_comparison.py shows how the paper's "
          "remedies remove those spikes.")


if __name__ == "__main__":
    main()
