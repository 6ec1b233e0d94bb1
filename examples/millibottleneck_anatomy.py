#!/usr/bin/env python3
"""Anatomy of a millibottleneck — the paper's §III-B / Fig. 2 analysis.

Runs the no-balancer configuration (1 Apache / 1 Tomcat / 1 MySQL) with
dirty-page flushing enabled and walks the full diagnostic chain on
*observables only*, then checks it against the simulator's ground
truth:

  dirty-page drops -> iowait saturation -> transient CPU saturation
  -> queue peaks -> VLRT requests

Run:  python examples/millibottleneck_anatomy.py
"""

from repro import ExperimentRunner
from repro.analysis import (
    adaptive_threshold,
    best_lag,
    causal_chain_report,
    detect,
    find_peaks,
    match_ground_truth,
    timeline,
)
from repro.cluster.scenarios import single_node_millibottleneck
from repro.metrics import PAPER_WINDOW


def main() -> None:
    config = single_node_millibottleneck(duration=14.0, seed=7)
    print("Running the no-balancer configuration with flushing on...")
    result = ExperimentRunner(config).run()

    print()
    print("Fine-grained (50 ms) timelines, exactly as in Fig. 2:")
    print(timeline(result.vlrt_windows(), label="(a) VLRT/50ms"))
    print(timeline(result.queue_series["apache1"], label="(b) apache1 q"))
    print(timeline(result.queue_series["tomcat1"], label="(b) tomcat1 q"))
    print(timeline(result.queue_series["mysql1"], label="(b) mysql1 q"))
    print(timeline(result.cpu_utilization("tomcat1"),
                   label="(c) tomcat1 cpu"))
    print(timeline(result.iowait("tomcat1"), label="(d) tomcat1 iowait"))
    print(timeline(result.dirty_series["tomcat1"], label="(e) dirty bytes"))

    print()
    print("Causal-chain correlations (each '~' of the Fig. 2 chain):")
    chain = causal_chain_report(
        dirty=result.dirty_series["tomcat1"],
        iowait=result.iowait("tomcat1"),
        cpu=result.cpu_utilization("tomcat1"),
        queue=result.queue_series["tomcat1"],
        vlrt=result.vlrt_windows(),
    )
    for link, r in chain.items():
        print("  {:20s} r = {:+.2f}".format(link, r))
    # The queue->VLRT link is delayed by the TCP retransmission timer:
    # a packet dropped during a spike completes ~1 s later.  Scanning
    # lags recovers that timer from the data alone.
    lag, r = best_lag(result.queue_series["apache1"],
                      result.vlrt_windows(), max_lag=2.0, step=0.05)
    print("  queue~vlrt (lagged)  r = {:+.2f} at lag {:.2f} s "
          "(the TCP retransmission timer)".format(r, lag))

    print()
    print("Millibottleneck detection from observables vs ground truth:")
    for server in ("tomcat1", "apache1"):
        detections = detect(
            server,
            result.cpu_utilization(server),
            PAPER_WINDOW,
            iowait=result.iowait(server),
            dirty=result.dirty_series[server],
        )
        records = [r for r in result.system.millibottleneck_records()
                   if r.host == server]
        tp, fp, fn = match_ground_truth(detections, records)
        print("  {}: detected {} (true {}, spurious {}, missed {})".format(
            server, len(detections), tp, fp, fn))
        for detection in detections:
            print("    t={:.2f}s  {:.0f} ms  iowait {:.0%}  "
                  "dirty drop {:.1f} MB".format(
                      detection.started_at, 1000 * detection.duration,
                      detection.iowait_level, detection.dirty_drop / 1e6))

    print()
    print("Queue peaks and their attribution (per-server queue analysis):")
    apache_queue = result.queue_series["apache1"]
    tomcat_queue = result.queue_series["tomcat1"]
    apache_peaks = find_peaks(apache_queue,
                              adaptive_threshold(apache_queue), "apache1")
    tomcat_peaks = find_peaks(tomcat_queue,
                              adaptive_threshold(tomcat_queue), "tomcat1")
    for peak in apache_peaks:
        pushback = any(peak.overlaps(down, slack=0.1)
                       for down in tomcat_peaks)
        cause = ("push-back wave from the Tomcat tier" if pushback
                 else "Apache's own millibottleneck")
        print("  apache1 peak of {:.0f} at t={:.2f}s <- {}".format(
            peak.peak_value, peak.peak_at, cause))

    stats = result.stats()
    print()
    print("Bottom line: {} VLRT requests out of {} ({:.2f}%), with all "
          "servers far from sustained saturation — no load balancer "
          "involved.".format(stats.vlrt_count, stats.count,
                             100 * stats.vlrt_fraction))


if __name__ == "__main__":
    main()
