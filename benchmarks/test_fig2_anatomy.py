"""Fig. 2(a-e) — anatomy of a millibottleneck (no load balancer).

Paper: with 1 Apache / 1 Tomcat / 1 MySQL and dirty-page flushing
enabled, VLRT clusters appear; queue peaks in Apache coincide with (a)
Apache's own millibottleneck and (b) push-back waves from Tomcat; CPU
saturations correlate with iowait saturations, which correlate with
abrupt dirty-page drops.

Shape to reproduce: the full causal chain — dirty drop ↔ iowait ↔ CPU
saturation ↔ queue peak ↔ VLRT window — on both hosts.
"""

from conftest import BENCH_SEED, FIGURE_DURATION, banner, run_experiment

from repro.analysis import (
    adaptive_threshold,
    detect,
    drops_of,
    find_peaks,
    match_ground_truth,
    pearson,
    timeline,
)
from repro.cluster.scenarios import single_node_millibottleneck
from repro.metrics import PAPER_WINDOW


def test_fig2_millibottleneck_anatomy(benchmark):
    config = single_node_millibottleneck(duration=FIGURE_DURATION,
                                         seed=BENCH_SEED)
    result = run_experiment(benchmark, config, "fig2")

    vlrt = result.vlrt_windows()
    tomcat_cpu = result.cpu_utilization("tomcat1")
    tomcat_iowait = result.iowait("tomcat1")
    tomcat_dirty = result.dirty_series["tomcat1"]

    banner("Fig. 2: VLRT requests caused by flushing dirty pages "
           "(1 Apache / 1 Tomcat / 1 MySQL, no balancer)")
    print(timeline(vlrt, label="(a) VLRT/50ms"))
    print(timeline(result.queue_series["apache1"], label="(b) apache q"))
    print(timeline(result.queue_series["tomcat1"], label="(b) tomcat q"))
    print(timeline(result.queue_series["mysql1"], label="(b) mysql q"))
    print(timeline(tomcat_cpu, label="(c) tomcat cpu"))
    print(timeline(tomcat_iowait, label="(d) tomcat iowait"))
    print(timeline(tomcat_dirty, label="(e) dirty bytes"))

    records = result.system.millibottleneck_records()
    r_dirty_iowait = pearson(drops_of(tomcat_dirty), tomcat_iowait)
    r_iowait_cpu = pearson(tomcat_iowait, tomcat_cpu)
    print("stalls: {}   corr(dirty-drop, iowait)={:.2f}   "
          "corr(iowait, cpu)={:.2f}".format(
              len(records), r_dirty_iowait, r_iowait_cpu))

    # (a) VLRT requests appear without any load balancer.
    assert result.stats().vlrt_count > 0
    # (b) Apache queue peaks coincide with stalls.
    apache_queue = result.queue_series["apache1"]
    peaks = find_peaks(apache_queue, adaptive_threshold(apache_queue),
                       "apache1")
    assert peaks
    for peak in peaks:
        assert any(record.started_at - 0.2 < peak.peak_at
                   < record.ended_at + 0.6 for record in records)
    # (c)+(d) transient CPU saturations are iowait-induced and match
    # ground truth one for one.
    detections = detect("tomcat1", tomcat_cpu, PAPER_WINDOW,
                        iowait=tomcat_iowait, dirty=tomcat_dirty)
    tomcat_records = [r for r in records if r.host == "tomcat1"]
    tp, fp, fn = match_ground_truth(detections, tomcat_records)
    assert fn == 0 and fp <= 1
    assert all(d.io_induced and d.flush_induced for d in detections)
    # (e) dirty-page drops line up with iowait saturation.
    assert r_dirty_iowait > 0.5
    assert r_iowait_cpu > 0.5
