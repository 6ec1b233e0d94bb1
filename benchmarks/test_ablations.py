"""Ablations: the design choices DESIGN.md §5 calls out.

These go beyond the paper's figures: they sweep the knobs that the
paper fixes, to show *why* the instability has the shape it has —
how long the original mechanism's polling matters, when drops start,
which policy families inherit the funnel, and whether the remedies
generalise to other millibottleneck sources (the conclusion's claim).
"""

from dataclasses import replace

import numpy as np
from conftest import BENCH_SEED, banner

from repro.analysis import table
from repro.cluster import ScaleProfile, TopologySpec, build_from_spec
from repro.cluster.runner import ExperimentConfig, ExperimentRunner
from repro.core import OriginalGetEndpoint, make_policy
from repro.netmodel import RetransmissionPolicy
from repro.osmodel import GarbageCollectionSource, MillibottleneckProfile
from repro.sim import Environment
from repro.workload import ClientPopulation, read_write_mix

DURATION = 10.0


def run_config(config: ExperimentConfig):
    return ExperimentRunner(config).run()


def custom_run(policy_name: str, mechanism_factory, duration=DURATION,
               seed=BENCH_SEED, profile: ScaleProfile | None = None,
               millibottlenecks=True, stall_source=None):
    """Run outside ExperimentRunner for full knob control."""
    env = Environment()
    rng = np.random.default_rng(seed)
    profile = profile or ScaleProfile()
    system = build_from_spec(
        env, TopologySpec.classic(
            profile, tomcat_millibottlenecks=millibottlenecks),
        rng=rng,
        policy_factory=lambda: make_policy(policy_name),
        mechanism_factory=mechanism_factory,
        trace_balancers=False,
    )
    if stall_source is not None:
        for tomcat in system.tiers["tomcat"]:
            stall_source(tomcat.host, rng)
    population = ClientPopulation(
        env, [apache.socket for apache in system.frontends],
        total_clients=profile.clients, mix=read_write_mix(), rng=rng,
        think_time=profile.think_time,
        retransmission=RetransmissionPolicy())
    env.run(until=duration)
    stats = population.recorder.stats()
    drops = sum(apache.socket.dropped for apache in system.frontends)
    return stats, drops, system


def test_ablation_cache_acquire_timeout(benchmark):
    """Sweep mod_jk's cache_acquire_timeout under total_request.

    The poll timeout bounds how long a worker stays stuck on a stalled
    candidate.  A timeout of ~0 behaves like the modified mechanism
    (fail fast); the default 300 ms spans the whole stall and feeds the
    funnel.
    """
    timeouts = [0.001, 0.1, 0.3, 0.6]
    rows_box = {}

    def work():
        rows = []
        for timeout in timeouts:
            stats, drops, _ = custom_run(
                "total_request",
                lambda t=timeout: OriginalGetEndpoint(
                    cache_acquire_timeout=t, jk_sleep=min(0.1, t)),
            )
            rows.append([
                "{:.0f} ms".format(1000 * timeout),
                "{:.2f}".format(stats.mean_ms),
                "{:.2f}%".format(100 * stats.vlrt_fraction),
                drops,
            ])
        rows_box["rows"] = rows

    benchmark.pedantic(work, rounds=1, iterations=1)
    rows = rows_box["rows"]
    banner("Ablation: cache_acquire_timeout sweep (total_request)")
    print(table(["timeout", "avg RT (ms)", "%VLRT", "drops"], rows))

    fail_fast = float(rows[0][1])
    stock = float(rows[2][1])
    # Fail-fast polling behaves like the remedy; the stock 300 ms
    # timeout is an order of magnitude worse.
    assert fail_fast * 5 < stock
    # At or beyond the default, polling already spans the stall, so
    # going longer cannot help.
    assert float(rows[3][1]) > fail_fast * 5


def test_ablation_stall_duration(benchmark):
    """Sweep millibottleneck duration via write-back bandwidth.

    Shorter stalls (faster disk) are absorbed by the web tier's free
    workers and backlog; beyond the absorption capacity, drops and
    VLRT appear and grow.
    """
    bandwidths = [40e6, 16e6, 8e6, 5e6]
    rows_box = {}

    def work():
        rows = []
        for bandwidth in bandwidths:
            profile = replace(ScaleProfile(),
                              tomcat_disk_bandwidth=bandwidth)
            stats, drops, system = custom_run(
                "total_request", OriginalGetEndpoint, profile=profile)
            stalls = [r.duration for r in system.millibottleneck_records()]
            mean_stall = float(np.mean(stalls)) if stalls else 0.0
            rows.append([
                "{:.0f} MB/s".format(bandwidth / 1e6),
                "{:.0f} ms".format(1000 * mean_stall),
                "{:.2f}%".format(100 * stats.vlrt_fraction),
                drops,
            ])
        rows_box["rows"] = rows

    benchmark.pedantic(work, rounds=1, iterations=1)
    rows = rows_box["rows"]
    banner("Ablation: stall duration (via write-back bandwidth)")
    print(table(["disk bw", "mean stall", "%VLRT", "drops"], rows))

    drops_by_row = [row[3] for row in rows]
    # Fast disk -> short stalls -> no drops; slow disk -> long stalls
    # -> heavy drops.  Monotone in between.
    assert drops_by_row[0] == 0
    assert drops_by_row[-1] > 100
    assert drops_by_row[-1] >= drops_by_row[-2] >= drops_by_row[0]


def test_ablation_policy_zoo(benchmark):
    """Which policy families inherit the instability?

    Cumulative policies (total_request/total_traffic) funnel; policies
    ranking by instantaneous state (current_load, two_choices, round
    robin, random) do not — they keep spreading load regardless of a
    frozen member's history.
    """
    policies = ["total_request", "total_traffic", "current_load",
                "round_robin", "random", "two_choices", "ewma_latency"]
    rows_box = {}

    def work():
        rows = []
        for name in policies:
            stats, drops, _ = custom_run(name, OriginalGetEndpoint)
            rows.append([name, "{:.2f}".format(stats.mean_ms),
                         "{:.2f}%".format(100 * stats.vlrt_fraction),
                         drops])
        rows_box["rows"] = rows

    benchmark.pedantic(work, rounds=1, iterations=1)
    rows = rows_box["rows"]
    banner("Ablation: policy zoo under millibottlenecks "
           "(original mechanism)")
    print(table(["policy", "avg RT (ms)", "%VLRT", "drops"], rows))

    by_name = {row[0]: float(row[1]) for row in rows}
    drops_by_name = {row[0]: row[3] for row in rows}
    # The cumulative family funnels...
    for cumulative in ("total_request", "total_traffic"):
        assert drops_by_name[cumulative] > 100
    # ...every instantaneous-state policy does not.
    for instantaneous in ("current_load", "round_robin", "random",
                          "two_choices"):
        assert drops_by_name[instantaneous] < drops_by_name["total_request"] / 4
        assert by_name[instantaneous] < by_name["total_request"] / 3


def test_ablation_other_millibottleneck_sources(benchmark):
    """The conclusion's generalisation: remedies help against
    millibottlenecks from *other* resource shortages (here GC pauses),
    not just dirty-page flushing."""
    rows_box = {}

    def gc(host, rng):
        return GarbageCollectionSource(host, rng, period=4.0,
                                       mean_pause=0.20)

    def work():
        rows = []
        for policy in ("total_request", "current_load"):
            stats, drops, system = custom_run(
                policy, OriginalGetEndpoint,
                millibottlenecks=False,  # no flushing...
                stall_source=gc)         # ...GC pauses instead
            rows.append([policy, len(system.millibottleneck_records()),
                         "{:.2f}".format(stats.mean_ms),
                         "{:.2f}%".format(100 * stats.vlrt_fraction),
                         drops])
        rows_box["rows"] = rows

    benchmark.pedantic(work, rounds=1, iterations=1)
    rows = rows_box["rows"]
    banner("Ablation: GC-pause millibottlenecks (no flushing at all)")
    print(table(["policy", "stalls", "avg RT (ms)", "%VLRT", "drops"],
                rows))

    total_request, current_load = rows
    assert total_request[1] > 0          # GC stalls occurred
    assert total_request[4] > 0          # and the stock policy drops
    assert current_load[4] < total_request[4] / 4
    assert float(current_load[2]) < float(total_request[2]) / 3


def test_ablation_bursty_workload_negative_control(benchmark):
    """Bursty arrivals without any millibottleneck: a negative control.

    §III-A lists bursty workloads among VLRT causes.  An arrival burst
    loads *every* backend at once, so there is no single stalled member
    for the balancer to funnel into — the scheduling instability needs
    an asymmetric stall.  Expect: bursts may create drops/VLRT, but the
    cumulative and instantaneous policies now behave *similarly*
    (within a small factor), unlike under millibottlenecks.
    """
    from repro.workload import BurstProfile, OpenLoopGenerator

    profile = ScaleProfile()
    burst = BurstProfile(base_rate=50, burst_rate=4000,
                         burst_duration=0.15, quiet_duration=2.0)
    rows_box = {}

    def run_policy(policy_name):
        env = Environment()
        rng = np.random.default_rng(BENCH_SEED)
        system = build_from_spec(
            env, TopologySpec.classic(
                profile, tomcat_millibottlenecks=False),  # no stalls at all
            rng=rng,
            policy_factory=lambda: make_policy(policy_name),
            mechanism_factory=OriginalGetEndpoint,
            trace_balancers=False,
        )
        generators = [
            OpenLoopGenerator(env, apache.socket, read_write_mix(),
                              burst, rng)
            for apache in system.frontends
        ]
        env.run(until=DURATION)
        recorders = [generator.recorder for generator in generators]
        times = [rt for recorder in recorders
                 for rt in recorder.response_times]
        drops = sum(apache.socket.dropped for apache in system.frontends)
        mean_ms = 1000 * float(np.mean(times))
        vlrt = sum(1 for rt in times if rt > 1.0)
        return mean_ms, vlrt, len(times), drops

    def work():
        rows_box["total_request"] = run_policy("total_request")
        rows_box["current_load"] = run_policy("current_load")

    benchmark.pedantic(work, rounds=1, iterations=1)
    banner("Ablation: bursty open-loop workload, no millibottlenecks "
           "(negative control)")
    rows = []
    for name, (mean_ms, vlrt, count, drops) in rows_box.items():
        rows.append([name, count, "{:.2f}".format(mean_ms), vlrt, drops])
    print(table(["policy", "requests", "avg RT (ms)", "VLRT", "drops"],
                rows))

    tr_mean, tr_vlrt, _, _ = rows_box["total_request"]
    cl_mean, cl_vlrt, _, _ = rows_box["current_load"]
    # Without an asymmetric stall there is no funnel: the two policy
    # families perform comparably (no order-of-magnitude gap).
    assert tr_mean < 5 * cl_mean
    assert cl_mean < 5 * tr_mean


def test_ablation_scale_invariance(benchmark):
    """DESIGN.md §2's scaling claim: the phenomena survive population
    scaling because limits scale along.

    Run the same policy at 0.75x, 1.0x and 1.5x scale and check the
    VLRT fraction stays in the same regime (within a factor of ~3),
    rather than vanishing or exploding.
    """
    factors = [0.75, 1.0, 1.5]
    rows_box = {}

    def work():
        rows = []
        for factor in factors:
            profile = ScaleProfile().scaled(factor)
            stats, drops, _ = custom_run(
                "total_request", OriginalGetEndpoint, profile=profile,
                duration=12.0)
            rows.append([
                "{:.2f}x".format(factor), profile.clients,
                "{:.2f}".format(stats.mean_ms),
                100 * stats.vlrt_fraction, drops])
        rows_box["rows"] = rows

    benchmark.pedantic(work, rounds=1, iterations=1)
    rows = rows_box["rows"]
    banner("Ablation: scale invariance of the instability")
    print(table(["scale", "clients", "avg RT (ms)", "%VLRT", "drops"],
                [[r[0], r[1], r[2], "{:.2f}%".format(r[3]), r[4]]
                 for r in rows]))

    vlrt_fractions = [row[3] for row in rows]
    # The instability is present at every scale...
    assert all(fraction > 0.5 for fraction in vlrt_fractions)
    # ...and stays in the same regime (no order-of-magnitude drift).
    assert max(vlrt_fractions) < 3.5 * min(vlrt_fractions)
