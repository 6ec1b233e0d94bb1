"""The benchmark's three workloads: build, simulate, count, check.

Each workload is a closed-loop run of the simulator in this process
(``workers=1``, no pool).  :func:`simulate` builds and runs one of them
on a :class:`TimedEnvironment`, which stamps the host clock when the
simulation proper starts, so callers can split a run into set-up
(import, config, system and population construction) and simulation.

After a run, :func:`simulate` reads the model's public counters into a
flat ``counts`` dict (the per-layer model counts of the benchmark) and
recomputes the conservation identities that ``tests/test_invariants.py``
asserts.  The counts are deterministic for a given workload, seed and
simulated length; :func:`fingerprint` hashes them.
"""

from __future__ import annotations

import hashlib
import json
import time
from dataclasses import dataclass

from repro.cluster.config import ScaleProfile
from repro.cluster.runner import ExperimentConfig, ExperimentRunner
from repro.metrics.stats import VLRT_THRESHOLD
from repro.sim.core import Environment
from repro.workload import AggregatedClientPopulation

#: The simulator's subpackages, the layers the profiled pass reports.
LAYERS = ("sim", "workload", "tiers", "osmodel", "netmodel", "core",
          "metrics", "tracing", "cluster")

#: Tiers of the classic deployment, front to back.
CLASSIC_TIERS = ("apache", "tomcat", "mysql")

#: Mean-field E[T] of JSQ(2) at per-server load 0.8, in mean service
#: times (Mitzenmacher 1996; see benchmarks/test_largeN_meanfield.py).
MEANFIELD_SOJOURN = 1.9474


@dataclass(frozen=True)
class Workload:
    name: str
    #: The seed the workload is specified at; its fingerprint is pinned.
    default_seed: int
    #: Simulated seconds of one run.
    sim_seconds: float
    bundle_key: str = ""
    trace_requests: bool = False
    #: Large-N only: simulated seconds excluded from the sojourn mean.
    warmup: float = 0.0


WORKLOADS = {
    workload.name: workload for workload in (
        # 12 simulated seconds: the four Tomcats flush at 4, 5, 6, 7 s
        # and every 4 s after, so each one stalls at least twice.
        Workload("classic_total_request", 42, 12.0,
                 bundle_key="original_total_request"),
        Workload("classic_current_load_traced", 42, 12.0,
                 bundle_key="current_load_modified", trace_requests=True),
        Workload("largeN_aggregated", 3, 20.0, warmup=2.0),
    )
}

#: The large-N deployment (benchmarks/test_largeN_meanfield.py).
LARGE_N = dict(replicas=500, users=100_000, service_time=0.004,
               think_time=1.0, d=2)


class SetupDone(Exception):
    """Raised by a :class:`TimedEnvironment` built to stop at set-up."""


class TimedEnvironment(Environment):
    """An environment that clocks the simulation proper.

    The first ``run`` call stamps ``run_started`` (everything before it
    is set-up; the first simulated event is processed right after it)
    and :meth:`stop_clock` stamps ``run_ended``.  A given ``profiler``
    is enabled over exactly that span.  With ``stop_at_run`` the first
    ``run`` raises :class:`SetupDone` instead of simulating.
    """

    __slots__ = ("run_started", "run_ended", "stop_at_run", "profiler")

    def __init__(self, stop_at_run: bool = False, profiler=None) -> None:
        super().__init__()
        self.run_started = self.run_ended = None
        self.stop_at_run = stop_at_run
        self.profiler = profiler

    def run(self, until=None):
        if self.run_started is None:
            self.run_started = time.perf_counter()
            if self.stop_at_run:
                raise SetupDone
            if self.profiler is not None:
                self.profiler.enable()
        return super().run(until)

    def stop_clock(self) -> float:
        """End the clocked span; return its length in host seconds."""
        if self.profiler is not None:
            self.profiler.disable()
        self.run_ended = time.perf_counter()
        return self.run_ended - self.run_started


@dataclass
class RunOutcome:
    """One simulated run: its host times and its model counts."""

    #: Host seconds of the simulation (see :class:`TimedEnvironment`).
    wall_s: float
    counts: dict
    #: Names of the conservation identities the run broke.
    broken: list
    #: Signed relative error of the large-N sojourn against mean-field.
    meanfield_err: float = 0.0


def simulate(name: str, seed: int, env: TimedEnvironment,
             scale: float = 1.0) -> RunOutcome:
    """Build and run workload ``name`` on ``env``.

    ``scale`` shortens the simulated length (the self-test runs at a
    small fraction of it); the benchmark always uses 1.
    """
    workload = WORKLOADS[name]
    if workload.bundle_key:
        return _simulate_classic(workload, seed, env, scale)
    return _simulate_large_n(workload, seed, env, scale)


def _simulate_classic(workload, seed, env, scale):
    config = ExperimentConfig(
        bundle_key=workload.bundle_key, profile=ScaleProfile(),
        duration=workload.sim_seconds * scale, seed=seed,
        tomcat_millibottlenecks=True,
        trace_requests=workload.trace_requests)
    result = ExperimentRunner(config).run(env=env)
    wall = env.stop_clock()
    return RunOutcome(wall, classic_counts(result, env),
                      classic_broken(result))


def classic_counts(result, env) -> dict:
    """The per-layer model counts of a classic run."""
    system, population = result.system, result.population
    sender = population.sender
    stats = result.stats()
    duration = result.duration
    hosts = system.hosts
    counts = {
        "sim.events": env._eid,
        "workload.requests_completed": population.requests_completed,
        "workload.attempts": population.attempts_issued,
        "workload.abandoned": population.requests_abandoned,
        "netmodel.drops": sender.packets_dropped,
        # Each attempt sends its first packet at once; every further
        # packet is a retransmission that went out.
        "netmodel.retransmits": (sender.packets_sent
                                 - population.attempts_issued),
        "core.dispatches": system.total_dispatches(),
        "core.endpoint_timeouts": sum(balancer.endpoint_failures
                                      for balancer in system.balancers),
        "osmodel.cpu_busy_s": _digits(sum(
            host.cpu.user.busy_seconds(duration)
            + host.cpu.iowait.busy_seconds(duration) for host in hosts)),
        "osmodel.millibottlenecks": len(system.millibottleneck_records()),
    }
    for tier in CLASSIC_TIERS:
        counts["tiers.{}.requests_completed".format(tier)] = sum(
            server.requests_completed for server in system.tiers[tier])
    # BusyTracker exposes no public checkpoint count; its series is
    # the retained state the metrics layer pays for per CPU change.
    counts["metrics.samples_retained"] = (
        sum(len(series) for series in result.queue_series.values())
        + sum(len(host.cpu.user._checkpoints)
              + len(host.cpu.iowait._checkpoints) for host in hosts))
    counts["tracing.spans"] = (
        0 if result.tracer is None else
        sum(trace.span_count() for trace in result.tracer.traces.values()))
    counts["vlrt_frac"] = _digits(stats.vlrt_fraction)
    counts["mean_rt_ms"] = _digits(stats.mean_ms)
    return counts


def classic_broken(result) -> list:
    """Names of the conservation identities a classic run breaks.

    The same identities as ``tests/test_invariants.py``: packets,
    web tier, closed-loop clients and balancer accounting; plus the
    bound on retransmissions sent that the drops put.
    """
    system, population = result.system, result.population
    sender = population.sender
    broken = []
    accepted = sum(server.socket.accepted for server in system.frontends)
    socket_drops = sum(server.socket.dropped for server in system.frontends)
    if (sender.packets_sent != accepted + sender.packets_dropped
            or sender.packets_dropped < socket_drops):
        broken.append("packet")
    # A drop is retransmitted, given up on, or still waiting on its RTO.
    retransmits = sender.packets_sent - population.attempts_issued
    if not 0 <= retransmits <= sender.packets_dropped - sender.gave_up:
        broken.append("retransmit")
    for server in system.frontends:
        accounted = (server.requests_completed + server.error_responses
                     + server.shed_responses + server.in_server)
        if server.socket.accepted != accounted:
            broken.append("web_tier:" + server.name)
    in_flight = (population.attempts_issued
                 - population.requests_completed
                 - population.requests_abandoned)
    if not 0 <= in_flight <= len(population):
        broken.append("client")
    for balancer in system.balancers:
        for member in list(balancer.members) + balancer.retired_members:
            if (member.inflight < 0 or member.dispatched
                    != member.completed + member.inflight):
                broken.append("balancer:" + member.name)
    return broken


def _simulate_large_n(workload, seed, env, scale):
    population = AggregatedClientPopulation(env, seed=seed, **LARGE_N)
    warmup = workload.warmup * scale
    env.run(until=warmup)
    warm_completions = population.completions
    warm_sojourn_sum = population.sojourn_sum
    env.run(until=workload.sim_seconds * scale)
    wall = env.stop_clock()

    completions = population.completions - warm_completions
    sojourn = (population.sojourn_sum - warm_sojourn_sum) / completions
    in_units = sojourn / population.service_time
    counts = {
        "sim.events": env._eid,
        "workload.requests_completed": population.completions,
        "workload.attempts": population.dispatched,
        "workload.abandoned": 0,
        "netmodel.drops": 0,
        "netmodel.retransmits": 0,
        "core.dispatches": 0,
        "core.endpoint_timeouts": 0,
        "osmodel.cpu_busy_s": 0.0,
        "osmodel.millibottlenecks": 0,
    }
    for tier in CLASSIC_TIERS:
        counts["tiers.{}.requests_completed".format(tier)] = 0
    counts["metrics.samples_retained"] = 0
    counts["tracing.spans"] = 0
    # The model keeps no per-request history, but its exact maximum
    # sojourn bounds the VLRT share: none when the maximum is under the
    # threshold, which the "vlrt_bound" identity checks.
    counts["vlrt_frac"] = 0.0
    counts["mean_rt_ms"] = _digits(1000.0 * population.mean_sojourn)
    broken = []
    in_system = population.in_system
    if population.dispatched != population.completions + in_system:
        broken.append("dispatch")
    if population.thinking + in_system != population.users:
        broken.append("closed_loop")
    if sum(population.queues) != in_system:
        broken.append("queues")
    if population.sojourn_max > VLRT_THRESHOLD:
        broken.append("vlrt_bound")
    return RunOutcome(wall, counts, broken,
                      (in_units - MEANFIELD_SOJOURN) / MEANFIELD_SOJOURN)


def _digits(value: float) -> float:
    """``value`` to ten significant digits, so that a fingerprint does
    not hinge on the last bits of a platform's floating point."""
    return float("{:.10g}".format(value))


def fingerprint(counts: dict) -> str:
    """A short stable hash of a run's model counts."""
    text = json.dumps(counts, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()[:16]
