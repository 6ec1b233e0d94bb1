"""Experiment execution: build, run, measure, summarise.

:class:`ExperimentRunner` owns the environment, the seeded random
generator (the single source of randomness — identical seeds give
identical event traces), the 50 ms queue-length samplers, and the
client population.  It returns an :class:`ExperimentResult`, which
carries the live system — everything the figure-level analyses need
(queue timelines, CPU trackers, dispatch and lb_value traces,
ground-truth millibottleneck records) — plus, computed on first
access, its picklable :class:`RunMetrics`.  A :class:`Grid` crosses
named axes of config overrides and returns one ``RunMetrics`` per cell.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field, replace
from functools import cached_property
from typing import Any, Mapping, Optional

import numpy as np

from repro.cluster.config import ScaleProfile
from repro.cluster.faults import FaultInjector, FaultSpec, fault_horizon
from repro.cluster.spec import TopologySpec
from repro.cluster.topology import NTierSystem, build_from_spec
from repro.controlplane import ControlPlaneConfig
from repro.core.remedies import RemedyBundle, get_bundle
from repro.errors import ConfigurationError
from repro.metrics.recorder import ResponseTimeRecorder
from repro.metrics.stats import ResponseTimeStats
from repro.metrics.timeseries import TimeSeries
from repro.metrics.windows import PAPER_WINDOW
from repro.netmodel.tcp import RetransmissionPolicy
from repro.resilience import ResilienceConfig
from repro.sim.core import Environment
from repro.sim.monitor import Sampler
from repro.tiers.cache import CacheTier
from repro.tracing.spans import SpanTracer
from repro.workload.generator import ClientPopulation
from repro.workload.mix import read_write_mix

#: Stream constant separating the fault injector's RNG stream from the
#: run's main generator: both derive from ``config.seed`` but never
#: share draws, so adding faults cannot perturb workload randomness
#: (and the fault timeline is identical under workers=1 and workers=N).
FAULT_RNG_STREAM = 0xFA


@dataclass(frozen=True)
class ExperimentConfig:
    """Everything that defines one run.

    ``bundle_key`` picks a Table-I policy/mechanism combination.  The
    deployment and its workload are ``topology``, or the paper's
    Fig. 14 shape (:meth:`TopologySpec.classic` of ``profile``) when
    that is ``None``; ``profile`` sizes the classic shape only.
    ``bundle_key`` and ``controlplane`` are shorthand for spec fields
    (see :meth:`spec`).
    """

    bundle_key: str = "original_total_request"
    profile: ScaleProfile = field(default_factory=ScaleProfile)
    duration: float = 30.0
    seed: int = 42
    #: Whether the classic shape's app-tier hosts flush (a given
    #: ``topology`` declares its own :class:`FlushSpec`s instead).
    tomcat_millibottlenecks: bool = True
    #: Record every balancer's dispatch and pick logs and every
    #: member's lb_value series (Figs. 6(c)/9(b)/10(b)/13(b)).
    trace_balancers: bool = True
    sample_dirty_pages: bool = False
    #: Declarative fault specs injected against the built system (see
    #: :mod:`repro.cluster.faults`); empty means a fault-free run.
    faults: tuple["FaultSpec", ...] = ()
    #: Remedy layer configuration; ``None`` is the seed system.
    resilience: Optional[ResilienceConfig] = None
    #: Control-plane configuration (autoscaling, admission control,
    #: load leveling, bulkheads); ``None`` — and the all-``None``
    #: config — is the seed system, event for event.
    controlplane: Optional["ControlPlaneConfig"] = None
    #: Record a per-request span tree (see :mod:`repro.tracing`).
    #: Off by default: tracing is pure observation (the event schedule
    #: is identical either way) but retains every span in memory.
    trace_requests: bool = False
    #: Declarative topology to build instead of the classic 3-tier
    #: shape.  Balanced boundaries without a bundle of their own take
    #: ``bundle_key``.
    topology: Optional[TopologySpec] = None

    def __post_init__(self) -> None:
        if self.duration <= 0:
            raise ConfigurationError("duration must be positive")
        if self.topology is not None and (
                self.profile != ScaleProfile()
                or not self.tomcat_millibottlenecks):
            raise ConfigurationError(
                "profile and tomcat_millibottlenecks apply to the classic "
                "shape only; topology {!r} declares its own tiers, "
                "flushing and workload".format(self.topology.name))

    def bundle(self) -> RemedyBundle:
        return get_bundle(self.bundle_key)

    def spec(self) -> TopologySpec:
        """The one spec this run builds, with the shorthand folded in:
        ``bundle_key`` on balanced boundaries that name no bundle, and
        ``controlplane``'s admission and bulkhead on the frontend tier,
        leveling on boundary 0, the autoscaler on the first worker
        tier.  A field the spec already sets raises
        :class:`ConfigurationError`."""
        spec = self.topology or TopologySpec.classic(
            self.profile,
            tomcat_millibottlenecks=self.tomcat_millibottlenecks)
        boundaries = [replace(boundary, bundle=self.bundle_key)
                      if boundary.mode == "balanced"
                      and boundary.bundle is None else boundary
                      for boundary in spec.boundaries]
        tiers = list(spec.tiers)
        plane = self.controlplane or ControlPlaneConfig()
        tiers[0] = _fold("tier " + repr(tiers[0].name), tiers[0],
                         admission=plane.admission, bulkhead=plane.bulkhead)
        boundaries[0] = _fold("boundary 0", boundaries[0],
                              leveling=plane.leveling)
        if plane.autoscaler is not None:
            workers = [depth for depth, tier in enumerate(tiers)
                       if tier.service == "worker"]
            if not workers:
                raise ConfigurationError(
                    "topology {!r} has no worker tier to autoscale".format(
                        spec.name))
            worker = tiers[workers[0]]
            tiers[workers[0]] = _fold("tier " + repr(worker.name), worker,
                                      autoscaler=plane.autoscaler)
        return replace(spec, tiers=tuple(tiers),
                       boundaries=tuple(boundaries))


def _fold(where: str, part, **fields):
    """``part`` (a tier or boundary spec, named ``where`` in errors)
    with the non-``None`` ``fields`` set; none may be set already."""
    fields = {name: value for name, value in fields.items()
              if value is not None}
    for name in fields:
        if getattr(part, name) is not None:
            raise ConfigurationError(
                "{}: {} is set by both the topology and "
                "ExperimentConfig.controlplane".format(where, name))
    return replace(part, **fields) if fields else part


@dataclass
class ExperimentResult:
    """Outcome of one run, with the paper's analysis entry points."""

    config: ExperimentConfig
    system: NTierSystem
    population: ClientPopulation
    duration: float
    #: Queue-length (in_server) timeline per server name, 50 ms samples.
    queue_series: dict[str, TimeSeries]
    #: Dirty-page timeline per host name (if sampled).
    dirty_series: dict[str, TimeSeries]
    #: Ground-truth fault records for the run (``None`` when faultless).
    fault_injector: Optional[FaultInjector] = None
    #: Per-request span tracer (``None`` unless ``trace_requests``).
    tracer: Optional["SpanTracer"] = None

    # -- response times --------------------------------------------------
    @property
    def recorder(self) -> ResponseTimeRecorder:
        return self.population.recorder

    def stats(self) -> ResponseTimeStats:
        """Table-I style summary statistics."""
        return self.recorder.stats()

    # -- fine-grained views -------------------------------------------------
    def cpu_utilization(self, server_name: str,
                        window: float = PAPER_WINDOW) -> TimeSeries:
        """Exact fine-grained CPU utilisation of one server's host."""
        server = self.system.server_named(server_name)
        return server.host.cpu.utilization_series(window, self.duration)

    def iowait(self, server_name: str,
               window: float = PAPER_WINDOW) -> TimeSeries:
        """Exact fine-grained iowait of one server's host (Fig. 2(d))."""
        server = self.system.server_named(server_name)
        return server.host.cpu.iowait_series(window, self.duration)

    def vlrt_windows(self) -> TimeSeries:
        """VLRT count per 50 ms window (Figs. 2(a)/6(a)/7(a))."""
        return self.recorder.vlrt_windows(PAPER_WINDOW, until=self.duration)

    def point_in_time_rt(self) -> TimeSeries:
        """Point-in-time response time (Figs. 1/3)."""
        return self.recorder.point_in_time(PAPER_WINDOW)

    def average_cpu(self) -> dict[str, float]:
        """Whole-run average CPU per server (Fig. 5)."""
        return {
            server.name: server.host.cpu.utilization(0.0, self.duration)
            for server in self.system.servers
        }

    # -- per-request traces -------------------------------------------------
    def traces(self) -> list:
        """All request traces, in begin order (requires tracing)."""
        if self.tracer is None:
            raise ConfigurationError(
                "run with trace_requests=True to record request traces")
        return list(self.tracer.traces.values())

    def slowest_traces(self, count: int = 5) -> list:
        """The ``count`` slowest completed requests' traces."""
        if count < 0:
            raise ConfigurationError(
                "count of slowest traces must be >= 0, got {}".format(count))
        completed = [trace for trace in self.traces() if trace.completed]
        completed.sort(key=lambda trace: -trace.duration)
        return completed[:count]

    def explain_vlrt(self):
        """Trace-level VLRT explanation (dominant causes + clusters)."""
        from repro.tracing.explain import explain_vlrt

        return explain_vlrt(self.traces())

    @cached_property
    def metrics(self) -> "RunMetrics":
        """This run's picklable numbers, computed on first access."""
        return RunMetrics.of(self)


@dataclass(frozen=True)
class RunMetrics:
    """Picklable per-run numbers: the one definition of every metric.

    Built from a live :class:`ExperimentResult` (as its ``metrics``)
    and returned as-is by :func:`repro.parallel.run_experiments` and
    :meth:`Grid.run`, so a run reports the same numbers whether it ran
    serially or in a process pool.  The counter fields are summed over
    the whole system; every derived metric is a method here.
    """

    config: ExperimentConfig
    duration: float
    response_stats: ResponseTimeStats
    millibottlenecks: int
    #: Client packets lost to web-tier accept-queue overflow.
    drops: int
    #: Fast 503s returned because every backend was in Error.
    errors_503: int
    #: Requests answered fast by a control-plane gate (admission,
    #: bulkhead or leveling overflow) instead of being served.
    sheds: int
    abandoned: int
    #: Client attempts sent, application retries included.
    attempts: int
    hedges: int
    #: Probe messages sent by probing policies (Prequal's pool).
    probes: int
    #: Broken affinity promises recorded by sticky-session policies.
    sticky_violations: int
    #: Dispatches a zone router had to send out of zone.
    spillovers: int
    wan_retransmits: int
    cache_hits: int
    cache_misses: int
    cache_cold_restarts: int
    #: Seconds after the last fault window until VLRTs subside: ``None``
    #: without a bounded fault window (or without responses), ``inf``
    #: when the per-window VLRT count never returns to its pre-fault
    #: baseline (the worst window before the first fault started).
    ttr: Optional[float]
    #: Share of total VLRT critical-path time per bucket (traced runs
    #: only; empty when no VLRT time was recorded).
    vlrt_buckets: Optional[dict[str, float]]

    @classmethod
    def of(cls, result: ExperimentResult) -> "RunMetrics":
        system, population = result.system, result.population
        frontends = system.frontends
        policies = [balancer.policy for balancer in system.balancers]
        caches = [server for server in system.servers
                  if isinstance(server, CacheTier)]
        return cls(
            config=result.config,
            duration=result.duration,
            response_stats=result.stats(),
            millibottlenecks=len(system.millibottleneck_records()),
            drops=sum(frontend.socket.dropped for frontend in frontends),
            errors_503=sum(frontend.error_responses
                           for frontend in frontends),
            sheds=sum(frontend.shed_responses for frontend in frontends),
            abandoned=population.requests_abandoned,
            attempts=population.attempts_issued,
            hedges=sum(hedger.hedges_issued for hedger in system.hedgers),
            probes=sum(getattr(policy, "probes_sent", 0)
                       for policy in policies),
            sticky_violations=sum(getattr(policy, "violations", 0)
                                  for policy in policies),
            spillovers=sum(router.spillovers
                           for router in system.zone_routers),
            wan_retransmits=sum(link.wan_retransmits
                                for link in system.wan_links),
            cache_hits=sum(cache.hits for cache in caches),
            cache_misses=sum(cache.misses for cache in caches),
            cache_cold_restarts=sum(cache.cold_restarts for cache in caches),
            ttr=_time_to_recover(result),
            vlrt_buckets=(None if result.tracer is None
                          else _bucket_shares(result.explain_vlrt())),
        )

    def stats(self) -> ResponseTimeStats:
        """Table-I style summary statistics."""
        return self.response_stats

    def table1_row(self) -> dict[str, float]:
        """One row of Table I for this run."""
        row = {"policy": self.config.bundle().description}
        row.update(self.response_stats.row())
        return row

    def vlrt_pct(self) -> float:
        return 100.0 * self.response_stats.vlrt_fraction

    def availability(self) -> float:
        """Successful client-visible outcomes / all client-visible outcomes.

        A 503 counts against availability even though the client got a
        (fast) response; so do control-plane sheds and abandoned
        requests — admission control trades availability for tail
        latency, and the report must show both sides of that trade.
        """
        count = self.response_stats.count
        total = count + self.abandoned
        if total == 0:
            return 1.0
        return (count - self.errors_503 - self.sheds) / total

    def retry_amplification(self) -> float:
        """System-side attempts per logical client request.

        Counts client attempts (application retries included) plus
        hedge copies; 1.0 means no remedy duplicated any work.
        """
        logical = self.response_stats.count + self.abandoned
        if logical == 0:
            return 1.0
        return (self.attempts + self.hedges) / logical

    def goodput(self) -> float:
        """Useful responses (no 503, not shed, under the VLRT
        threshold) per second."""
        stats = self.response_stats
        useful = (stats.count - self.errors_503 - self.sheds
                  - stats.vlrt_fraction * stats.count)
        return max(0.0, useful) / self.duration

    def shed_pct(self) -> float:
        """Share of responses answered fast by a control-plane gate."""
        count = self.response_stats.count
        return 100.0 * self.sheds / count if count else 0.0

    def probes_per_s(self) -> float:
        """The probe-message overhead a probing policy pays."""
        return self.probes / self.duration

    def cache_hit_pct(self) -> float:
        lookups = self.cache_hits + self.cache_misses
        return 100.0 * self.cache_hits / lookups if lookups else 0.0

    def summary(self) -> str:
        """A one-paragraph human-readable summary."""
        stats = self.response_stats
        label = self.config.bundle_key
        if self.config.topology is not None:
            label = "topology:" + self.config.topology.name
        return (
            "{}: {} requests, avg RT {:.2f} ms, VLRT {:.2f}%, "
            "normal {:.2f}%, drops {}, millibottlenecks {}".format(
                label,
                stats.count,
                stats.mean_ms,
                self.vlrt_pct(),
                100 * stats.normal_fraction,
                self.drops,
                self.millibottlenecks,
            )
        )


def _time_to_recover(result: ExperimentResult) -> Optional[float]:
    window = fault_horizon(result.config.faults)
    if window is None:
        return None
    start, end = window
    series = result.vlrt_windows()
    times, values = series.times, series.values
    if not times:
        return None
    baseline = max((v for t, v in zip(times, values) if t < start),
                   default=0.0)
    for t, v in zip(times, values):
        if t >= end and v <= baseline:
            return max(0.0, t - end)
    return float("inf")


def _bucket_shares(explanation) -> dict[str, float]:
    totals: dict[str, float] = {}
    grand = 0.0
    for path in explanation.paths:
        for bucket, seconds in path.buckets.items():
            totals[bucket] = totals.get(bucket, 0.0) + seconds
            grand += seconds
    if grand <= 0.0:
        return {}
    return {bucket: seconds / grand for bucket, seconds in totals.items()}


class ExperimentRunner:
    """Builds and runs one experiment."""

    def __init__(self, config: ExperimentConfig) -> None:
        self.config = config

    def run(self, env: Optional[Environment] = None) -> ExperimentResult:
        """Execute the run and return its result.

        ``env`` lets the caller supply a pre-built environment — the
        golden-trace determinism tests use this to install the
        :attr:`~repro.sim.core.Environment.trace` probe before any
        event is scheduled.  It must be a fresh environment at t=0.
        """
        config = self.config
        if env is None:
            env = Environment()
        tracer = None
        if config.trace_requests:
            tracer = SpanTracer(env)
            env.tracer = tracer
        rng = np.random.default_rng(config.seed)
        spec = config.spec()

        system = build_from_spec(
            env, spec, rng=rng,
            trace_balancers=config.trace_balancers,
            resilience=config.resilience,
        )

        fault_injector = None
        if config.faults:
            # The injector gets its own stream off the run seed so the
            # fault timeline is a pure function of (seed, faults) —
            # identical whether the run executes serially or in a pool.
            fault_injector = FaultInjector(
                env, rng=np.random.default_rng(
                    [config.seed, FAULT_RNG_STREAM]))
            fault_injector.inject_all(config.faults, system)

        population = ClientPopulation(
            env,
            sockets=[frontend.socket for frontend in system.frontends],
            total_clients=spec.workload.clients,
            mix=read_write_mix(),
            rng=rng,
            think_time=spec.workload.think_time,
            retransmission=RetransmissionPolicy(),
            ramp_up=spec.workload.ramp_up,
            retry=(config.resilience.retry
                   if config.resilience is not None else None),
        )

        queue_samplers = {
            server.name: Sampler(env, _probe(server), period=PAPER_WINDOW,
                                 name=server.name)
            for server in system.servers
        }
        dirty_samplers = {}
        if config.sample_dirty_pages:
            dirty_samplers = {
                host.name: Sampler(env, _dirty_probe(host),
                                   period=PAPER_WINDOW, name=host.name)
                for host in system.hosts
            }

        env.run(until=config.duration)
        if tracer is not None:
            tracer.finalize()

        return ExperimentResult(
            config=config,
            system=system,
            population=population,
            duration=config.duration,
            fault_injector=fault_injector,
            tracer=tracer,
            queue_series={
                name: TimeSeries.from_arrays(*sampler.series(), name=name)
                for name, sampler in queue_samplers.items()
            },
            dirty_series={
                name: TimeSeries.from_arrays(*sampler.series(), name=name)
                for name, sampler in dirty_samplers.items()
            },
        )


def _probe(server):
    return lambda: server.in_server


def _dirty_probe(host):
    return lambda: host.pagecache.dirty_bytes


def with_overrides(config: ExperimentConfig,
                   overrides: Mapping[str, Any]) -> ExperimentConfig:
    """Return a copy of ``config`` with ``overrides`` applied in order.

    Keys are config fields (``"seed"``) or profile fields
    (``"profile.clients"``).
    """
    for path, value in overrides.items():
        parts = path.split(".")
        if len(parts) == 1:
            if not hasattr(config, path):
                raise ConfigurationError("unknown config field: " + path)
            config = replace(config, **{path: value})
        elif len(parts) == 2 and parts[0] == "profile":
            if not hasattr(config.profile, parts[1]):
                raise ConfigurationError("unknown profile field: " + path)
            config = replace(config, profile=replace(
                config.profile, **{parts[1]: value}))
        else:
            raise ConfigurationError("unsupported override path: " + path)
    return config


class Grid:
    """Named axes over a base config: one run per point of their product.

    ``axes`` maps each axis name to ``{label: overrides}`` (see
    :func:`with_overrides`); overrides are validated eagerly.  Cells are
    independent experiments, each seeded solely by its own config, so
    :meth:`run` returns identical rows under ``workers=1`` and
    ``workers=N``.
    """

    def __init__(self, base: ExperimentConfig,
                 axes: Mapping[str, Mapping[str, Mapping[str, Any]]]
                 ) -> None:
        self.base = base
        self.axes = {name: dict(points) for name, points in axes.items()}
        for name, points in self.axes.items():
            if not points:
                raise ConfigurationError(
                    "axis {} has no points".format(name))
            for overrides in points.values():
                with_overrides(base, overrides)

    def cells(self) -> list[tuple[dict[str, str], ExperimentConfig]]:
        """``(labels, config)`` per grid point, in product order."""
        names = list(self.axes)
        cells = []
        for combo in itertools.product(
                *(self.axes[name].items() for name in names)):
            config = self.base
            for _, overrides in combo:
                config = with_overrides(config, overrides)
            cells.append(({name: label for name, (label, _)
                           in zip(names, combo)}, config))
        return cells

    def run(self, workers: Optional[int] = 1
            ) -> list[tuple[dict[str, str], RunMetrics]]:
        """Run every cell; ``(labels, metrics)`` rows in product order.

        ``workers`` follows :func:`repro.parallel.run_experiments`:
        1 runs serially, N fans out over a process pool, ``None`` uses
        one worker per CPU.
        """
        from repro.parallel import run_experiments

        cells = self.cells()
        metrics = run_experiments([config for _, config in cells],
                                  workers=workers)
        return [(labels, run) for (labels, _), run in zip(cells, metrics)]


def compare_policies(bundle_keys, profile: Optional[ScaleProfile] = None,
                     duration: float = 30.0, seed: int = 42,
                     trace: bool = False,
                     workers: Optional[int] = 1) -> list[RunMetrics]:
    """Run several Table-I bundles under identical conditions.

    Each run uses the same seed, profile, duration, and workload mix,
    so differences are attributable to the policy/mechanism alone.
    One :class:`RunMetrics` per bundle comes back, in ``bundle_keys``
    order, whether the runs went serially (``workers=1``) or through a
    process pool.
    """
    base = ExperimentConfig(
        profile=profile or ScaleProfile(), duration=duration, seed=seed,
        trace_balancers=trace)
    grid = Grid(base, {"bundle": {key: {"bundle_key": key}
                                  for key in bundle_keys}})
    return [run for _, run in grid.run(workers=workers)]
