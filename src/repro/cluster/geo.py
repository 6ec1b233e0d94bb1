"""Geo-scale headline experiment: does hierarchy contain the fault?

The paper showed a *single-cluster* balancer cannot route around a
millibottleneck it cannot see in time.  The geo question is whether a
zone-local **hierarchy** (per-zone balancers under a locality-first
zone router, :class:`~repro.core.balancer.ZoneRouter`) contains a
zone-scale fault better than one flat global balancer over the same
replicas — or whether spillover just ships the overload across a lossy
WAN and reproduces the VLRT signature with extra RTT.

:class:`GeoSuite` crosses the two ``geo`` builtins (hierarchical vs
flat) with three geo-scale fault timelines:

``zone_outage``
    Every east replica crashes together while the surviving zone's
    worker disks are starved (the millibottleneck knob) — the
    spillover traffic lands exactly where flushing stalls live.
``wan_degradation``
    The east-west backbone browns out: latency jumps and loss makes
    every cross-zone hop pay link-layer retransmissions.
``cache_failover``
    One cache replica crashes and comes back *cold*; the cell records
    request traces so the report can show whether VLRTs re-cluster one
    tier down (DB queue wait behind the suddenly-missing hit ratio).

Each cell's :class:`~repro.cluster.runner.RunMetrics` carries the
zone router spillover counters, WAN retransmit counts and cache hit
ratios, so the cells run serially or through a process pool alike.
"""

from __future__ import annotations

from typing import Callable, Optional, Sequence

from repro.cluster.faults import CrashFault, FaultSpec
from repro.cluster.runner import ExperimentConfig, Grid
from repro.cluster.scenarios import FAULT_SCENARIOS
from repro.cluster.spec import TopologySpec
from repro.errors import ConfigurationError

__all__ = ["GEO_DURATION", "GEO_FAULTS", "TRACED_FAULTS", "GeoSuite"]

#: Default run length for geo cells (seconds) — long enough for the
#: fault window plus recovery, short enough for CI.
GEO_DURATION = 12.0

#: Disk bandwidth of the worker tier in the suite's topologies: well
#: under the 8 MB/s classic default, so a surviving zone that absorbs
#: spillover is flushing into a starved disk (the millibottleneck).
STARVED_DISK_BANDWIDTH = 3e6

#: Named geo-scale fault timelines, ``duration -> specs`` like
#: :data:`~repro.cluster.scenarios.FAULT_SCENARIOS`, which defines the
#: two zone timelines; only ``cache_failover`` is geo-specific.
GEO_FAULTS: dict[str, Callable[[float], tuple[FaultSpec, ...]]] = {
    "zone_outage": FAULT_SCENARIOS["zone_outage"],
    "wan_degradation": FAULT_SCENARIOS["wan_degradation"],
    "cache_failover": lambda d: (
        CrashFault("cache1", at=0.25 * d, duration=0.2 * d),),
}

#: Fault keys whose cells record request traces, so the report can
#: decompose VLRT time into the new buckets (``wan.transit``,
#: ``cache.miss_penalty``, per-tier queue wait).
TRACED_FAULTS = frozenset({"cache_failover"})


class GeoSuite(Grid):
    """Cross {hierarchy, flat} geo topologies with geo-scale faults.

    Both topologies share replica placement, WAN profile, workload and
    seed; the only difference is the balancer shape, so any difference
    in a row pair is attributable to hierarchy alone.
    """

    def __init__(self,
                 fault_keys: Optional[Sequence[str]] = None,
                 duration: float = GEO_DURATION,
                 seed: int = 42,
                 disk_bandwidth: float = STARVED_DISK_BANDWIDTH,
                 clients: int = 160) -> None:
        if fault_keys is None:
            fault_keys = sorted(GEO_FAULTS)
        for key in fault_keys:
            if key not in GEO_FAULTS:
                raise ConfigurationError(
                    "unknown geo fault {!r}; available: {}".format(
                        key, ", ".join(sorted(GEO_FAULTS))))
        if duration <= 0:
            raise ConfigurationError("duration must be positive")
        super().__init__(
            ExperimentConfig(duration=duration, seed=seed,
                             trace_balancers=False),
            {"topology": {
                key: {"topology": TopologySpec.geo(
                    hierarchy=key == "geo", disk_bandwidth=disk_bandwidth,
                    clients=clients)}
                for key in ("geo", "geo_flat")},
             "fault": {
                key: {"faults": tuple(GEO_FAULTS[key](duration)),
                      "trace_requests": key in TRACED_FAULTS}
                for key in fault_keys}})
