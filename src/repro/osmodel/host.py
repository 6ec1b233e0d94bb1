"""A simulated machine: cores, page cache, disk, and the flush daemon.

Each tier server in :mod:`repro.tiers` owns one :class:`Host`.  The
host is where the substrate layers meet: request processing burns CPU
via :meth:`execute`, log writes dirty the page cache via
:meth:`write_file`, and the flush daemon periodically turns those dirty
pages into a millibottleneck.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional

from repro.osmodel.cpu import Cpu
from repro.osmodel.disk import DEFAULT_WRITE_BANDWIDTH, Disk
from repro.osmodel.pagecache import PageCache
from repro.osmodel.pdflush import FlushDaemon, MillibottleneckRecord
from repro.osmodel.profiles import MillibottleneckProfile

if TYPE_CHECKING:  # pragma: no cover
    from repro.sim.core import Environment

#: Core count of the paper's Emulab d710 nodes (Xeon E5530 quad-core).
DEFAULT_CORES = 4


class Host:
    """One machine of the testbed.

    Parameters
    ----------
    env:
        Owning simulation environment.
    name:
        Host name used in metrics and reports (e.g. ``"tomcat1"``).
    cores:
        CPU core count.
    disk_bandwidth:
        Write-back bandwidth in bytes/second.
    flush_profile:
        Millibottleneck behaviour; ``None`` disables the flush daemon
        entirely (equivalent to ``MillibottleneckProfile.disabled()``).
    """

    def __init__(self, env: "Environment", name: str,
                 cores: int = DEFAULT_CORES,
                 disk_bandwidth: float = DEFAULT_WRITE_BANDWIDTH,
                 flush_profile: Optional[MillibottleneckProfile] = None) -> None:
        self.env = env
        self.name = name
        self.cpu = Cpu(env, cores, name + ".cpu")
        self.disk = Disk(env, disk_bandwidth, name + ".disk")
        self.pagecache = PageCache(env, name + ".pagecache")
        #: Ground-truth stall records appended by the flush daemon.
        self.millibottlenecks: list[MillibottleneckRecord] = []
        self.flush_profile = flush_profile or MillibottleneckProfile.disabled()
        self.flush_daemon = FlushDaemon(self, self.flush_profile)
        #: Service-rate degradation multiplier (fail-slow fault
        #: injection): every CPU demand is stretched by this factor.
        #: ``1.0`` is bit-exact identity, so the hook is free when off.
        self.slowdown = 1.0

    def execute(self, cpu_seconds: float):
        """Process generator: run foreground work for ``cpu_seconds``."""
        return self.cpu.execute(cpu_seconds * self.slowdown)

    def write_file(self, nbytes: float) -> None:
        """Buffered file write (returns immediately; dirties pages)."""
        self.pagecache.write(nbytes)

    def __repr__(self) -> str:
        return "<Host {} cores={} millibottlenecks={}>".format(
            self.name, self.cpu.cores, len(self.millibottlenecks))
