"""OS-level substrate: hosts, CPUs, disks, page cache, flush daemon.

This is where millibottlenecks come from.  Buffered log writes dirty
the page cache; the flush daemon periodically writes them back, and
during the write-back burst every core sits in iowait — a transient,
sub-second, full saturation of the host that the paper names a
*millibottleneck*.
"""

from repro.osmodel.cpu import FOREGROUND_PRIORITY, STALL_PRIORITY, Cpu
from repro.osmodel.disk import DEFAULT_WRITE_BANDWIDTH, Disk
from repro.osmodel.host import DEFAULT_CORES, Host
from repro.osmodel.pagecache import PageCache
from repro.osmodel.pdflush import FlushDaemon, MillibottleneckRecord
from repro.osmodel.profiles import MillibottleneckProfile
from repro.osmodel.sources import (
    GarbageCollectionSource,
    TransientStallInjector,
)

__all__ = [
    "Host",
    "Cpu",
    "Disk",
    "PageCache",
    "FlushDaemon",
    "MillibottleneckRecord",
    "MillibottleneckProfile",
    "TransientStallInjector",
    "GarbageCollectionSource",
    "DEFAULT_CORES",
    "DEFAULT_WRITE_BANDWIDTH",
    "STALL_PRIORITY",
    "FOREGROUND_PRIORITY",
]
