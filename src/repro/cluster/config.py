"""Experiment configuration: the paper's Tables II/III and scaling.

The paper's testbed ran 70 000 clients against 4 Apache + 4 Tomcat +
1 MySQL on Emulab d710 nodes.  A pure-Python simulation cannot push
70 000 closed-loop clients in reasonable wall-clock time, so the
default :class:`ScaleProfile` scales the population and per-server
concurrency limits down together, preserving the ratios that govern
queueing behaviour:

* arrival rate per server vs. service capacity (utilisation);
* millibottleneck duration vs. the web tier's absorption capacity
  (free workers + accept backlog), which decides whether packets drop;
* millibottleneck duration vs. ``cache_acquire_timeout``, which
  decides whether the original mechanism's polling spans the stall.

``ScaleProfile.paper()`` keeps the full-scale Table III values for
users with patience.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from repro.errors import ConfigurationError


@dataclass(frozen=True)
class SoftwareStack:
    """Table II: the software stack of the paper's testbed."""

    web_server: str = "Apache Httpd 2.2.22"
    application_server: str = "Apache Tomcat 5.5.17"
    database_server: str = "MySQL 5.5.17"
    java: str = "JDK 7"
    connector: str = "mod_jk 1.2.32"
    operating_system: str = "Fedora 15 (kernel 3.3)"


@dataclass(frozen=True)
class HardwareConfig:
    """Table II: the d710 node hardware."""

    cpu: str = "Intel Xeon E5530, 2.40 GHz quad-core"
    cores: int = 4
    memory_gb: int = 12
    disk: str = "WD SATA 7,200 RPM, 500 GB"
    network: str = "1 Gbps"


@dataclass(frozen=True)
class PaperTierConfig:
    """Table III: full-scale software resource limits."""

    apache_max_clients: int = 200
    apache_threads_per_child: int = 100
    worker_connection_pool_size: int = 25
    tomcat_max_threads: int = 210
    db_connections_total: int = 48
    db_connections_per_servlet: int = 6
    mysql_query_cache_mb: int = 10


@dataclass(frozen=True)
class ScaleProfile:
    """All knobs of one simulated deployment.

    The default values are the *scaled* testbed used by the benchmark
    suite; see module docstring for the invariants the scaling keeps.
    """

    name: str = "scaled"
    # -- topology (Fig. 14) --------------------------------------------
    apache_count: int = 4
    tomcat_count: int = 4
    # -- workload ------------------------------------------------------
    clients: int = 2000
    think_time: float = 1.0
    ramp_up: float = 1.0
    # -- web tier ------------------------------------------------------
    apache_max_clients: int = 24
    apache_backlog: int = 32
    # -- app tier ------------------------------------------------------
    tomcat_max_threads: int = 16
    #: Endpoints per (Apache, Tomcat) pair.  The paper's ratio of web
    #: workers to pool size (per process: 100 threads vs 25 endpoints)
    #: is what makes pool exhaustion — not worker exhaustion — the
    #: first symptom of a stalled backend; the scaled profile keeps
    #: that ratio (24 workers vs 6 endpoints).
    connection_pool_size: int = 6
    # -- database tier -------------------------------------------------
    mysql_connections: int = 48
    # -- millibottleneck machinery --------------------------------------
    #: Effective log write-back bandwidth of the app-tier spindle.
    #: Small, seek-heavy log writes on a 7200 RPM SATA disk sustain
    #: single-digit MB/s, which is what stretches a ~1 MB flush into a
    #: >100 ms stall.
    tomcat_disk_bandwidth: float = 8e6
    apache_disk_bandwidth: float = 8e6
    flush_interval: float = 4.0
    flush_threshold_bytes: float = 256e3

    def __post_init__(self) -> None:
        if self.apache_count < 1 or self.tomcat_count < 1:
            raise ConfigurationError("need at least one server per tier")
        if self.clients < 1:
            raise ConfigurationError("need at least one client")
        if self.think_time <= 0:
            raise ConfigurationError("think_time must be positive")

    def scaled(self, factor: float) -> "ScaleProfile":
        """A copy with the client population scaled by ``factor``.

        Concurrency limits scale along so the drop/absorption ratio is
        preserved, and so does the write-back bandwidth: more clients
        dirty more log bytes per flush interval, so keeping the stall
        *duration* invariant requires the disk to drain proportionally
        faster.  (Physically: a bigger deployment gets bigger disks.)
        """
        if factor <= 0:
            raise ConfigurationError("factor must be positive")
        return replace(
            self,
            name="{}x{:.2f}".format(self.name, factor),
            clients=max(1, int(self.clients * factor)),
            apache_max_clients=max(2, int(self.apache_max_clients * factor)),
            apache_backlog=max(2, int(self.apache_backlog * factor)),
            tomcat_max_threads=max(2, int(self.tomcat_max_threads * factor)),
            mysql_connections=max(2, int(self.mysql_connections * factor)),
            tomcat_disk_bandwidth=self.tomcat_disk_bandwidth * factor,
            apache_disk_bandwidth=self.apache_disk_bandwidth * factor,
        )

    @classmethod
    def paper(cls) -> "ScaleProfile":
        """The full Table III configuration (slow in pure Python)."""
        return cls(
            name="paper",
            clients=70000,
            think_time=7.0,
            apache_max_clients=200,
            apache_backlog=511,
            tomcat_max_threads=210,
            connection_pool_size=25,
            mysql_connections=48,
        )

    @classmethod
    def smoke(cls) -> "ScaleProfile":
        """A tiny profile for fast unit/integration tests."""
        return cls(
            name="smoke",
            clients=200,
            apache_count=2,
            tomcat_count=2,
            apache_max_clients=8,
            apache_backlog=10,
            tomcat_max_threads=8,
            mysql_connections=16,
        )

    @classmethod
    def single_node(cls) -> "ScaleProfile":
        """The §III-B configuration: 1 Apache / 1 Tomcat / 1 MySQL."""
        return cls(
            name="single_node",
            apache_count=1,
            tomcat_count=1,
            clients=500,
            apache_max_clients=24,
            apache_backlog=32,
            tomcat_max_threads=16,
            mysql_connections=24,
        )
