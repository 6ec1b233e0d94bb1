"""Millibottleneck profiles — when and how hard dirty-page flushing bites.

The paper manipulates exactly two knobs to turn millibottlenecks on and
off (§II-B): the size of the memory allowed to hold dirty pages and the
flush interval ("we enlarged the memory that holds the dirty pages to
4.8 GB and lengthened the flushing interval to 600 seconds").  A
:class:`MillibottleneckProfile` captures those knobs per host.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import ConfigurationError


@dataclass(frozen=True)
class MillibottleneckProfile:
    """Flush-daemon configuration for one host.

    Parameters
    ----------
    flush_interval:
        Seconds between pdflush wake-ups.
    dirty_threshold_bytes:
        Minimum dirty set that triggers a write-back burst at wake-up;
        models the "memory that holds the dirty pages".
    phase:
        Offset of the first wake-up, used to stagger hosts so that (as
        in the paper's zoom-ins) one Tomcat at a time has its
        millibottleneck.
    enabled:
        When ``False`` the flush daemon never runs — the idealised
        millibottleneck-free environment of Fig. 1.
    """

    flush_interval: float = 4.0
    dirty_threshold_bytes: float = 1e6
    phase: float = 0.0
    enabled: bool = True

    def __post_init__(self) -> None:
        if self.flush_interval <= 0:
            raise ConfigurationError("flush_interval must be positive")
        if self.dirty_threshold_bytes < 0:
            raise ConfigurationError("dirty_threshold_bytes must be >= 0")
        if self.phase < 0:
            raise ConfigurationError("phase must be >= 0")

    @classmethod
    def disabled(cls) -> "MillibottleneckProfile":
        """The paper's remedy configuration: no flush within a run.

        Mirrors §III-C's 4.8 GB dirty memory and 600 s flush interval,
        which guarantee zero write-back bursts during the experiment.
        """
        return cls(flush_interval=600.0, dirty_threshold_bytes=4.8e9,
                   enabled=False)
