"""Session-wide fixtures shared across test files.

Acceptance classes in different files pin claims about the same
expensive experiment cell.  :class:`CellCache` runs each cell once per
session and hands every reader the same :class:`RunMetrics`; a cell is
keyed by its whole frozen :class:`ExperimentConfig`, so two cells that
differ in any field never share a result.
"""

from dataclasses import replace

import pytest

from repro.cluster.config import ScaleProfile
from repro.cluster.runner import ExperimentConfig
from repro.cluster.scenarios import fault_specs
from repro.parallel import run_experiments


class CellCache:
    """Frozen ``ExperimentConfig`` -> ``RunMetrics``, run on first use."""

    def __init__(self) -> None:
        self._runs = {}

    def run(self, configs, workers=1):
        """One ``RunMetrics`` per config, in order; only configs not
        seen before in this session are run (through the process pool
        when ``workers`` > 1)."""
        missing = [config for config in dict.fromkeys(configs)
                   if config not in self._runs]
        for config, metrics in zip(
                missing, run_experiments(missing, workers=workers)):
            self._runs[config] = metrics
        return [self._runs[config] for config in configs]


@pytest.fixture(scope="session")
def cells():
    return CellCache()


@pytest.fixture(scope="session")
def starved_packet_loss():
    """The headline millibottleneck cell, defined once: disk-starved
    Tomcats plus the ``packet_loss`` fault, ``original_total_request``,
    12 simulated seconds at seed 42.  Readers vary the policy or add a
    remedy with ``dataclasses.replace``."""
    return ExperimentConfig(
        bundle_key="original_total_request",
        profile=replace(ScaleProfile(), tomcat_disk_bandwidth=4e6),
        duration=12.0, seed=42,
        trace_balancers=False,
        faults=fault_specs("packet_loss", 12.0))
