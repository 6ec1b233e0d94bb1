"""repro — reproduction of the ICDCS 2017 millibottleneck load-balancing study.

This package implements, in pure Python, everything needed to reproduce
"Limitations of Load Balancing Mechanisms for N-Tier Systems in the
Presence of Millibottlenecks" (Zhu et al., ICDCS 2017): a discrete-event
simulation kernel (:mod:`repro.sim`), an OS model whose dirty-page
flushing produces millibottlenecks (:mod:`repro.osmodel`), a network
model whose accept-queue drops produce VLRT requests
(:mod:`repro.netmodel`), Apache/Tomcat/MySQL tier models
(:mod:`repro.tiers`), the mod_jk two-level load balancer with the
paper's policies and remedies (:mod:`repro.core`), the RUBBoS workload
(:mod:`repro.workload`), experiment wiring (:mod:`repro.cluster`), and
the paper's fine-grained analysis methodology (:mod:`repro.analysis`).

Quickstart::

    from repro import ExperimentRunner, Scenario

    result = ExperimentRunner(Scenario.named("table1/current_load")).run()
    print(result.metrics.summary())
"""

__version__ = "1.0.0"

from repro.cluster.config import ScaleProfile
from repro.cluster.runner import (
    ExperimentConfig,
    ExperimentResult,
    ExperimentRunner,
    Grid,
    RunMetrics,
    compare_policies,
)
from repro.cluster.scenarios import Scenario
from repro.cluster.spec import TopologySpec
from repro.cluster.topology import NTierSystem, build_from_spec
from repro.core.balancer import DirectDispatcher, LoadBalancer
from repro.core.mechanism import ModifiedGetEndpoint, OriginalGetEndpoint
from repro.core.policies import (
    CurrentLoadPolicy,
    Policy,
    TotalRequestPolicy,
    TotalTrafficPolicy,
    make_policy,
)
from repro.core.remedies import TABLE1_BUNDLES, RemedyBundle, get_bundle
from repro.errors import (
    AnalysisError,
    BalancerError,
    ConfigurationError,
    NoCandidateError,
    ReproError,
    SimulationError,
    WorkloadError,
)
from repro.metrics.stats import ResponseTimeStats
from repro.osmodel.profiles import MillibottleneckProfile
from repro.parallel import Replication, replicate, run_experiments
from repro.workload.mix import browsing_only_mix, read_write_mix

__all__ = [
    "__version__",
    # experiments
    "ExperimentConfig",
    "ExperimentResult",
    "ExperimentRunner",
    "RunMetrics",
    "Grid",
    "Scenario",
    "ScaleProfile",
    "compare_policies",
    "NTierSystem",
    "build_from_spec",
    "TopologySpec",
    "Replication",
    "replicate",
    "run_experiments",
    # the contribution
    "LoadBalancer",
    "DirectDispatcher",
    "Policy",
    "TotalRequestPolicy",
    "TotalTrafficPolicy",
    "CurrentLoadPolicy",
    "make_policy",
    "OriginalGetEndpoint",
    "ModifiedGetEndpoint",
    "RemedyBundle",
    "TABLE1_BUNDLES",
    "get_bundle",
    # supporting
    "MillibottleneckProfile",
    "ResponseTimeStats",
    "browsing_only_mix",
    "read_write_mix",
    # errors
    "ReproError",
    "SimulationError",
    "ConfigurationError",
    "WorkloadError",
    "BalancerError",
    "NoCandidateError",
    "AnalysisError",
]
