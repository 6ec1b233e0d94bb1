"""The paper's contribution: mod_jk's load balancer, its failure modes
under millibottlenecks, and the two remedies.

* Policies (upper scheduler level): ``total_request``,
  ``total_traffic`` — cumulative, unstable under millibottlenecks —
  and ``current_load``, the policy-level remedy, plus a zoo of extra
  policies for ablations.
* Mechanism (lower level): ``OriginalGetEndpoint`` (Algorithm 1's
  poll-with-sleep) and ``ModifiedGetEndpoint``, the mechanism-level
  remedy that treats an unresponsive candidate as Busy immediately.
* The 3-state member lifecycle, per-backend endpoint pools, and the
  per-Apache :class:`LoadBalancer` that ties it all together.
"""

from repro.core.balancer import DirectDispatcher, LoadBalancer
from repro.core.mechanism import (
    DEFAULT_CACHE_ACQUIRE_TIMEOUT,
    DEFAULT_JK_SLEEP,
    MECHANISMS,
    GetEndpointMechanism,
    ModifiedGetEndpoint,
    OriginalGetEndpoint,
    make_mechanism,
)
from repro.core.member import DEFAULT_POOL_SIZE, BalancerMember, Endpoint
from repro.core.policies import (
    LB_MULT,
    POLICIES,
    CurrentLoadPolicy,
    EwmaLatencyPolicy,
    JoinIdleQueuePolicy,
    Policy,
    PrequalPolicy,
    PrequalProbeConfig,
    RandomPolicy,
    RoundRobinPolicy,
    StickyConfig,
    StickySessionPolicy,
    TotalRequestPolicy,
    TotalTrafficPolicy,
    TwoChoicesPolicy,
    WeightedLeastConnPolicy,
    make_policy,
)
from repro.core.remedies import (
    BUNDLES,
    MODERN_BUNDLES,
    TABLE1_BUNDLES,
    RemedyBundle,
    get_bundle,
)
from repro.core.states import MemberState, StateConfig

__all__ = [
    "LoadBalancer",
    "DirectDispatcher",
    "BalancerMember",
    "Endpoint",
    "MemberState",
    "StateConfig",
    "Policy",
    "TotalRequestPolicy",
    "TotalTrafficPolicy",
    "CurrentLoadPolicy",
    "RoundRobinPolicy",
    "RandomPolicy",
    "TwoChoicesPolicy",
    "EwmaLatencyPolicy",
    "PrequalPolicy",
    "PrequalProbeConfig",
    "JoinIdleQueuePolicy",
    "WeightedLeastConnPolicy",
    "StickyConfig",
    "StickySessionPolicy",
    "POLICIES",
    "make_policy",
    "LB_MULT",
    "GetEndpointMechanism",
    "OriginalGetEndpoint",
    "ModifiedGetEndpoint",
    "MECHANISMS",
    "make_mechanism",
    "DEFAULT_CACHE_ACQUIRE_TIMEOUT",
    "DEFAULT_JK_SLEEP",
    "DEFAULT_POOL_SIZE",
    "RemedyBundle",
    "TABLE1_BUNDLES",
    "MODERN_BUNDLES",
    "BUNDLES",
    "get_bundle",
]
