"""Named policy x mechanism bundles — the six rows of Table I.

The paper evaluates the cross product of {original, remedied} policy
and {original, modified} mechanism.  A :class:`RemedyBundle` names one
combination and builds fresh policy/mechanism instances for each
balancer (policies are stateful; they must never be shared between
Apaches).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.mechanism import GetEndpointMechanism, make_mechanism
from repro.core.policies import Policy, make_policy
from repro.errors import ConfigurationError


@dataclass(frozen=True)
class RemedyBundle:
    """One (policy, mechanism) combination under its Table-I name."""

    key: str
    policy_name: str
    mechanism_name: str
    description: str

    def make_policy(self) -> Policy:
        return make_policy(self.policy_name)

    def make_mechanism(self) -> GetEndpointMechanism:
        return make_mechanism(self.mechanism_name)


#: Table I rows, in the paper's order.
TABLE1_BUNDLES: tuple[RemedyBundle, ...] = (
    RemedyBundle(
        key="original_total_request",
        policy_name="total_request",
        mechanism_name="original",
        description="Original total_request",
    ),
    RemedyBundle(
        key="original_total_traffic",
        policy_name="total_traffic",
        mechanism_name="original",
        description="Original total_traffic",
    ),
    RemedyBundle(
        key="current_load",
        policy_name="current_load",
        mechanism_name="original",
        description="Current_load",
    ),
    RemedyBundle(
        key="total_request_modified",
        policy_name="total_request",
        mechanism_name="modified",
        description="Total_request with modified get_endpoint",
    ),
    RemedyBundle(
        key="total_traffic_modified",
        policy_name="total_traffic",
        mechanism_name="modified",
        description="Total_traffic with modified get_endpoint",
    ),
    RemedyBundle(
        key="current_load_modified",
        policy_name="current_load",
        mechanism_name="modified",
        description="Current_workload with modified get_endpoint",
    ),
)

#: The modern-policy zoo, each paired with the *original* mechanism so
#: the rematch isolates the policy level: whatever a modern policy buys
#: against millibottlenecks, it buys without the paper's §V-C
#: mechanism fix.
MODERN_BUNDLES: tuple[RemedyBundle, ...] = (
    RemedyBundle(
        key="prequal",
        policy_name="prequal",
        mechanism_name="original",
        description="Prequal probing (hot/cold RIF+latency)",
    ),
    RemedyBundle(
        key="jsq_d",
        policy_name="jsq_d",
        mechanism_name="original",
        description="JSQ(d) power-of-d sampling",
    ),
    RemedyBundle(
        key="jiq",
        policy_name="jiq",
        mechanism_name="original",
        description="Join-idle-queue",
    ),
    RemedyBundle(
        key="weighted_least_conn",
        policy_name="weighted_least_conn",
        mechanism_name="original",
        description="Weighted least-connections",
    ),
    RemedyBundle(
        key="sticky",
        policy_name="sticky",
        mechanism_name="original",
        description="Sticky sessions (current_load fallback)",
    ),
)

BUNDLES: dict[str, RemedyBundle] = {
    bundle.key: bundle for bundle in TABLE1_BUNDLES + MODERN_BUNDLES
}


def get_bundle(key: str) -> RemedyBundle:
    """Look up a Table-I bundle by key."""
    try:
        return BUNDLES[key]
    except KeyError:
        raise ConfigurationError(
            "unknown remedy bundle: {} (have: {})".format(
                key, ", ".join(sorted(BUNDLES)))) from None
