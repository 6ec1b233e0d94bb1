#!/usr/bin/env python3
"""Write your own millibottleneck-aware policy against the public API.

The paper's conclusion invites exactly this: "Other load balancers in
N-tier systems can take advantage of our remedies."  This example
implements a custom policy — rank by requests in flight, but *veto* any
candidate whose host looks unresponsive right now (a free health probe,
in the spirit of the paper's 'consider recent utilisation changes') —
plugs it into the balancer through `policy_factory`, and races it
against the stock policies and the paper's remedies.

Run:  python examples/custom_policy.py
"""

import numpy as np

from repro import ScaleProfile, TopologySpec, build_from_spec
from repro.analysis import table
from repro.core import (
    OriginalGetEndpoint,
    Policy,
    make_mechanism,
    make_policy,
)
from repro.netmodel import RetransmissionPolicy
from repro.sim import Environment
from repro.workload import ClientPopulation, read_write_mix


class ResponsiveCurrentLoadPolicy(Policy):
    """current_load plus an instantaneous responsiveness veto.

    Ranking: requests in flight (as Algorithm 4).  Selection: among the
    eligible candidates, any whose host is mid-stall (no CPU slice
    available for even a handshake) is deprioritised by a large
    penalty, so it is only picked when every backend is stalled.
    """

    name = "responsive_current_load"
    cumulative = False

    STALL_PENALTY = 1e6

    def select(self, eligible, rng, request=None):
        def key(member):
            penalty = 0.0 if member.server.responsive else self.STALL_PENALTY
            return (member.lb_value + penalty, member.index)
        return min(eligible, key=key)

    def on_pick(self, member, request):
        member.lb_value = member.lb_value + 1

    def on_pick_abandoned(self, member, request):
        self._decrement(member)

    def on_complete(self, member, request):
        self._decrement(member)

    @staticmethod
    def _decrement(member):
        member.lb_value = max(0.0, member.lb_value - 1)


def run(policy_factory, mechanism_factory, label, duration=10.0, seed=3):
    env = Environment()
    rng = np.random.default_rng(seed)
    profile = ScaleProfile()
    system = build_from_spec(
        env, TopologySpec.classic(profile),
        rng=rng,
        policy_factory=policy_factory,
        mechanism_factory=mechanism_factory,
        trace_balancers=False,
    )
    population = ClientPopulation(
        env, [apache.socket for apache in system.frontends],
        total_clients=profile.clients, mix=read_write_mix(), rng=rng,
        think_time=profile.think_time,
        retransmission=RetransmissionPolicy())
    env.run(until=duration)
    stats = population.recorder.stats()
    drops = sum(apache.socket.dropped for apache in system.frontends)
    return [label, stats.count, "{:.2f}".format(stats.mean_ms),
            "{:.2f}%".format(100 * stats.vlrt_fraction), drops]


def main() -> None:
    print("Racing a custom policy against the paper's (10 simulated "
          "seconds each)...")
    rows = [
        run(lambda: make_policy("total_request"),
            lambda: make_mechanism("original"),
            "total_request (stock)"),
        run(lambda: make_policy("current_load"),
            lambda: make_mechanism("original"),
            "current_load (paper's policy remedy)"),
        run(ResponsiveCurrentLoadPolicy,
            lambda: OriginalGetEndpoint(),
            "responsive_current_load (custom)"),
        run(lambda: make_policy("two_choices"),
            lambda: make_mechanism("original"),
            "two_choices (randomized baseline)"),
        run(lambda: make_policy("ewma_latency"),
            lambda: make_mechanism("original"),
            "ewma_latency (latency-feedback baseline)"),
    ]
    print()
    print(table(["policy", "requests", "avg RT (ms)", "%VLRT", "drops"],
                rows))
    print()
    print("Policies that react to *current* state (current_load, the "
          "custom veto policy,\ntwo_choices) sidestep the funnel; the "
          "cumulative stock policy does not.")


if __name__ == "__main__":
    main()
