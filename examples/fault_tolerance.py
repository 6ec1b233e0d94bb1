#!/usr/bin/env python3
"""Millibottlenecks vs. crashes: why the 3-state machine has Error.

The paper's remedy treats an unresponsive candidate as Busy because "it
is hard to distinguish millibottleneck from permanent failure" (§IV-C).
This example runs both kinds of trouble in one experiment:

* tomcat1 keeps having real millibottlenecks (dirty-page flushes);
* tomcat3 crashes outright at t = 5 s and never comes back.

Watch the balancer handle each correctly: the flushing server is
briefly Busy and keeps serving, the dead server escalates to Error and
is excluded — while clients never see the difference.

Run:  python examples/fault_tolerance.py
"""

import numpy as np

from repro import ExperimentConfig, ScaleProfile, build_from_spec
from repro.analysis import table
from repro.cluster import CrashFault, FaultInjector
from repro.core import MemberState, StateConfig
from repro.netmodel import RetransmissionPolicy
from repro.sim import Environment
from repro.workload import ClientPopulation, read_write_mix

DURATION = 14.0


def main() -> None:
    env = Environment()
    rng = np.random.default_rng(11)
    profile = ScaleProfile()
    spec = ExperimentConfig(bundle_key="current_load_modified",
                            profile=profile).spec()
    system = build_from_spec(
        env, spec,
        rng=rng,
        state_config=StateConfig(busy_recheck=0.1, max_busy_retries=8,
                                 error_recovery=30.0),
    )
    population = ClientPopulation(
        env, [apache.socket for apache in system.frontends],
        total_clients=profile.clients, mix=read_write_mix(), rng=rng,
        think_time=profile.think_time,
        retransmission=RetransmissionPolicy())
    injector = FaultInjector(env, rng=np.random.default_rng(0))
    injector.inject(CrashFault("tomcat3", at=5.0), system)

    print("Running {}s with millibottlenecks on all Tomcats and a "
          "permanent crash of tomcat3 at t=5s...".format(DURATION))
    env.run(until=DURATION)

    stats = population.recorder.stats()
    print()
    print("client view: {} requests, avg RT {:.2f} ms, VLRT {:.2f}%, "
          "drops {}".format(stats.count, stats.mean_ms,
                            100 * stats.vlrt_fraction,
                            sum(a.socket.dropped for a in system.frontends)))

    print()
    print("dispatches per backend, before vs after the crash "
          "(apache1's balancer):")
    balancer = system.balancers[0]
    before = balancer.distribution_between(1.0, 5.0)
    after = balancer.distribution_between(5.5, DURATION)
    rows = [[name, before[name], after[name]] for name in sorted(before)]
    print(table(["backend", "t in [1, 5)", "t in [5.5, {:.0f})".format(
        DURATION)], rows))

    print()
    print("final member states on apache1 "
          "(Busy episodes from millibottlenecks have healed;")
    print("only the crashed server is Error):")
    for member in balancer.members:
        marker = ""
        if member.state is MemberState.ERROR:
            marker = "   <- crashed at t=5s, correctly ejected"
        elif member.server.host.millibottlenecks:
            marker = "   <- had {} millibottlenecks, never ejected".format(
                len(member.server.host.millibottlenecks))
        print("  {:8s} {:9s}{}".format(member.name, member.state.value,
                                       marker))

    stalls = [record for record in system.millibottleneck_records()]
    print()
    print("{} millibottlenecks occurred across the tier during the run; "
          "none escalated to Error.".format(len(stalls)))


if __name__ == "__main__":
    main()
