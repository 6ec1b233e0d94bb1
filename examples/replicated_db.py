#!/usr/bin/env python3
"""Declarative topologies: a replicated database behind its own balancer.

The paper's testbed hard-wires 4 Apache / 4 Tomcat / 1 MySQL.  With
:class:`repro.TopologySpec` the shape is data: this example runs the
built-in ``replicated_db`` topology — 2 Apache / 2 Tomcat / **2 MySQL**,
with a ``current_load`` balancer per Tomcat fanning out over the DB
replicas — so the millibottleneck/policy interaction the paper studies
at the web→app boundary plays out one tier deeper too.

The same spec round-trips through JSON, which is what
``repro-lb run --topology spec.json`` consumes:

    repro-lb topology show replicated_db
    repro-lb run --topology replicated_db --duration 10

Run:  python examples/replicated_db.py
"""

from repro import ExperimentConfig, ExperimentRunner, TopologySpec
from repro.cluster.spec import get_topology


def main() -> None:
    spec = get_topology("replicated_db")
    print(spec.describe())
    print()

    # Any spec serialises to JSON and loads back unchanged — write it
    # next to your experiment scripts and run it from the CLI.
    assert TopologySpec.from_json(spec.to_json()) == spec

    config = ExperimentConfig(
        topology=spec,  # tiers, pools and workload all come from the spec
        duration=10.0,
        seed=42,
    )
    print("Running {!r} for {:.0f} simulated seconds "
          "({} clients)...".format(spec.name, config.duration,
                                   spec.workload.clients))
    result = ExperimentRunner(config).run()

    stats = result.stats()
    print()
    print("requests completed : {}".format(stats.count))
    print("average RT         : {:.2f} ms".format(stats.mean_ms))
    print("99th percentile    : {:.2f} ms".format(stats.p99 * 1000))
    print("VLRT (>1 s)        : {} ({:.2f}%)".format(
        stats.vlrt_count, 100 * stats.vlrt_fraction))
    print("millibottlenecks   : {}".format(
        len(result.system.millibottleneck_records())))
    print()
    print("Tiers are addressed by name — no more fixed apache/tomcat/"
          "mysql attributes:")
    for tier_name in result.system.tier_names:
        for server in result.system.tiers[tier_name]:
            print("  {:<10s} completed {:>5d} requests".format(
                server.name, server.requests_completed))
    print()
    print("Both MySQL replicas take traffic because every Tomcat runs "
          "its own balancer over them;")
    print("try repro-lb topology show four_tier for a 4-tier chain with "
          "a mid-tier millibottleneck.")


if __name__ == "__main__":
    main()
