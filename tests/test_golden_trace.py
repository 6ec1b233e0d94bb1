"""Golden-trace determinism: the kernel's full event schedule is stable.

A small but varied scenario (processes, timeouts, a shared Resource, a
Store ping-pong, a priority interrupt, seeded randomness) is run with
the :attr:`Environment.trace` hook installed; the hash of the complete
``(time, event type)`` dispatch sequence must match a committed golden
value.  Any change to event ordering — tie-breaking, priority handling,
scheduling order — shows up here, which is what protects the "kernel
optimisations keep traces bit-identical" contract.

Two independent fixtures localise a breakage:

* the *kernel* trace exercises only ``repro.sim`` primitives — if it
  diverges, the kernel itself changed;
* the *scenario* trace runs a full ``current_load`` experiment (seed
  99, millibottlenecks included) through :class:`ExperimentRunner` — if
  only this one diverges, the kernel is fine and the breakage lives in
  the model/policy stack above it.

The scenario class also pins short runs of the paper's Fig. 1
(``baseline_no_millibottleneck``) and Fig. 2
(``single_node_millibottleneck``) scenarios exactly as their scenario
functions build them, so a change to how either deployment is expressed
or built cannot move its event schedule unnoticed.  A third short run
sets all four control-plane mechanisms through
``ExperimentConfig.controlplane`` (admission queueing, bulkhead waits,
leveling drains and an autoscaler action all occur inside it), so the
control plane's wiring and schedule are pinned too.

Event hashes say nothing about *what* the balancers record, so
:class:`TestObservationDigest` pins that separately: a hash over every
balancer's dispatch and pick logs and every live and retired member's
lb_value series, for a classic policy run, the ``four_tier`` builtin
and the autoscaled example spec under packet loss (where each Apache
retires one member).

:class:`TestBuildDigest` pins what the builder wires up for every
shipped shape: each builtin topology, each ``examples/topologies``
file, and two autoscaled specs whose replica churn crosses a
``direct`` and a ``sharded`` boundary.  The digest covers the run's
:class:`RunMetrics`, the kernel's event count, every tier's live and
retired replica names and every autoscaler action, so a change to how
a boundary forwards requests or tracks membership cannot move a
shape's behaviour unseen.

:class:`TestFaultDigest` pins every fault kind end to end: one short
run per ``FAULT_SCENARIOS`` timeline (the zone timelines on the
``geo`` builtin), the geo ``cache_failover`` cell and a recurring-crash
cell, each hashed over its :class:`RunMetrics` and kernel event count,
so a change to how a fault is scheduled, applied or undone cannot move
a run unseen.
"""

import hashlib
from dataclasses import fields, replace
from pathlib import Path

import numpy as np
import pytest

from repro.cluster.config import ScaleProfile
from repro.cluster.faults import RecurringFault
from repro.cluster.geo import GEO_FAULTS
from repro.cluster.runner import ExperimentConfig, ExperimentRunner
from repro.cluster.scenarios import (
    FAULT_SCENARIOS,
    ZONE_FAULT_KEYS,
    baseline_no_millibottleneck,
    fault_specs,
    policy_run,
    single_node_millibottleneck,
)
from repro.cluster.spec import (
    BUILTIN_TOPOLOGIES,
    BoundarySpec,
    TierSpec,
    TopologySpec,
    WorkloadSpec,
    get_topology,
)
from repro.controlplane import (
    AdmissionConfig,
    AutoscalerConfig,
    BulkheadConfig,
    ControlPlaneConfig,
    LevelingConfig,
)
from repro.sim.core import Environment
from repro.sim.queues import Store
from repro.sim.resources import Resource

GOLDEN_SHA256 = (
    "6279124ad207d5b53637591e405557a2e2693c045878800eac9c563eef4c0ba8")
GOLDEN_EVENTS = 741

#: Full-stack fixture: current_load policy, seed 99, two flush stalls.
SCENARIO_SHA256 = (
    "717cee562c17efcc061d5fab3b3a2ee18acdee7373846a7d24288bd7a8d1293e")
SCENARIO_EVENTS = 17113

#: Paper-figure fixtures, 2 simulated seconds at seed 5:
#: scenario function, event count, trace hash.
FIGURE_GOLDENS = {
    "fig1": (baseline_no_millibottleneck, 111839,
             "0f9c85d4c6996cdd99d39efd2b56e171809e5ab2312d68d1e7884c76fd5d889c"),
    "fig2": (single_node_millibottleneck, 26164,
             "a1e297fc2075a10508018146b452cb908b5e8ff252a54745c65fd0a700ca23d5"),
}

#: Control-plane fixture: smoke profile, 3 simulated seconds at seed 5.
CONTROLPLANE_EVENTS = 16980
CONTROLPLANE_SHA256 = (
    "4690feb384dd5f0951c1b06edf1232eaea743cba4e7aa83a20f9f904d64cd773")


AUTOSCALED_SPEC = (Path(__file__).resolve().parent.parent
                   / "examples" / "topologies" / "autoscaled.json")

#: Balancer-observation fixtures: config factory, total dispatches,
#: retired members per balancer, digest of every recorded trace.
OBSERVATION_GOLDENS = {
    "policy_run": (
        lambda: policy_run("original_total_request", duration=2.0, seed=5),
        5045, [0, 0, 0, 0],
        "88cb21df11c403a567389ce8f6351953b977c253a61f608223d2901ab5181f1b"),
    "four_tier": (
        lambda: ExperimentConfig(topology=get_topology("four_tier"),
                                 duration=3.0, seed=5),
        1174, [0, 0, 0, 0],
        "bae379059ca102288142c3977934f111a4aa65debf3f68dd8f695f38feac1a5f"),
    "autoscaled": (
        lambda: ExperimentConfig(
            topology=TopologySpec.load(AUTOSCALED_SPEC),
            bundle_key="current_load_modified",
            faults=fault_specs("packet_loss", 4.0),
            duration=4.0, seed=5),
        1440, [0, 0, 1, 1],
        "fec81029e19d65964b2bfee62eec52a8c83e81abcc99569ac80a9705fdc75c06"),
}


def controlplane_config():
    """Every control-plane mechanism, set through the config shorthand."""
    return ExperimentConfig(
        profile=ScaleProfile.smoke(), duration=3.0, seed=5,
        controlplane=ControlPlaneConfig(
            autoscaler=AutoscalerConfig(interval=0.25, warmup=0.5,
                                        cooldown=0.5),
            admission=AdmissionConfig(mode="queue", capacity=10.0,
                                      refill_rate=150.0),
            leveling=LevelingConfig(),
            bulkhead=BulkheadConfig(read_slots=1, write_slots=1,
                                    mode="wait")))


def build_scenario(env, rng):
    pool = Resource(env, capacity=2)
    store = Store(env, capacity=4)

    def worker(env, index):
        for _ in range(20):
            with pool.request() as req:
                yield req
                yield env.timeout(float(rng.exponential(0.01)))
            yield store.put(index)
            yield env.timeout(float(rng.uniform(0.0, 0.005)))

    def consumer(env):
        while True:
            yield store.get()
            yield env.timeout(0.003)

    def interrupter(env, victim):
        yield env.timeout(0.5)
        victim.interrupt("poke")

    def patient(env):
        try:
            yield env.timeout(10.0)
        except Exception:
            yield env.timeout(0.001)

    for index in range(6):
        env.process(worker(env, index))
    env.process(consumer(env))
    env.process(interrupter(env, env.process(patient(env))))


def trace_run(seed=13, until=5.0):
    env = Environment()
    records = []
    env.trace = lambda when, event: records.append(
        (when, type(event).__name__))
    build_scenario(env, np.random.default_rng(seed))
    env.run(until=until)
    return records


def trace_hash(records):
    payload = "\n".join(
        "{!r} {}".format(when, name) for when, name in records)
    return hashlib.sha256(payload.encode()).hexdigest()


def config_trace_run(config):
    """Trace one :class:`ExperimentConfig` run end to end."""
    env = Environment()
    records = []
    env.trace = lambda when, event: records.append(
        (when, type(event).__name__))
    ExperimentRunner(config).run(env=env)
    return records


def scenario_trace_run(seed=99, until=6.0):
    """Trace a small full-stack current_load experiment.

    The profile is tuned so the run includes what the paper cares
    about: a ramp-up, steady dispatching under the current_load policy,
    and two millibottleneck flush stalls inside the traced window.
    """
    profile = replace(ScaleProfile.smoke(), clients=120,
                      flush_threshold_bytes=32e3)
    config = ExperimentConfig(
        bundle_key="current_load", profile=profile, duration=until,
        seed=seed, trace_balancers=False)
    return config_trace_run(config)


def observation_digest(system):
    """sha256 over every balancer's dispatch and pick records and every
    live and retired member's lb_value series, in build order."""
    lines = []
    for balancer in system.balancers:
        for trace in (balancer.dispatch_trace, balancer.pick_trace):
            lines.extend("{} {!r} {}".format(trace.name, when, backend)
                         for when, backend in trace)
        for member in balancer.members + balancer.retired_members:
            lines.extend("{} {!r} {!r}".format(member.lb_trace.name,
                                               when, value)
                         for when, value in member.lb_trace)
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()


class TestGoldenTrace:
    def test_two_runs_produce_identical_traces(self):
        assert trace_run() == trace_run()

    def test_trace_matches_committed_golden(self):
        records = trace_run()
        assert len(records) == GOLDEN_EVENTS
        assert trace_hash(records) == GOLDEN_SHA256

    def test_different_seed_changes_the_trace(self):
        assert trace_hash(trace_run(seed=14)) != GOLDEN_SHA256


class TestScenarioGoldenTrace:
    """Full-stack fixture: localises breakage above the kernel."""

    def test_two_runs_produce_identical_traces(self):
        assert scenario_trace_run() == scenario_trace_run()

    def test_trace_matches_committed_golden(self):
        records = scenario_trace_run()
        assert len(records) == SCENARIO_EVENTS
        assert trace_hash(records) == SCENARIO_SHA256

    def test_different_seed_changes_the_trace(self):
        assert trace_hash(scenario_trace_run(seed=100)) != SCENARIO_SHA256

    @pytest.mark.parametrize("figure", sorted(FIGURE_GOLDENS))
    def test_figure_trace_matches_committed_golden(self, figure):
        make_config, events, sha256 = FIGURE_GOLDENS[figure]
        records = config_trace_run(make_config(duration=2.0, seed=5))
        assert len(records) == events
        assert trace_hash(records) == sha256

    def test_controlplane_trace_matches_committed_golden(self):
        records = config_trace_run(controlplane_config())
        assert len(records) == CONTROLPLANE_EVENTS
        assert trace_hash(records) == CONTROLPLANE_SHA256


class TestObservationDigest:
    """What the balancers record, not only when events fire."""

    @pytest.mark.parametrize("run", sorted(OBSERVATION_GOLDENS))
    def test_balancer_traces_match_committed_digest(self, run):
        make_config, dispatches, retired, sha256 = OBSERVATION_GOLDENS[run]
        system = ExperimentRunner(make_config()).run().system
        assert system.total_dispatches() == dispatches
        assert [len(balancer.retired_members)
                for balancer in system.balancers] == retired
        assert observation_digest(system) == sha256


def _autoscaler(**overrides):
    return AutoscalerConfig(interval=0.25, warmup=0.25, high_watermark=3.0,
                            low_watermark=1.0, min_replicas=1,
                            max_replicas=3, cooldown=0.5, **overrides)


def direct_autoscaled_spec():
    """A direct boundary over an autoscaled single-core worker tier."""
    return TopologySpec(
        name="direct_autoscaled",
        tiers=(TierSpec("apache", "frontend", capacity=64, backlog=128),
               TierSpec("tomcat", "worker", capacity=4, cores=1,
                        autoscaler=_autoscaler()),
               TierSpec("mysql", "pooled")),
        boundaries=(BoundarySpec(mode="direct"),
                    BoundarySpec(mode="inline")),
        workload=WorkloadSpec(clients=400, think_time=0.5, ramp_up=0.5))


def sharded_autoscaled_spec():
    """A sharded boundary over an autoscaled single-core pooled tier
    that runs worker-sized queries."""
    return TopologySpec(
        name="sharded_autoscaled",
        tiers=(TierSpec("apache", "frontend", capacity=64, backlog=128),
               TierSpec("tomcat", "worker", capacity=64, cores=8),
               TierSpec("mysql", "pooled", replicas=2, capacity=1,
                        cores=1, cpu_source="tomcat_cpu",
                        autoscaler=_autoscaler())),
        boundaries=(BoundarySpec(mode="direct"),
                    BoundarySpec(mode="sharded")),
        workload=WorkloadSpec(clients=200, think_time=0.5, ramp_up=0.5))


EXAMPLE_TOPOLOGIES = sorted(
    AUTOSCALED_SPEC.parent.glob("*.json"))

#: Shape name -> spec factory for :class:`TestBuildDigest`.
BUILD_SHAPES = {
    **{"builtin/" + key: factory
       for key, factory in BUILTIN_TOPOLOGIES.items()},
    **{"file/" + path.name: (lambda path=path: TopologySpec.load(path))
       for path in EXAMPLE_TOPOLOGIES},
    "direct_autoscaled": direct_autoscaled_spec,
    "sharded_autoscaled": sharded_autoscaled_spec,
}

#: 3 simulated seconds at seed 5 per shape: digest of the run.
BUILD_GOLDENS = {
    "builtin/classic":
        "66b4531be02455bba6254a13883787eedbd44aacc6b0e6643d7acdfdb5743697",
    "builtin/four_tier":
        "d850ce1e1e0c0409653a2a170a16d654dc049fac6952d618247f0a52b6b16a36",
    "builtin/geo":
        "3ce44ce6b6200a90f996438993ae6f2e2eac0752677c6a7d4b18d90ce95d6ab7",
    "builtin/geo_flat":
        "79b170adae5984efbaee05edd245e11ec92c1a91a8029a778317889a406e0ac4",
    "builtin/replicated_db":
        "19cde829983d089ffb81fbb7603cf3d2e9ee112b36d1f8af5908f8a77ce4a9f9",
    "direct_autoscaled":
        "b55eb15e85a033915ce46b463397b3797dbef8ffdea80f498ddb19af2ab68df0",
    "file/autoscaled.json":
        "b49f9e366c51067905d027e276bd71afa0bc62f578f71dd598aaf3581ba2e7fa",
    "file/classic.json":
        "66b4531be02455bba6254a13883787eedbd44aacc6b0e6643d7acdfdb5743697",
    "file/four_tier.json":
        "d850ce1e1e0c0409653a2a170a16d654dc049fac6952d618247f0a52b6b16a36",
    "file/geo.json":
        "3ce44ce6b6200a90f996438993ae6f2e2eac0752677c6a7d4b18d90ce95d6ab7",
    "file/replicated_db.json":
        "19cde829983d089ffb81fbb7603cf3d2e9ee112b36d1f8af5908f8a77ce4a9f9",
    "sharded_autoscaled":
        "e9b4f3d0edbad6c477d48e37bd461dcf855a47797bca27b3246ffa082d88c2ef",
}


def build_digest(shape):
    """Run one shape and hash what its build did over the run."""
    env = Environment()
    config = ExperimentConfig(topology=BUILD_SHAPES[shape](),
                              duration=3.0, seed=5)
    result = ExperimentRunner(config).run(env=env)
    system, metrics = result.system, result.metrics
    lines = ["{} {!r}".format(field.name, getattr(metrics, field.name))
             for field in fields(metrics) if field.name != "config"]
    lines.append("events {}".format(env._eid))
    for name in system.tier_names:
        lines.append("{} live {} retired {}".format(
            name, [server.name for server in system.tiers[name]],
            [server.name for server in system.retired.get(name, ())]))
    for autoscaler in system.autoscalers:
        lines.extend("{} {!r} {} {}".format(autoscaler.name, event.at,
                                            event.action, event.replica)
                     for event in autoscaler.events)
    digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
    return digest, system


class TestBuildDigest:
    """What the builder wires for every shipped shape, run end to end."""

    @pytest.mark.parametrize("shape", sorted(BUILD_SHAPES))
    def test_shape_matches_committed_digest(self, shape):
        digest, system = build_digest(shape)
        if shape.endswith("_autoscaled"):
            # Both autoscaled specs must churn membership both ways, or
            # they pin nothing about add/remove on their boundary.
            (autoscaler,) = system.autoscalers
            assert autoscaler.scale_ups >= 1
            assert autoscaler.scale_downs >= 1
        assert digest == BUILD_GOLDENS[shape]


#: Fault-digest cells: every ``FAULT_SCENARIOS`` timeline, the geo
#: ``cache_failover`` cell and a recurring crash, each run for
#: :data:`FAULT_DIGEST_DURATION` simulated seconds at seed 5.
FAULT_DIGEST_DURATION = 3.0
FAULT_CELLS = sorted(FAULT_SCENARIOS) + ["geo/cache_failover",
                                         "recurring_crash"]

FAULT_GOLDENS = {
    "burst":
        "6cd2aceb1c8db081eb2eb7930ad2b36c1b8d3657996a155d7a27275134b23b56",
    "crash":
        "5d47efe5fa26872bc690bdc85789f7fc74f7e01740e30ddaca82b50d7691ab9e",
    "link_latency":
        "a6254f45fb1c9bbdd2cb04933eec8deb2474024cb407aa223104cceae2a00bd2",
    "none":
        "47437d3c36c83721ae800985139a98fa8a4126de360489c37792da6d2db51d86",
    "packet_loss":
        "df1e8b2e5faeb4696727455065ef1825076f326e7bebf2aa702a9672f7ff77c0",
    "recurring_slow":
        "c35c8eed66692e8853ff169f0ef912d15abd60823ae57f21c1ea0862a4ab2de9",
    "slow":
        "40a2e8a80b5b8e3a1efa74de073c896b6d26bda4a0a4bba7dfc4d1da53ca486e",
    "transient_crash":
        "e5e6b5e10f7f8ced3edd73f8a20afe5a1e6e1f6174fed94ecb9c69b2f3644d95",
    "wan_degradation":
        "7d532165e11219aaeb91547c90b84554a553bdaa4ec0093cfa9a83e36befc934",
    "zone_outage":
        "d96d3694149ae99c14aaf4d5d2a9e9dbd7774bd5f0efe1fd0ac156821444c313",
    "geo/cache_failover":
        "4913267e872d9e2b58dba5b0a9c435b1a222f74140170a71c79d613ba938e16a",
    "recurring_crash":
        "2f0f12518d02925c8013a7dd0901602f237cebf2d42853fb026a7b8367f966fc",
}


def fault_config(cell):
    """The run of one fault cell: zone timelines and ``geo/`` cells on
    the ``geo`` builtin, the rest on the smoke-profile classic shape."""
    duration = FAULT_DIGEST_DURATION
    if cell == "geo/cache_failover":
        faults = GEO_FAULTS["cache_failover"](duration)
    elif cell == "recurring_crash":
        faults = (RecurringFault("tomcat1", kind="crash",
                                 mean_interval=0.2, duration=0.05),)
    else:
        faults = FAULT_SCENARIOS[cell](duration)
    zoned = cell in ZONE_FAULT_KEYS or cell.startswith("geo/")
    return ExperimentConfig(
        profile=ScaleProfile() if zoned else ScaleProfile.smoke(),
        topology=TopologySpec.geo() if zoned else None,
        bundle_key="current_load_modified", faults=faults,
        trace_requests=cell.startswith("geo/"), duration=duration,
        seed=5, trace_balancers=False)


def fault_digest(cell):
    """Run one fault cell and hash its metrics and event count."""
    env = Environment()
    metrics = ExperimentRunner(fault_config(cell)).run(env=env).metrics
    lines = ["{} {!r}".format(field.name, getattr(metrics, field.name))
             for field in fields(metrics) if field.name != "config"]
    lines.append("events {}".format(env._eid))
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()


class TestFaultDigest:
    """Every fault kind, scheduled through a run, end to end."""

    @pytest.mark.parametrize("cell", FAULT_CELLS)
    def test_cell_matches_committed_digest(self, cell):
        assert fault_digest(cell) == FAULT_GOLDENS[cell]


if __name__ == "__main__":
    for name in sorted(BUILD_SHAPES):
        print("    {!r}:\n        {!r},".format(name, build_digest(name)[0]))
    for name in sorted(FAULT_CELLS):
        print("    {!r}:\n        {!r},".format(name, fault_digest(name)))
