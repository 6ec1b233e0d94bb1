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
"""

import hashlib
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from repro.cluster.config import ScaleProfile
from repro.cluster.runner import ExperimentConfig, ExperimentRunner
from repro.cluster.scenarios import (
    baseline_no_millibottleneck,
    fault_specs,
    policy_run,
    single_node_millibottleneck,
)
from repro.cluster.spec import TopologySpec, get_topology
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
