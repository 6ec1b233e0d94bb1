"""Overlapping fault windows on one target compose, and undo exactly.

Every fault target attribute (a host's slowdown, a link's latency, a
web socket's impairment, a WAN link's profile, a server's up/down
state) is re-derived from its provisioned value and the windows still
open each time a window opens or closes, so windows stack in any
overlap and the last close restores the provisioned value bit-exactly.
"""

import operator
from functools import reduce
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster import (
    CrashFault,
    ExperimentConfig,
    FaultInjector,
    LinkLatencyFault,
    PacketLossFault,
    ScaleProfile,
    SlowFault,
    WanDegradationFault,
    build_from_spec,
)
from repro.netmodel.sockets import Link, LinkProfile, ListenSocket
from repro.osmodel import Host
from repro.sim import Environment
from repro.tiers import PooledTier


def target_system(env, latency=0.0002):
    """A stand-in system with one target of every fault kind: server
    ``m`` (crash, slow), the balancer link toward it (latency), web
    server ``apache1``'s socket (loss) and one east-west WAN link."""
    server = PooledTier(env, "m", Host(env, "h"), max_connections=48)
    link = Link(env, latency, name="lb=>m")
    wan = Link(env, 0.04, name="east=>west",
               profile=LinkProfile(latency=0.04, name="wan"),
               rng=np.random.default_rng(0), zone_pair=("east", "west"))
    return SimpleNamespace(
        server=server, link=link, wan=wan,
        server_named=lambda name: server,
        balancers=[SimpleNamespace(members=[SimpleNamespace(name="m",
                                                            link=link)])],
        frontends=[SimpleNamespace(name="apache1",
                                   socket=ListenSocket(env, 8, "apache1"))],
        wan_links=[wan])


def run_to(env, until):
    if until > env.now:
        env.run(until=until)


class TestOverlapRegressions:
    def test_overlapping_wan_degradations_stack(self):
        env = Environment()
        system = target_system(env)
        healthy = system.wan.profile
        FaultInjector(env, rng=np.random.default_rng(0)).inject_all(
            (WanDegradationFault("east", "west", at=1.0, duration=2.0,
                                 latency=0.25),
             WanDegradationFault("east", "west", at=2.0, duration=3.0,
                                 latency=0.5)), system)
        for until, latency in ((1.5, 0.25), (2.5, 0.5), (4.0, 0.5)):
            run_to(env, until)
            assert system.wan.profile.latency == latency
        for until in (6.0, 100.0):
            run_to(env, until)
            assert system.wan.profile is healthy

    def test_overlapping_packet_loss_windows_stack(self):
        env = Environment()
        system = build_from_spec(
            env, ExperimentConfig(bundle_key="current_load_modified",
                                  profile=ScaleProfile.smoke()).spec(),
            rng=np.random.default_rng(0))
        (socket,) = [frontend.socket for frontend in system.frontends
                     if frontend.name == "apache1"]
        injector = FaultInjector(env, rng=np.random.default_rng(0))
        injector.inject_all(
            (PacketLossFault(at=1.0, duration=2.0, loss=0.2,
                             apache="apache1"),
             PacketLossFault(at=2.0, duration=3.0, loss=0.5,
                             apache="apache1")), system)
        for until, loss in ((1.5, 0.2), (2.5, 0.5), (3.5, 0.5), (4.5, 0.5)):
            run_to(env, until)
            assert socket.impairment is not None
            assert socket.impairment.loss == loss
        run_to(env, 6.0)
        assert socket.impairment is None
        assert [record.ended_at for record in injector.records] == [3.0, 5.0]

    def test_overlapping_slow_faults_multiply(self):
        env = Environment()
        system = target_system(env)
        host = system.server.host
        FaultInjector(env, rng=np.random.default_rng(0)).inject_all(
            (SlowFault("m", at=1.0, duration=3.0, factor=1.5),
             SlowFault("m", at=2.0, duration=3.0, factor=2.7)), system)
        for until, slowdown in ((1.5, 1.5), (2.5, 1.0 * 1.5 * 2.7),
                                (4.5, 2.7), (6.0, 1.0)):
            run_to(env, until)
            assert host.slowdown == slowdown

    def test_link_latency_window_restores_exactly(self):
        latency, extra = 0.0002, 0.005
        assert (latency + extra) - extra != latency  # subtracting is inexact
        env = Environment()
        system = target_system(env, latency=latency)
        FaultInjector(env, rng=np.random.default_rng(0)).inject(
            LinkLatencyFault("m", at=1.0, duration=2.0, extra=extra),
            system)
        run_to(env, 2.0)
        assert system.link.latency == latency + extra
        run_to(env, 4.0)
        assert system.link.latency == latency


# -- every kind, random overlapping windows ------------------------------

#: Per kind: the fault spec of one window, the target attribute, the
#: strategy of a window's value, and the attribute while the given
#: windows are open (values in the order they opened).
KINDS = {
    "slow": (lambda at, duration, value:
             SlowFault("m", at, duration, factor=value),
             lambda system: system.server.host.slowdown,
             st.floats(1.01, 4.0),
             lambda base, values: reduce(operator.mul, values, base)),
    "latency": (lambda at, duration, value:
                LinkLatencyFault("m", at, duration, extra=value),
                lambda system: system.link.latency,
                st.floats(1e-6, 0.1),
                lambda base, values: reduce(operator.add, values, base)),
    "loss": (lambda at, duration, value:
             PacketLossFault(at, duration, loss=value, apache="apache1"),
             lambda system: system.frontends[0].socket.impairment,
             st.floats(0.0, 0.99),
             lambda base, values: values[-1] if values else base),
    "wan": (lambda at, duration, value:
            WanDegradationFault("east", "west", at, duration, latency=value),
            lambda system: system.wan.profile,
            st.floats(0.001, 1.0),
            lambda base, values: values[-1] if values else base),
    "crash": (lambda at, duration, value: CrashFault("m", at, duration),
              lambda system: system.server.crashed,
              st.none(),
              lambda base, values: bool(values) or base),
}


def observed(kind, value):
    """What a probe compares: the loss or latency of an installed
    impairment or WAN profile, the value itself otherwise."""
    if kind == "loss":
        return None if value is None else value.loss
    if kind == "wan":
        return value.latency
    return value


@pytest.mark.parametrize("kind", sorted(KINDS))
@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_random_overlapping_windows_compose_and_restore(kind, data):
    make, read, values, combine = KINDS[kind]
    # Windows on a 0.25 s grid, distinct starts; probes fall between
    # boundaries, so no probe coincides with an open or a close.
    windows = sorted(data.draw(st.lists(
        st.tuples(st.integers(0, 16), st.integers(1, 16), values),
        min_size=1, max_size=4, unique_by=lambda window: window[0])))
    windows = [(0.25 * (1 + start), 0.25 * length, value)
               for start, length, value in windows]
    env = Environment()
    system = target_system(env, latency=data.draw(st.floats(0.0, 0.01)))
    if kind == "slow":
        system.server.host.slowdown = data.draw(st.floats(0.5, 2.0))
    provisioned = read(system)
    FaultInjector(env, rng=np.random.default_rng(0)).inject_all(
        [make(*window) for window in windows], system)
    bounds = sorted({t for at, duration, _ in windows
                     for t in (at, at + duration)})
    for probe in [(a + b) / 2 for a, b in zip(bounds, bounds[1:])]:
        run_to(env, probe)
        open_values = [value for at, duration, value in windows
                       if at <= probe < at + duration]
        expected = combine(observed(kind, provisioned), open_values)
        assert observed(kind, read(system)) == expected
    run_to(env, bounds[-1] + 1.0)
    if kind in ("loss", "wan"):
        assert read(system) is provisioned
    else:
        assert read(system) == provisioned
