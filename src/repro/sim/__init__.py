"""Discrete-event simulation kernel.

A compact generator-coroutine DES engine in the style of SimPy,
providing everything the n-tier models need: an event loop with a
float-seconds clock, processes, timeouts, condition events, resources
with cancellable requests, item stores, overflow-dropping queues, and
sampling probes.
"""

from repro.sim.core import NORMAL, URGENT, Environment
from repro.sim.events import (
    AllOf,
    AnyOf,
    Condition,
    ConditionValue,
    Event,
    Interrupt,
    Timeout,
)
from repro.sim.monitor import MonitorHub, Sampler, TraceLog
from repro.sim.process import Process
from repro.sim.queues import DropQueue, Store
from repro.sim.resources import PriorityResource, Request, Resource

__all__ = [
    "Environment",
    "Event",
    "Timeout",
    "Condition",
    "ConditionValue",
    "AllOf",
    "AnyOf",
    "Interrupt",
    "Process",
    "Resource",
    "PriorityResource",
    "Request",
    "Store",
    "DropQueue",
    "MonitorHub",
    "Sampler",
    "TraceLog",
    "NORMAL",
    "URGENT",
]
