"""Bulkhead partitioning of a tier's capacity across request classes.

The RUBBoS workload splits naturally into read and write interactions
(:attr:`~repro.workload.interactions.Interaction.is_write`); a bulkhead
caps how many slots of a tier's capacity each class may hold at once,
so a pile-up of slow writes behind a millibottleneck cannot starve the
read traffic of the whole tier (and vice versa).

Implemented as one semaphore per class consulted on entry:

* ``shed`` — a request whose class is at its limit is answered fast
  (frontend) or degrades via the no-candidate path (pooled tier);
* ``wait`` — the request queues FIFO for a class slot, which bounds
  the class's concurrency without turning excess into errors.

Zero-cost when absent: unconfigured tiers never consult a bulkhead,
and a bulkhead itself schedules no events — only waiters do.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Optional

from repro.errors import ConfigurationError
from repro.sim.resources import Request as ResourceRequest
from repro.sim.resources import Resource

if TYPE_CHECKING:  # pragma: no cover
    from repro.sim.core import Environment
    from repro.workload.request import Request

#: What happens to a request whose class partition is full.
BULKHEAD_MODES = ("shed", "wait")


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise ConfigurationError(message)


@dataclass(frozen=True)
class BulkheadConfig:
    """Read/write capacity partition (frozen, JSON-roundtrippable)."""

    #: Concurrent slots the read class may hold.
    read_slots: int = 6
    #: Concurrent slots the write class may hold.
    write_slots: int = 2
    #: ``shed`` rejects over-limit requests; ``wait`` queues them.
    mode: str = "shed"

    def __post_init__(self) -> None:
        _require(self.read_slots >= 1, "bulkhead read_slots must be >= 1")
        _require(self.write_slots >= 1, "bulkhead write_slots must be >= 1")
        _require(self.mode in BULKHEAD_MODES,
                 "unknown bulkhead mode {!r} (one of {})".format(
                     self.mode, ", ".join(BULKHEAD_MODES)))


class Bulkhead:
    """Runtime per-class semaphores guarding one tier server."""

    def __init__(self, env: "Environment", config: BulkheadConfig,
                 name: str = "bulkhead") -> None:
        self.env = env
        self.config = config
        self.name = name
        self._partitions = {
            "read": Resource(env, capacity=config.read_slots),
            "write": Resource(env, capacity=config.write_slots),
        }
        self.admitted = {"read": 0, "write": 0}
        self.shed = {"read": 0, "write": 0}

    @staticmethod
    def request_class(request: "Request") -> str:
        """The partition a request belongs to."""
        return "write" if request.interaction.is_write else "read"

    def partition(self, cls: str) -> Resource:
        return self._partitions[cls]

    def claim(self, request: "Request") -> Optional[ResourceRequest]:
        """Claim a slot of ``request``'s class partition without yielding.

        Returns ``None`` when shed mode finds the partition full, else
        the slot request (granted, or pending in wait mode).  Hold it in
        a ``with`` block and ``yield from`` :meth:`enter` before the
        guarded work; leaving the block releases or withdraws it.
        """
        cls = self.request_class(request)
        partition = self._partitions[cls]
        if self.config.mode == "shed" and partition.available <= 0:
            self.shed[cls] += 1
            return None
        return partition.request()

    def enter(self, request: "Request", slot: ResourceRequest):
        """Process generator: wait until ``slot`` is granted, then count
        the request admitted (one still waiting at the horizon is not)."""
        cls = self.request_class(request)
        if not slot.triggered:
            tracer = self.env.tracer
            if tracer is None:
                yield slot
            else:
                span = tracer.start(request.request_id,
                                    "bulkhead.queue_wait",
                                    partition=cls)
                yield slot
                tracer.finish(span)
        self.admitted[cls] += 1

    def sheds(self) -> int:
        return sum(self.shed.values())

    def __repr__(self) -> str:
        return "<Bulkhead {} read={}/{} write={}/{}>".format(
            self.name,
            self._partitions["read"].count, self.config.read_slots,
            self._partitions["write"].count, self.config.write_slots)
