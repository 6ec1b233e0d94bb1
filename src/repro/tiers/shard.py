"""Key-sharded fan-out over a pooled tier via consistent hashing.

A :class:`ShardRouter` replaces the balancer at a ``sharded`` boundary:
instead of *choosing* a replica, it *derives* one from the request's
key position on a consistent-hash ring (``virtual_nodes`` vnodes per
shard, stable BLAKE2b hashing — no RNG, no set iteration: the ring must
be bit-identical across runs and processes, which is what statan's
``SHARD001`` rule polices).  Key popularity is Zipf-skewed
(``skew=0`` is uniform), so a hot key concentrates load on one shard —
a *structural* imbalance no policy can route around.

Resharding is the consistent-hashing guarantee made testable: retiring
or joining a shard rebuilds the ring, and only ~1/N of the key space
changes owner.  Retired shards move to :attr:`retired_backends` and
their dispatch counts remain part of the totals, reusing the
retire-accounting discipline of the balancer layer.
"""

from __future__ import annotations

from bisect import bisect_right
from hashlib import blake2b
from typing import TYPE_CHECKING, Callable, Optional, Sequence

import numpy as np

from repro.errors import ConfigurationError
from repro.netmodel.sockets import Link
from repro.workload.request import Request

if TYPE_CHECKING:  # pragma: no cover
    from repro.sim.core import Environment


def _stable_hash(token: str) -> int:
    """Deterministic 64-bit ring position (never Python's salted hash)."""
    return int.from_bytes(blake2b(token.encode(), digest_size=8).digest(),
                          "big")


class ShardRouter:
    """Consistent-hash dispatcher over a sharded pooled tier."""

    def __init__(self, env: "Environment", name: str,
                 backends: Sequence[object],
                 rng: np.random.Generator,
                 virtual_nodes: int = 64,
                 key_space: int = 1024,
                 skew: float = 0.0,
                 link_factory: Optional[Callable[[object], Link]] = None
                 ) -> None:
        backends = list(backends)
        if not backends:
            raise ConfigurationError(
                "shard router needs at least one backend")
        if virtual_nodes < 1:
            raise ConfigurationError("virtual_nodes must be >= 1")
        if key_space < 1:
            raise ConfigurationError("key_space must be >= 1")
        self.env = env
        self.name = name
        self.virtual_nodes = virtual_nodes
        self.key_space = key_space
        self.skew = skew
        self._rng = rng
        self._link_factory = link_factory
        self.backends = backends
        self.links = [self._make_link(server) for server in backends]
        #: Shards removed by retire; counts stay part of the totals.
        self.retired_backends: list[object] = []
        self.dispatches = 0
        self.completions = 0
        self.inflight = 0
        #: Per-shard dispatch counts by name (retired shards included).
        self.dispatch_counts: dict[str, int] = {
            server.name: 0 for server in backends}
        # Zipf(skew) popularity over key ranks 1..key_space; rank i-1
        # maps to key i-1.  skew=0 degenerates to uniform.
        weights = np.arange(1, key_space + 1, dtype=float) ** -float(skew)
        self._key_cdf = np.cumsum(weights / weights.sum())
        self._ring: list[int] = []
        self._ring_owners: list[object] = []
        self._rebuild_ring()

    def _make_link(self, server) -> Link:
        if self._link_factory is not None:
            return self._link_factory(server)
        return Link(self.env, name="{}->{}".format(self.name, server.name))

    # -- ring ----------------------------------------------------------------
    def _rebuild_ring(self) -> None:
        """Derive the ring from the live backend list.

        Iteration is over the *ordered* backend list and positions come
        from a keyed stable hash — rebuild is a pure function of
        membership, so every process computes the same ring.
        """
        positions: list[tuple[int, object]] = []
        for server in self.backends:
            for vnode in range(self.virtual_nodes):
                token = "{}#{}".format(server.name, vnode)
                positions.append((_stable_hash(token), server))
        positions.sort(key=lambda entry: entry[0])
        self._ring = [position for position, _ in positions]
        self._ring_owners = [server for _, server in positions]

    def owner(self, key: int) -> object:
        """The shard owning ``key`` (clockwise successor on the ring)."""
        point = _stable_hash("key:{}".format(key))
        index = bisect_right(self._ring, point)
        if index == len(self._ring):
            index = 0
        return self._ring_owners[index]

    def draw_key(self) -> int:
        """One Zipf-popular key from the key space."""
        return int(np.searchsorted(self._key_cdf, float(self._rng.random()),
                                   side="right"))

    # -- membership ----------------------------------------------------------
    def add_backend(self, server) -> None:
        """Join a shard; ~1/N of the key space reshards onto it."""
        self.backends.append(server)
        self.links.append(self._make_link(server))
        self.dispatch_counts.setdefault(server.name, 0)
        self._rebuild_ring()

    def remove_backend(self, server) -> None:
        """Retire a shard; its keys reshard onto the survivors."""
        if len(self.backends) == 1:
            raise ConfigurationError(
                "cannot remove the last shard of " + self.name)
        position = self.backends.index(server)
        self.backends.pop(position)
        self.links.pop(position)
        self.retired_backends.append(server)
        self._rebuild_ring()

    # -- dispatch ------------------------------------------------------------
    def dispatch(self, request: Request):
        """Process generator: route ``request`` to its key's owner shard."""
        key = self.draw_key()
        backend = self.owner(key)
        link = self.links[self.backends.index(backend)]
        self.dispatches += 1
        self.inflight += 1
        self.dispatch_counts[backend.name] += 1
        request.served_by = backend.name
        request.dispatched_at = self.env.now
        tracer = self.env.tracer
        span = (tracer.start(request.request_id, "balancer.send",
                             member=backend.name, shard_key=key)
                if tracer is not None else None)
        try:
            yield from link.round_trip(backend, request)
        finally:
            self.inflight -= 1
            if tracer is not None:
                tracer.finish(span)
        self.completions += 1
        return request  # statan: ignore[PROC003] -- process value

    def __repr__(self) -> str:
        return "<ShardRouter {} shards={} vnodes={}>".format(
            self.name, len(self.backends), self.virtual_nodes)
