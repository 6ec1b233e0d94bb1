"""A backend (Tomcat) as one load balancer sees it.

Every Apache runs its own balancer with its own member records, its own
endpoint (connection) pool per backend, and its own lb_values — the
paper's Figures 6(c)/10(b) are per-Apache views, and all four Apaches
exhibit the same pattern independently.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional

from repro.errors import SimulationError
from repro.metrics.timeseries import TimeSeries
from repro.netmodel.sockets import Link
from repro.sim.resources import Request as SlotRequest
from repro.sim.resources import Resource
from repro.core.states import MemberState, StateConfig
from repro.workload.request import Request

if TYPE_CHECKING:  # pragma: no cover
    from repro.sim.core import Environment
    from repro.tiers.base import TierServer

#: Table III: WorkerConnectionPoolSize.
DEFAULT_POOL_SIZE = 25


class Endpoint:
    """One granted connection slot to a backend."""

    def __init__(self, member: "BalancerMember", slot: SlotRequest) -> None:
        self.member = member
        self._slot: Optional[SlotRequest] = slot

    def release(self) -> None:
        """Return the connection to the pool (idempotent is an error)."""
        if self._slot is None:
            raise SimulationError("endpoint released twice")
        slot, self._slot = self._slot, None
        self.member._release_slot(slot)

    @property
    def released(self) -> bool:
        return self._slot is None


class BalancerMember:
    """State one balancer keeps about one backend server."""

    def __init__(self, env: "Environment", server: "TierServer",
                 index: int,
                 pool_size: int = DEFAULT_POOL_SIZE,
                 state_config: StateConfig | None = None,
                 link: Link | None = None,
                 trace: bool = True,
                 preconnect: bool = True) -> None:
        self.env = env
        self.server = server
        self.index = index
        self.state_config = state_config or StateConfig()
        self.link = link or Link(env, name=server.name + ".ajp")
        self.pool = Resource(env, capacity=pool_size)
        #: Endpoints whose TCP connection has been established (they
        #: stay connected across requests, as with AJP keep-alive).
        #: mod_jk maintains persistent connections, so a warmed-up
        #: balancer has every pool slot connected (``preconnect``).
        self._connected = pool_size if preconnect else 0
        self.state = MemberState.AVAILABLE
        self.busy_since: Optional[float] = None
        self.error_since: Optional[float] = None
        self.busy_retries = 0
        #: The policy-maintained scheduling value.
        self._lb_value = 0.0
        #: (time, lb_value) trace for Figs. 10(b)/11(b).
        self.lb_trace: Optional[TimeSeries] = (
            TimeSeries(server.name + ".lb") if trace else None)
        #: Dispatch/completion counters.
        self.dispatched = 0
        self.completed = 0
        self.inflight = 0
        #: Static capacity weight (HAProxy-style); read by
        #: :class:`~repro.core.policies.WeightedLeastConnPolicy`.
        self.weight = 1.0
        #: EWMA of observed response times (used by the latency policy).
        self.ewma_response_time: Optional[float] = None
        #: Optional circuit breaker, installed by
        #: :meth:`~repro.core.balancer.LoadBalancer.install_breakers`;
        #: ``None`` (the default) keeps the breaker path dormant.
        self.breaker = None
        #: Called as ``on_state_change(self)`` after every *actual*
        #: 3-state transition (never on no-op re-marks).  The balancer
        #: uses it to maintain its all-available fast path.
        self.on_state_change = None

    @property
    def name(self) -> str:
        return self.server.name

    # -- lb_value -----------------------------------------------------------
    @property
    def lb_value(self) -> float:
        return self._lb_value

    @lb_value.setter
    def lb_value(self, value: float) -> None:
        self._lb_value = value
        if self.lb_trace is not None:
            self.lb_trace.append(self.env.now, value)

    # -- endpoint pool ---------------------------------------------------------
    def try_acquire(self) -> Optional[Endpoint]:
        """One endpoint probe, mirroring Algorithm 1's inner search.

        First try to reuse a *connected* (keep-alive) endpoint: sending
        on an established connection only needs the backend's kernel,
        which keeps buffering even during a millibottleneck — this is
        how a stalled server silently absorbs its first requests.  If
        no connected endpoint is free, "use the first free one": open a
        new connection, which requires the backend's *application* side
        to answer — a frozen (millibottlenecked) server cannot, and
        this is the "candidate cannot respond" of §IV-C.
        """
        if self.server.crashed:
            # A dead process resets even established connections.
            return None
        slot = self.pool.request()
        if not slot.triggered:
            # Every endpoint is in use.
            slot.cancel()
            return None
        if self.pool.count <= self._connected:
            # A previously-established connection was free: reuse it.
            return Endpoint(self, slot)
        # Fresh slot: the connection handshake needs a live backend.
        if not self.server.responsive:
            self.pool.release(slot)
            return None
        self._connected += 1
        return Endpoint(self, slot)

    def _release_slot(self, slot: SlotRequest) -> None:
        self.pool.release(slot)
        # A freed connection is proof of life: a Busy member recovers.
        if self.state is MemberState.BUSY:
            self.mark_available()

    # -- 3-state machine ---------------------------------------------------
    def mark_busy(self) -> None:
        """Record a failed endpoint probe (Available/Busy -> Busy/Error).

        Escalation counts *episodes*, not reporters: during a stall,
        dozens of stuck workers time out within milliseconds of each
        other, but they all observed the same failure.  Only a fresh
        probe that fails after the recheck window counts as another
        retry toward Error — otherwise a single millibottleneck would
        spuriously eject the server for the whole ``error_recovery``
        period.
        """
        if self.state is MemberState.ERROR:
            return
        now = self.env.now
        if self.state is MemberState.BUSY:
            if now - self.busy_since >= self.state_config.busy_recheck:
                self.busy_retries += 1
                self.busy_since = now
                if self.busy_retries > self.state_config.max_busy_retries:
                    self.mark_error()
            return
        self.state = MemberState.BUSY
        self.busy_since = now
        self.busy_retries = 1
        if self.on_state_change is not None:
            self.on_state_change(self)

    def mark_error(self) -> None:
        self.state = MemberState.ERROR
        self.error_since = self.env.now
        if self.on_state_change is not None:
            self.on_state_change(self)

    def mark_available(self) -> None:
        if self.state is MemberState.AVAILABLE:
            # Re-marks happen on every successful acquisition; only an
            # actual transition resets the bookkeeping (and notifies).
            return
        self.state = MemberState.AVAILABLE
        self.busy_since = None
        self.error_since = None
        self.busy_retries = 0
        if self.on_state_change is not None:
            self.on_state_change(self)

    def eligible(self, now: float) -> bool:
        """Whether the selector may pick this member right now."""
        if self.state is MemberState.AVAILABLE:
            return True
        if self.state is MemberState.BUSY:
            return (now - self.busy_since) >= self.state_config.busy_recheck
        return (now - self.error_since) >= self.state_config.error_recovery

    # -- data path ---------------------------------------------------------
    def send(self, request: Request):
        """Process generator: forward ``request`` and await the response."""
        return self.link.round_trip(self.server, request)

    def __repr__(self) -> str:
        return "<Member {} {} lb={:.1f} inflight={}>".format(
            self.name, self.state.value, self._lb_value, self.inflight)
