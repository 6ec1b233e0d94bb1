"""Shared behaviour and the generalized tier service models.

The paper's three servers — Apache, Tomcat, MySQL — are three
*service models* any tier of a declarative topology
(:mod:`repro.cluster.spec`) can be configured with:

* :class:`FrontendTier` — accept socket + worker pool, dispatches
  downstream through an attached :class:`Dispatcher` (the Apache
  service model: where the paper's packet drops happen);
* :class:`WorkerTier` — unbounded job queue + thread pool, calling
  its ``downstream`` on the worker thread (the Tomcat service model);
* :class:`PooledTier` — passive bounded connection pool; work runs on
  the caller's process, or on a spawned one when the tier sits behind
  a dispatcher (the MySQL service model).

A worker tier's ``downstream`` is a plain callable ``request ->
process generator``.  The topology builder passes a pooled server's
``query`` on an inline boundary (the classic Tomcat→MySQL wiring: one
servlet thread holds one DB connection end to end) and a dispatcher's
``dispatch`` on every other boundary — which is what lets a mid-chain
tier both receive balanced traffic and balance over the next tier.
Every dispatcher crosses the network the same way, through
:meth:`~repro.netmodel.sockets.Link.round_trip` into the next tier's
``submit``.

Each model's ``role`` and ``cpu_source`` default to the paper's tier
(``"apache"``, ``"tomcat"``, ``"mysql"``), so the classic topology is
these models with their defaults.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, Generator, Optional, Protocol

from repro.errors import ConfigurationError, NoCandidateError
from repro.netmodel.sockets import ListenSocket
from repro.osmodel.host import Host
from repro.sim.events import Event
from repro.sim.queues import Store
from repro.sim.resources import Resource
from repro.workload.request import Request

if TYPE_CHECKING:  # pragma: no cover
    from repro.sim.core import Environment

#: Fraction of a worker tier's CPU spent before the downstream call
#: (Tomcat's pre-database servlet work).
PRE_DB_FRACTION = 0.6


class Dispatcher(Protocol):
    """Anything that can forward a request to the next tier."""

    def dispatch(self, request: Request):
        """Process generator yielding until the response is available."""
        ...  # pragma: no cover


#: A worker tier's call into the next tier: ``request -> process
#: generator`` (a pooled server's ``query`` or a dispatcher's
#: ``dispatch``).
Downstream = Callable[[Request], Generator]


class TierServer:
    """Base class: a named server bound to a host machine.

    Subclasses expose two queue views used by the paper's figures:

    * ``queue_length`` — requests waiting to be picked up;
    * ``in_server`` — waiting plus in-service, the "queued requests in
      the tier" quantity plotted in Figs. 2(b), 8, 10(a), 12.

    ``role`` is the tier's span-name prefix (``"apache"``, ``"tomcat"``,
    ``"mysql"``, or a declarative tier's name), so per-request traces
    stay attributable in arbitrary topologies.
    """

    def __init__(self, env: "Environment", name: str, host: Host,
                 role: str = "tier") -> None:
        self.env = env
        self.name = name
        self.host = host
        self.role = role
        #: Total requests fully processed by this server.
        self.requests_completed = 0
        #: Requests answered with an error because no downstream
        #: candidate existed (web-tier 503s; a worker tier's degraded
        #: no-database responses).
        self.error_responses = 0
        #: Total request+response bytes moved by this server.
        self.bytes_served = 0
        #: Set by fault injection: a crashed server refuses everything.
        self._crashed = False

    @property
    def crashed(self) -> bool:
        """Whether the server process is down (fault injection)."""
        return self._crashed

    def crash(self) -> None:
        """Fail-stop the server: it refuses all new work.

        In-flight requests are allowed to drain (fail-stop after
        drain); what matters to the load balancer study is that every
        subsequent endpoint probe fails, exercising the Busy -> Error
        escalation path of the 3-state machine.
        """
        self._crashed = True

    def recover(self) -> None:
        """Bring a crashed server back."""
        self._crashed = False

    @property
    def responsive(self) -> bool:
        """Whether a connection attempt would get a timely answer.

        During a millibottleneck every core sits in iowait, so nothing
        — not even a connection handshake or mod_jk CPing — gets a CPU
        slice.  The kernel still *enqueues* packets (see
        :class:`~repro.netmodel.sockets.ListenSocket`), which is
        exactly why the load balancer mistakes a stalled server for an
        Available one.
        """
        if self._crashed:
            return False
        return self.host.cpu.iowait.busy_slots < self.host.cpu.cores

    @property
    def queue_length(self) -> int:  # pragma: no cover - abstract
        raise NotImplementedError

    @property
    def in_server(self) -> int:  # pragma: no cover - abstract
        raise NotImplementedError

    def __repr__(self) -> str:
        return "<{} {} in_server={}>".format(
            type(self).__name__, self.name, self.in_server)


# -- service models ---------------------------------------------------------

class FrontendTier(TierServer):
    """Accept-socket + worker-pool service model (Apache).

    Owns a finite accept queue (where the paper's packet drops happen),
    a pool of worker threads (``MaxClients``), and a *dispatcher* that
    forwards requests to the next tier.  During a millibottleneck
    downstream, worker threads pile up inside the dispatcher waiting
    for the stalled backend.  Once all workers are stuck, the accept
    queue fills; once it overflows, packets drop and clients retransmit
    seconds later: the VLRT mechanism end to end.
    """

    def __init__(self, env: "Environment", name: str, host: Host,
                 max_clients: int, backlog: int,
                 access_log_bytes: int = 300,
                 role: str = "apache",
                 cpu_source: str = "apache_cpu") -> None:
        super().__init__(env, name, host, role=role)
        if max_clients < 1:
            raise ConfigurationError("max_clients must be >= 1")
        self.max_clients = max_clients
        self.access_log_bytes = access_log_bytes
        self.cpu_source = cpu_source
        self.socket = ListenSocket(env, backlog=backlog, name=name)
        self.dispatcher: Optional[Dispatcher] = None
        self._busy_workers = 0
        self._workers: list = []
        # Control-plane attachments (see repro.controlplane).  All
        # default to None; the presence checks below add no events, so
        # an unconfigured frontend is event-identical to the seed one.
        self.admission = None
        self.bulkhead = None
        self.leveler = None
        #: Requests answered fast by a control-plane mechanism
        #: (admission/bulkhead/leveling overflow) instead of served.
        self.shed_responses = 0
        #: Requests parked in (or draining from) the leveling queue —
        #: part of ``in_server``: they are inside the tier even though
        #: no worker thread holds them.
        self._leveled_inflight = 0
        self._span_queue_wait = role + ".queue_wait"
        self._span_service = role + ".service"
        self._span_error = role + ".error_503"
        self._span_shed = role + ".shed"

    def crash(self) -> None:
        """A dead frontend host refuses packets at the kernel.

        Unlike an application-level stall (where the kernel keeps
        accepting — the paper's silent-absorption mechanism), a crashed
        frontend's socket answers nothing: clients see the same silence
        as an accept-queue drop and retransmit on their RTO, eventually
        failing over to another frontend only if they have one.
        """
        super().crash()
        self.socket.refusing = True

    def recover(self) -> None:
        super().recover()
        self.socket.refusing = False

    def attach_dispatcher(self, dispatcher: Dispatcher) -> None:
        """Wire the downstream dispatcher and start the worker threads."""
        if self.dispatcher is not None:
            raise ConfigurationError(
                "{} already has a dispatcher".format(self.name))
        self.dispatcher = dispatcher
        self._workers = [self.env.process(self._worker())
                         for _ in range(self.max_clients)]

    # -- control-plane wiring ----------------------------------------------
    def install_admission(self, controller) -> None:
        """Gate every request through a token-bucket controller."""
        if self.admission is not None:
            raise ConfigurationError(
                "{} already has admission control".format(self.name))
        self.admission = controller

    def install_bulkhead(self, bulkhead) -> None:
        """Partition worker capacity across request classes.

        When combined with a leveling queue the bulkhead bounds the
        *entry* stage (admission through the first CPU half); residence
        beyond the queue is bounded by the drain concurrency.
        """
        if self.bulkhead is not None:
            raise ConfigurationError(
                "{} already has a bulkhead".format(self.name))
        self.bulkhead = bulkhead

    def install_leveling(self, config):
        """Level the downstream boundary through a bounded FIFO.

        The worker thread parks the request and returns to the accept
        loop immediately — the chain "all workers stuck → accept queue
        overflows → packet drop → TCP retransmission" is broken at its
        first link.  Returns the created queue for observability.
        """
        from repro.controlplane.leveling import LevelingQueue

        if self.leveler is not None:
            raise ConfigurationError(
                "{} already has a leveling queue".format(self.name))
        self.leveler = LevelingQueue(
            self.env, config, drain=self._drain_leveled,
            on_shed=self._shed_leveled, name=self.name + ".leveling")
        return self.leveler

    def _worker(self):
        while True:
            request = yield self.socket.accept()
            request.accepted_at = self.env.now
            self._busy_workers += 1
            tracer = self.env.tracer
            span = None
            if tracer is not None:
                tracer.finish_named(request.request_id,
                                    self._span_queue_wait)
                span = tracer.start(request.request_id, self._span_service,
                                    server=self.name)
            try:
                yield from self._handle(request)
            finally:
                self._busy_workers -= 1
                if tracer is not None:
                    tracer.finish(span)

    def _handle(self, request: Request):
        if self.admission is not None:
            wait = self.admission.admit(request)
            if wait is None:
                self._shed(request)
                return
            if wait:
                yield from self.admission.queue_wait(request, wait)
        if self.bulkhead is not None:
            slot = self.bulkhead.claim(request)
            if slot is None:
                self._shed(request)
                return
            with slot:
                yield from self.bulkhead.enter(request, slot)
                yield from self._process(request)
            return
        yield from self._process(request)

    def _process(self, request: Request):
        demand = getattr(request.interaction, self.cpu_source)
        yield from self.host.execute(demand * 0.5)
        if self.leveler is not None:
            # Park the request and free this worker for the accept
            # loop; a drain process runs _drain_leveled.  The counter
            # moves before offer() so an overflow shed (which runs the
            # callbacks synchronously) stays balanced.
            self._leveled_inflight += 1
            if not self.leveler.offer(request):
                self._leveled_inflight -= 1
                self._shed(request)
            return
        yield from self._finish(request, demand)

    def _finish(self, request: Request, demand: float):
        try:
            yield from self.dispatcher.dispatch(request)
        except NoCandidateError:
            # Every backend is in the Error state: return a 503.  The
            # client still receives a (fast, useless) response.
            self.error_responses += 1
            tracer = self.env.tracer
            if tracer is not None:
                tracer.instant(request.request_id, self._span_error)
            request.completion.succeed(request)
            return
        yield from self.host.execute(demand * 0.5)
        self.host.write_file(self.access_log_bytes)
        self.requests_completed += 1
        self.bytes_served += request.interaction.traffic_bytes
        request.completion.succeed(request)

    def _drain_leveled(self, request: Request):
        """Boundary crossing for a leveled request (runs on a drain)."""
        try:
            demand = getattr(request.interaction, self.cpu_source)
            yield from self._finish(request, demand)
        finally:
            self._leveled_inflight -= 1

    def _shed_leveled(self, victim: Request) -> None:
        """Overflow eviction callback from the leveling queue."""
        self._leveled_inflight -= 1
        self._shed(victim)

    def _shed(self, request: Request) -> None:
        """Answer a request fast because a control-plane gate refused it."""
        self.shed_responses += 1
        tracer = self.env.tracer
        if tracer is not None:
            tracer.instant(request.request_id, self._span_shed)
        request.completion.succeed(request)

    # -- observability -----------------------------------------------------
    @property
    def queue_length(self) -> int:
        """Requests in the accept queue."""
        return self.socket.queue_length

    @property
    def busy_workers(self) -> int:
        return self._busy_workers

    @property
    def in_server(self) -> int:
        """Accept queue plus in-service (the paper's Apache queue plots).

        Leveled requests stay in-service while parked: no worker thread
        holds them, but they are inside the tier until a drain answers
        them.
        """
        return (self.socket.queue_length + self._busy_workers
                + self._leveled_inflight)

    @property
    def dropped_packets(self) -> int:
        return self.socket.dropped


class WorkerTier(TierServer):
    """Job-queue + thread-pool service model (Tomcat).

    ``max_threads`` worker threads consume an unbounded job queue (the
    paper's drops happen at the web tier, not here); processing burns
    tier CPU, runs the downstream call pattern, and appends to the
    access/servlet logs — the dirty pages whose flush produces the
    millibottleneck (§III-B).

    A worker tier both *receives* dispatched traffic (``submit``) and,
    when its ``downstream`` is a dispatcher's ``dispatch``, may run its
    own balancer over the next tier — which is what makes ≥4-tier
    chains and replicated databases expressible.
    """

    def __init__(self, env: "Environment", name: str, host: Host,
                 max_threads: int,
                 downstream: Optional[Downstream] = None,
                 role: str = "tomcat",
                 cpu_source: str = "tomcat_cpu",
                 pre_fraction: float = PRE_DB_FRACTION) -> None:
        super().__init__(env, name, host, role=role)
        if max_threads < 1:
            raise ConfigurationError("max_threads must be >= 1")
        self.max_threads = max_threads
        self.downstream = downstream
        self.cpu_source = cpu_source
        self.pre_fraction = pre_fraction
        self.jobs: Store = Store(env)  # statan: ignore[QUEUE001] -- bounded by upstream endpoint pools and worker counts
        self._busy_threads = 0
        self._span_queue_wait = role + ".queue_wait"
        self._span_service = role + ".service"
        self._span_error = role + ".error_503"
        self._threads = [env.process(self._worker())
                         for _ in range(max_threads)]

    # -- data path ---------------------------------------------------------
    def submit(self, request: Request, reply: Event) -> None:
        """Enqueue a request; ``reply`` triggers with the request when done.

        Non-blocking: the kernel buffers the message even when every
        worker thread is frozen by a millibottleneck.
        """
        tracer = self.env.tracer
        if tracer is not None:
            tracer.start_named(request.request_id, self._span_queue_wait,
                               server=self.name)
        self.jobs.put((request, reply))

    def _worker(self):
        while True:
            request, reply = yield self.jobs.get()
            self._busy_threads += 1
            tracer = self.env.tracer
            span = None
            if tracer is not None:
                tracer.finish_named(request.request_id,
                                    self._span_queue_wait)
                span = tracer.start(request.request_id, self._span_service,
                                    server=self.name)
            try:
                interaction = request.interaction
                demand = getattr(interaction, self.cpu_source)
                yield from self.host.execute(demand * self.pre_fraction)
                if self.downstream is not None:
                    try:
                        yield from self.downstream(request)
                    except NoCandidateError:
                        # Every next-tier replica is in Error: answer
                        # degraded (no downstream work) instead of
                        # holding the thread.  The upstream still gets
                        # a response; only this tier records the error.
                        self.error_responses += 1
                        if tracer is not None:
                            tracer.instant(request.request_id,
                                           self._span_error)
                        reply.succeed(request)
                        continue
                yield from self.host.execute(
                    demand * (1.0 - self.pre_fraction))
                # Access + servlet + localhost logs: buffered writes that
                # dirty the page cache.
                self.host.write_file(interaction.log_bytes)
                self.requests_completed += 1
                self.bytes_served += interaction.traffic_bytes
                reply.succeed(request)
            finally:
                self._busy_threads -= 1
                if tracer is not None:
                    tracer.finish(span)

    # -- observability -----------------------------------------------------
    @property
    def queue_length(self) -> int:
        """Jobs waiting for a worker thread."""
        return len(self.jobs)

    @property
    def busy_threads(self) -> int:
        return self._busy_threads

    @property
    def in_server(self) -> int:
        """Waiting plus in-service requests (the paper's queue plots)."""
        return len(self.jobs) + self._busy_threads


class PooledTier(TierServer):
    """Bounded connection-pool service model (MySQL).

    Passive by default: an upstream worker thread runs :meth:`query` on
    its own process, holding one pooled connection for all of the
    request's queries (a servlet checking a connection out of its pool
    for the whole request).  Behind a balancer the tier also accepts
    dispatched traffic via :meth:`submit`, serving each request on its
    own spawned process — which is what a replicated database tier
    needs.
    """

    def __init__(self, env: "Environment", name: str, host: Host,
                 max_connections: int,
                 role: str = "mysql",
                 cpu_source: str = "mysql_cpu") -> None:
        super().__init__(env, name, host, role=role)
        if max_connections < 1:
            raise ConfigurationError("max_connections must be >= 1")
        self.connections = Resource(env, capacity=max_connections)
        self.cpu_source = cpu_source
        self.queries_executed = 0
        #: Optional read/write capacity partition (repro.controlplane).
        self.bulkhead = None
        #: Requests refused because their bulkhead partition was full.
        self.shed_responses = 0
        self._span_pool_wait = role + ".pool_wait"
        self._span_service = role + ".service"

    def install_bulkhead(self, bulkhead) -> None:
        """Partition the connection pool across request classes."""
        if self.bulkhead is not None:
            raise ConfigurationError(
                "{} already has a bulkhead".format(self.name))
        self.bulkhead = bulkhead

    def query(self, request: Request):
        """Process generator: run the request's queries on one connection.

        The caller (an upstream worker thread) holds one pooled
        connection for all of the request's queries.  A full bulkhead
        partition surfaces as :class:`~repro.errors.NoCandidateError`,
        which upstream tiers translate into degraded responses.
        """
        interaction = request.interaction
        if interaction.db_queries == 0:
            return
        if self.bulkhead is not None:
            slot = self.bulkhead.claim(request)
            if slot is None:
                self.shed_responses += 1
                raise NoCandidateError(
                    "{}: bulkhead partition full".format(self.name))
            with slot:
                yield from self.bulkhead.enter(request, slot)
                yield from self._query_pooled(request)
            return
        yield from self._query_pooled(request)

    def _query_pooled(self, request: Request):
        interaction = request.interaction
        tracer = self.env.tracer
        pool_span = (tracer.start(request.request_id, self._span_pool_wait,
                                  server=self.name)
                     if tracer is not None else None)
        service_span = None
        try:
            with self.connections.request() as connection:
                yield connection
                if tracer is not None:
                    tracer.finish(pool_span)
                    service_span = tracer.start(
                        request.request_id, self._span_service,
                        server=self.name,
                        queries=interaction.db_queries)
                demand = getattr(interaction, self.cpu_source)
                for _ in range(interaction.db_queries):
                    yield from self.host.execute(demand)
                    self.queries_executed += 1
        finally:
            if tracer is not None:
                tracer.finish(pool_span)
                tracer.finish(service_span)
        self.requests_completed += 1
        self.bytes_served += interaction.traffic_bytes

    # -- dispatched access (replicated tier behind a balancer) -------------
    def submit(self, request: Request, reply: Event) -> None:
        """Serve a dispatched request on its own process.

        Non-blocking, mirroring :meth:`WorkerTier.submit`: the kernel
        buffers the message even mid-millibottleneck; concurrency is
        bounded by the connection pool inside :meth:`query`.
        """
        self.env.process(self._serve(request, reply))

    def _serve(self, request: Request, reply: Event):
        try:
            yield from self.query(request)
        except NoCandidateError:
            # Bulkhead shed on a dispatched request: answer degraded
            # instead of crashing the spawned process — the upstream
            # dispatch already counts the work as completed.
            self.error_responses += 1
            reply.succeed(request)
            return
        reply.succeed(request)

    @property
    def queue_length(self) -> int:
        """Requests waiting for a free connection."""
        return self.connections.queue_length

    @property
    def in_server(self) -> int:
        """Waiting plus executing requests."""
        return self.connections.queue_length + self.connections.count
