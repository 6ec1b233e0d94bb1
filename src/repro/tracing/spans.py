"""Per-request span trees: the fine-grained monitoring the paper calls for.

A :class:`SpanTracer` installed on :attr:`Environment.tracer
<repro.sim.core.Environment.tracer>` records one :class:`RequestTrace`
per request, with one :class:`Span` per hop — client TCP send (and each
retransmission wait), web-tier accept queue, worker service, balancer
decision and endpoint wait, app-tier queue and service, database pool
and service — so "why did *this* request take 3.007 s" is answerable
from the trace alone (the question Figs. 2-4 answer with external
monitors).

The tracer follows the kernel's zero-cost-when-off hook pattern:
``Environment.tracer`` defaults to ``None``, every call site guards
with a single attribute check, and the tracer itself never creates or
schedules events — recording is pure observation, so the event
schedule (and the golden-trace hashes built on it) is byte-identical
with tracing on, off, or absent.

Span parentage is inferred per request: a span opened while another is
open for the same request becomes its child.  The hop structure is
sequential within one request, so this yields properly nested trees;
cross-component waits (a queue wait opened by the producer and closed
by the consumer) go through the *named* span API instead of carrying
the span object across the hop.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterator, Optional

if TYPE_CHECKING:  # pragma: no cover
    from repro.sim.core import Environment

__all__ = ["Span", "RequestTrace", "SpanTracer"]


class Span:
    """One timed hop of one request."""

    __slots__ = ("span_id", "name", "start", "end", "parent", "children",
                 "meta", "trace")

    def __init__(self, span_id: int, name: str, start: float,
                 parent: Optional["Span"] = None,
                 trace: Optional["RequestTrace"] = None) -> None:
        self.span_id = span_id
        self.name = name
        self.start = start
        self.end: Optional[float] = None
        self.parent = parent
        #: Lazily allocated child list (most spans are leaves, and a
        #: scenario allocates one span per hop per request — the empty
        #: lists were a measurable share of tracing-on overhead).
        self.children: Optional[list[Span]] = None
        #: Lazily allocated annotation dict (most spans carry none).
        self.meta: Optional[dict] = None
        #: Owning trace (lets ``finish`` unwind the open stack in O(1)).
        self.trace = trace

    @property
    def duration(self) -> float:
        """Seconds from start to end (``0.0`` while still open)."""
        return 0.0 if self.end is None else self.end - self.start

    @property
    def finished(self) -> bool:
        return self.end is not None

    def annotate(self, **meta) -> None:
        if self.meta is None:
            self.meta = meta
        else:
            self.meta.update(meta)

    def walk(self) -> Iterator["Span"]:
        """This span and every descendant, depth-first, in open order."""
        yield self
        children = self.children
        if children:
            for child in children:
                yield from child.walk()

    @property
    def depth(self) -> int:
        depth, span = 0, self.parent
        while span is not None:
            depth, span = depth + 1, span.parent
        return depth

    def __repr__(self) -> str:
        return "<Span #{} {} [{:.6f}, {}]>".format(
            self.span_id, self.name, self.start,
            "open" if self.end is None else format(self.end, ".6f"))


class RequestTrace:
    """The span tree of one request, rooted at its client-visible span."""

    __slots__ = ("request_id", "root", "_stack", "_named")

    def __init__(self, request_id: int, root: Span) -> None:
        self.request_id = request_id
        self.root = root
        #: Open spans, innermost last; the next span opened for this
        #: request becomes a child of the innermost open span.
        self._stack: list[Span] = [root]
        #: Open cross-component spans by name (producer opens,
        #: consumer closes); allocated on first use.
        self._named: Optional[dict[str, Span]] = None

    @property
    def status(self) -> Optional[str]:
        """Root-span status annotation (``ok``/``abandoned``/...)."""
        return None if self.root.meta is None else self.root.meta.get(
            "status")

    @property
    def completed(self) -> bool:
        return self.root.end is not None and self.status == "ok"

    @property
    def duration(self) -> float:
        return self.root.duration

    def span_count(self) -> int:
        return sum(1 for _ in self.root.walk())

    def spans_named(self, name: str) -> list[Span]:
        return [span for span in self.root.walk() if span.name == name]

    def signature(self) -> str:
        """Canonical nesting signature: ``name(child,child(...),...)``.

        Depends only on span names and parent/child shape — not on
        timing — which is what the trace-structure golden test pins.
        """
        def render(span: Span) -> str:
            if not span.children:
                return span.name
            return "{}({})".format(
                span.name, ",".join(render(child)
                                    for child in span.children))
        return render(self.root)

    def __repr__(self) -> str:
        return "<RequestTrace #{} spans={} {}>".format(
            self.request_id, self.span_count(),
            "open" if self.root.end is None else self.status)


class SpanTracer:
    """Builds one :class:`RequestTrace` per request as events unfold.

    Every method is a no-op for requests without a begun trace, so
    instrumented components never need to know whether a particular
    request (a unit-test probe object, say) is being traced.
    """

    __slots__ = ("env", "traces", "_next_span_id")

    def __init__(self, env: "Environment") -> None:
        self.env = env
        #: request_id -> trace, in begin order (dicts preserve it).
        self.traces: dict[int, RequestTrace] = {}
        self._next_span_id = 0

    # -- trace lifecycle ---------------------------------------------------
    # ``begin``/``start``/``instant`` build spans inline through
    # ``Span.__new__`` + slot stores: a traced scenario opens one span
    # per hop per request, and the ``Span.__init__`` call chain (plus
    # an ``annotate`` call for the metadata) was a measurable share of
    # the tracing-on overhead bound pinned in
    # ``benchmarks/test_tracing_overhead.py``.

    def begin(self, request_id: int, _new=Span.__new__,
              _cls=Span, **meta) -> RequestTrace:
        """Open the root span of a new request."""
        self._next_span_id = sid = self._next_span_id + 1
        root = _new(_cls)
        root.span_id = sid
        root.name = "request"
        root.start = self.env._now
        root.end = None
        root.parent = None
        root.children = None
        root.meta = meta or None
        trace = RequestTrace(request_id, root)
        root.trace = trace
        self.traces[request_id] = trace
        return trace

    def end(self, request_id: int, status: str = "ok", **meta) -> None:
        """Close the root span (stragglers stay open for finalize)."""
        trace = self.traces.get(request_id)
        if trace is None:
            return
        root = trace.root
        if root.end is not None:
            return
        root.end = self.env._now
        meta["status"] = status
        current = root.meta
        if current is None:
            root.meta = meta
        else:
            current.update(meta)

    def get(self, request_id: int) -> Optional[RequestTrace]:
        return self.traces.get(request_id)

    # -- spans -------------------------------------------------------------
    def start(self, request_id: int, name: str, _new=Span.__new__,
              _cls=Span, **meta) -> Optional[Span]:
        """Open a span as a child of the request's innermost open span."""
        trace = self.traces.get(request_id)
        if trace is None:
            return None
        self._next_span_id = sid = self._next_span_id + 1
        span = _new(_cls)
        span.span_id = sid
        span.name = name
        span.start = self.env._now
        span.end = None
        stack = trace._stack
        parent = stack[-1] if stack else trace.root
        span.parent = parent
        span.children = None
        span.meta = meta or None
        span.trace = trace
        children = parent.children
        if children is None:
            parent.children = [span]
        else:
            children.append(span)
        stack.append(span)
        return span

    def finish(self, span: Optional[Span], **meta) -> None:
        """Close ``span`` (``None`` and double closes are no-ops)."""
        if span is None or span.end is not None:
            return
        span.end = self.env._now
        if meta:
            span.annotate(**meta)
        # The span is almost always innermost — a tail pop.  Interrupts
        # and faults can close out of order; only then pay the scan.
        stack = span.trace._stack
        if stack:
            if stack[-1] is span:
                stack.pop()
            elif span in stack:
                stack.remove(span)

    def start_named(self, request_id: int, name: str, _new=Span.__new__,
                    _cls=Span, **meta) -> None:
        """Open a cross-component span the consumer will close by name."""
        trace = self.traces.get(request_id)
        if trace is None:
            return
        named = trace._named
        if named is None:
            named = trace._named = {}
        elif name in named:
            return
        self._next_span_id = sid = self._next_span_id + 1
        span = _new(_cls)
        span.span_id = sid
        span.name = name
        span.start = self.env._now
        span.end = None
        stack = trace._stack
        parent = stack[-1] if stack else trace.root
        span.parent = parent
        span.children = None
        span.meta = meta or None
        span.trace = trace
        children = parent.children
        if children is None:
            parent.children = [span]
        else:
            children.append(span)
        stack.append(span)
        named[name] = span

    def finish_named(self, request_id: int, name: str, **meta) -> None:
        trace = self.traces.get(request_id)
        if trace is None or trace._named is None:
            return
        span = trace._named.pop(name, None)
        if span is None or span.end is not None:
            return
        span.end = self.env._now
        if meta:
            span.annotate(**meta)
        stack = trace._stack
        if stack:
            if stack[-1] is span:
                stack.pop()
            elif span in stack:
                stack.remove(span)

    def instant(self, request_id: int, name: str, _new=Span.__new__,
                _cls=Span, **meta) -> None:
        """A zero-duration annotation span (decision points).

        Equivalent to ``finish(start(...))`` — the span is attached to
        the innermost open span and never touches the open stack (the
        push/pop pair cancels out).
        """
        trace = self.traces.get(request_id)
        if trace is None:
            return
        self._next_span_id = sid = self._next_span_id + 1
        span = _new(_cls)
        span.span_id = sid
        span.name = name
        span.start = span.end = self.env._now
        stack = trace._stack
        parent = stack[-1] if stack else trace.root
        span.parent = parent
        span.children = None
        span.meta = meta or None
        span.trace = trace
        children = parent.children
        if children is None:
            parent.children = [span]
        else:
            children.append(span)

    # -- completion --------------------------------------------------------
    def finalize(self) -> None:
        """Close every still-open span at the current time.

        Called once after the run: requests in flight at the horizon
        (and ghost work whose client already moved on) get their spans
        closed with an ``unfinished`` marker so exporters and the
        decomposer see only well-formed intervals.
        """
        now = self.env.now
        for trace in self.traces.values():
            for span in trace.root.walk():
                if span.end is None:
                    span.end = now
                    span.annotate(unfinished=True)
                    if span is trace.root and (
                            span.meta.get("status") is None):
                        span.annotate(status="unfinished")
            trace._stack.clear()
            if trace._named is not None:
                trace._named.clear()

    def __len__(self) -> int:
        return len(self.traces)

    def __repr__(self) -> str:
        return "<SpanTracer traces={} spans={}>".format(
            len(self.traces), self._next_span_id)
