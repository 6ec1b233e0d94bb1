"""Token-bucket admission control at the frontend.

The bucket holds up to ``capacity`` tokens and refills continuously at
``refill_rate`` tokens per second; every admitted request consumes a
``lease`` of tokens.  Refill is computed lazily from elapsed time, so
an idle (or absent) controller schedules **zero** events — the
zero-cost-when-off discipline every control-plane mechanism follows.

Two modes mirror the classic pattern split:

* ``shed`` — a request that finds the bucket empty is rejected
  immediately with a fast (useless) response, freeing the worker slot.
* ``queue`` — the request *reserves* its lease (the balance may go
  negative, which is what serialises concurrent waiters) and sleeps
  until the refill covers it; reservations whose wait would exceed
  ``max_wait`` are shed instead of queued.

Every decision is appended to :attr:`TokenBucketAdmission.records`
(bounded by ``record_limit``), so an experiment can audit exactly when
the controller started shedding relative to a millibottleneck.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Optional

from repro.errors import ConfigurationError

if TYPE_CHECKING:  # pragma: no cover
    from repro.sim.core import Environment
    from repro.workload.request import Request

#: Admission decision outcomes.
ADMISSION_MODES = ("shed", "queue")


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise ConfigurationError(message)


@dataclass(frozen=True)
class AdmissionConfig:
    """Token-bucket admission knobs (frozen, JSON-roundtrippable)."""

    #: Bucket size in tokens — the burst the frontend absorbs unshed.
    capacity: float = 50.0
    #: Continuous refill in tokens per second — the sustained admit rate.
    #: The default sits above any one frontend's steady arrival rate at
    #: either built-in profile, so the bucket only drains — and sheds —
    #: while a stall holds arrivals back and then releases them as a
    #: burst.  Admission is stall protection here, not throttling.
    refill_rate: float = 500.0
    #: Tokens one admitted request consumes.
    lease: float = 1.0
    #: ``shed`` rejects on empty; ``queue`` waits up to ``max_wait``.
    mode: str = "shed"
    #: Longest a queued request may wait for its lease (queue mode).
    max_wait: float = 0.5
    #: Cap on retained per-request admission records.
    record_limit: int = 20000

    def __post_init__(self) -> None:
        _require(self.capacity > 0, "admission capacity must be positive")
        _require(self.refill_rate > 0,
                 "admission refill_rate must be positive")
        _require(self.lease > 0, "admission lease must be positive")
        _require(self.lease <= self.capacity,
                 "admission lease cannot exceed capacity")
        _require(self.mode in ADMISSION_MODES,
                 "unknown admission mode {!r} (one of {})".format(
                     self.mode, ", ".join(ADMISSION_MODES)))
        _require(self.max_wait > 0, "admission max_wait must be positive")
        _require(self.record_limit >= 0,
                 "admission record_limit must be >= 0")


@dataclass(frozen=True)
class AdmissionRecord:
    """One admission decision, for post-run auditing."""

    at: float
    request_id: int
    outcome: str  # "admitted" | "queued" | "shed"
    wait: float
    tokens_after: float


class TokenBucketAdmission:
    """Runtime token bucket guarding one frontend server."""

    def __init__(self, env: "Environment", config: AdmissionConfig,
                 name: str = "admission") -> None:
        self.env = env
        self.config = config
        self.name = name
        self._tokens = config.capacity
        self._updated_at = env.now
        self.admitted = 0
        self.queued = 0
        self.shed = 0
        self.records: list[AdmissionRecord] = []

    # -- bucket accounting ---------------------------------------------------
    def _refill(self) -> None:
        now = self.env.now
        elapsed = now - self._updated_at
        if elapsed > 0:
            self._tokens = min(
                self.config.capacity,
                self._tokens + elapsed * self.config.refill_rate)
            self._updated_at = now

    @property
    def tokens(self) -> float:
        """Current balance (refilled to now); may be negative in queue
        mode while waiters hold reservations."""
        self._refill()
        return self._tokens

    def _record(self, request: "Request", outcome: str, wait: float) -> None:
        if len(self.records) < self.config.record_limit:
            self.records.append(AdmissionRecord(
                at=self.env.now, request_id=request.request_id,
                outcome=outcome, wait=wait, tokens_after=self._tokens))

    # -- decisions -----------------------------------------------------------
    def admit(self, request: "Request") -> Optional[float]:
        """Decide ``request``'s fate without yielding.

        Returns ``None`` when the request is shed, else the seconds it
        must wait before it is admitted: ``0.0`` is admitted now; a
        positive wait (queue mode) has already reserved its lease, and
        the caller sleeps it out with :meth:`queue_wait`.
        """
        config = self.config
        self._refill()
        if self._tokens >= config.lease:
            self._tokens -= config.lease
            self.admitted += 1
            self._record(request, "admitted", 0.0)
            return 0.0
        if config.mode == "shed":
            self.shed += 1
            self._record(request, "shed", 0.0)
            return None
        # Queue mode: reserve the lease up front (the balance going
        # negative is the reservation); the caller sleeps out the deficit.
        wait = (config.lease - self._tokens) / config.refill_rate
        if wait > config.max_wait:
            self.shed += 1
            self._record(request, "shed", wait)
            return None
        self._tokens -= config.lease
        self.queued += 1
        return wait

    def queue_wait(self, request: "Request", wait: float):
        """Process generator: sleep out a queued reservation, then count
        the request admitted (one still asleep at the horizon is not)."""
        tracer = self.env.tracer
        if tracer is None:
            yield self.env.timeout(wait)
        else:
            span = tracer.start(request.request_id, "admission.queue_wait",
                                controller=self.name)
            yield self.env.timeout(wait)
            tracer.finish(span)
        self.admitted += 1
        self._record(request, "queued", wait)

    def __repr__(self) -> str:
        return "<TokenBucketAdmission {} tokens={:.1f} shed={}>".format(
            self.name, self._tokens, self.shed)
