"""CPU model with user-time and iowait accounting.

Foreground work runs through :meth:`Cpu.execute`.  The flush daemon
uses :meth:`Cpu.stall` to occupy **every** core in iowait for the
duration of a write-back burst — the paper's central (and "unexpected")
observation is that flushing dirty pages, though nominally
asynchronous, saturates the CPU with iowait and freezes foreground
request processing (§III-B, Figs. 2(c)/2(d)).

Utilisation is integrated exactly with :class:`~repro.metrics.windows.
BusyTracker`, so fine-grained (50 ms) utilisation plots are free of
sampling noise.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.metrics.windows import BusyTracker
from repro.metrics.timeseries import TimeSeries
from repro.sim.resources import PriorityResource

if TYPE_CHECKING:  # pragma: no cover
    from repro.sim.core import Environment

#: Queue priority for flush-induced stalls (wins over foreground work).
STALL_PRIORITY = 0
#: Queue priority for ordinary request processing.
FOREGROUND_PRIORITY = 10


class Cpu:
    """``cores`` identical cores shared by foreground work and stalls."""

    def __init__(self, env: "Environment", cores: int = 4,
                 name: str = "cpu") -> None:
        if cores < 1:
            raise ValueError("cores must be >= 1")
        self.env = env
        self.name = name
        self.cores = cores
        self._slots = PriorityResource(env, capacity=cores)
        self.user = BusyTracker(cores, name + ".user")
        self.iowait = BusyTracker(cores, name + ".iowait")

    def execute(self, cpu_seconds: float):
        """Process generator: burn ``cpu_seconds`` of one core.

        Queues behind other foreground work and behind any in-progress
        stall; during a millibottleneck this is exactly where requests
        pile up.
        """
        if cpu_seconds < 0:
            raise ValueError("negative CPU demand")
        env = self.env
        with self._slots.request(priority=FOREGROUND_PRIORITY) as grant:
            yield grant
            # env._now, not the now property: this runs per CPU slice.
            self.user.acquire(env._now)
            try:
                yield env.timeout(cpu_seconds)
            finally:
                self.user.release(env._now)

    def stall(self, duration: float):
        """Process generator: hold *all* cores in iowait for ``duration``.

        Cores are claimed at :data:`STALL_PRIORITY`, so the stall starts
        as soon as currently-running slices finish and pre-empts every
        queued foreground task.
        """
        if duration < 0:
            raise ValueError("negative stall duration")
        grants = [self._slots.request(priority=STALL_PRIORITY)
                  for _ in range(self.cores)]
        try:
            yield self.env.all_of(grants)
            self.iowait.acquire(self.env.now, self.cores)
            try:
                yield self.env.timeout(duration)
            finally:
                self.iowait.release(self.env.now, self.cores)
        finally:
            for grant in grants:
                grant.cancel_or_release()

    # -- observability ---------------------------------------------------
    @property
    def busy_cores(self) -> int:
        """Cores currently granted (user work or stall)."""
        return self._slots.count

    def utilization(self, start: float, end: float) -> float:
        """Total utilisation (user + iowait), the paper's "CPU usage"."""
        return (self.user.utilization(start, end)
                + self.iowait.utilization(start, end))

    def utilization_series(self, window: float, until: float) -> TimeSeries:
        """Fine-grained total utilisation (Figs. 2(c)/6(b)/7(b))."""
        user = self.user.utilization_series(window, until)
        iowait = self.iowait.utilization_series(window, until)
        out = TimeSeries(self.name + ".util")
        for (time, u), (_, w) in zip(user, iowait):
            out.append(time, u + w)
        return out

    def iowait_series(self, window: float, until: float) -> TimeSeries:
        """Fine-grained iowait utilisation (Fig. 2(d))."""
        return self.iowait.utilization_series(window, until)

    def __repr__(self) -> str:
        return "<Cpu {} cores={} busy={}>".format(
            self.name, self.cores, self.busy_cores)
