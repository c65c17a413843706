"""Discrete-event simulation engine.

The entire system model is event-driven: components schedule callbacks at
absolute picosecond timestamps and the engine executes them in time order.
Ties are broken by insertion order so runs are fully deterministic.

An event may carry one argument for its callback (``sim.at(t, fn, arg)``
runs ``fn(arg)``).  Hot paths schedule a pre-bound method with the object
it acts on instead of building a ``functools.partial`` per event.
"""

from __future__ import annotations

import heapq
from typing import Any, Callable, Optional

from ..errors import SimulationError

Callback = Callable[..., None]

#: Marks an event scheduled without an argument.  A private object rather
#: than ``None`` so that ``None`` itself can be delivered as an argument.
_NO_ARG: Any = object()

# at() is the single hottest call site in the simulator; binding heappush
# at module level skips the heapq attribute chase on every schedule.
_heappush = heapq.heappush


class Simulator:
    """A deterministic discrete-event simulator with integer-ps time."""

    def __init__(self) -> None:
        self.now: int = 0
        #: Heap of ``(time_ps, seq, fn, arg)`` entries; ``seq`` is unique,
        #: so ordering never compares callbacks or arguments.
        self._queue: list = []
        self._seq: int = 0
        self._events_executed: int = 0
        self._peak_pending: int = 0
        #: Optional :class:`~repro.obs.tracer.ChromeTracer`.  Components
        #: reach it as ``sim.tracer`` and guard every emission with a
        #: single ``is not None`` check, so the disabled cost is one
        #: attribute load per hook site.
        self.tracer = None

    # ------------------------------------------------------------------
    # Scheduling
    # ------------------------------------------------------------------
    def at(self, time_ps: int, fn: Callback, arg: Any = _NO_ARG) -> None:
        """Schedule ``fn()`` (or ``fn(arg)``) to run at absolute time ``time_ps``."""
        if time_ps < self.now:
            raise SimulationError(
                f"cannot schedule event in the past: {time_ps} < now={self.now}"
            )
        queue = self._queue
        _heappush(queue, (time_ps, self._seq, fn, arg))
        self._seq += 1
        # Peak-pending high-water mark: the heap only grows here, so one
        # len/compare per schedule is the entire telemetry cost.
        if len(queue) > self._peak_pending:
            self._peak_pending = len(queue)

    def after(self, delay_ps: int, fn: Callback, arg: Any = _NO_ARG) -> None:
        """Schedule ``fn()`` (or ``fn(arg)``) to run ``delay_ps`` from now."""
        if delay_ps < 0:
            raise SimulationError(f"negative delay: {delay_ps}")
        self.at(self.now + delay_ps, fn, arg)

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def run(self, max_events: Optional[int] = None) -> int:
        """Run until the event queue drains (or ``max_events`` have run).

        Returns the number of events executed during this call.
        """
        executed = 0
        queue = self._queue
        pop = heapq.heappop
        no_arg = _NO_ARG
        if max_events is None:
            # Fast path: no per-event limit checks.  This loop executes
            # every event of every simulation — keeping it to a pop, a
            # store, and a call is a measurable whole-run win.
            while queue:
                self.now, _, fn, arg = pop(queue)
                if arg is no_arg:
                    fn()
                else:
                    fn(arg)
                executed += 1
        else:
            # Bounded path: the watchdog (repro.sim.watchdog) runs every
            # simulation in slices of ``max_events``, so this loop is as hot
            # as the one above — it adds one integer comparison per event.
            while queue and executed < max_events:
                self.now, _, fn, arg = pop(queue)
                if arg is no_arg:
                    fn()
                else:
                    fn(arg)
                executed += 1
        self._events_executed += executed
        return executed

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def pending_events(self) -> int:
        return len(self._queue)

    @property
    def events_executed(self) -> int:
        return self._events_executed

    @property
    def peak_pending_events(self) -> int:
        """High-water mark of the pending-event heap over the sim's life."""
        return self._peak_pending
