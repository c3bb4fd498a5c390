"""A small, fast discrete-event simulation engine.

The engine is deliberately minimal: a priority queue of timestamped
callbacks plus a monotonically advancing clock.  Entities (machines, the
DDC coordinator, user behaviour processes) schedule callbacks; state is
mutated only inside callbacks, so between any two events the world is
piecewise-constant.  Cumulative quantities (CPU idle-thread time, NIC byte
counters, SMART power-on hours) are therefore closed-form integrals between
events, which is what makes a 77-day x 169-machine run cheap: at seed
2005 it fires 210,158 behavioural events plus about 15 thousand
iteration, btick and sweep events.

Design notes
------------
- Events at equal timestamps fire in scheduling order (FIFO), which keeps
  runs bitwise-deterministic.
- ``schedule`` returns an :class:`EventHandle` that supports O(1) lazy
  cancellation (the heap entry is tombstoned, not removed).
- The engine knows nothing about machines or probes; higher layers build on
  it.  This mirrors how the real system separates "wall clock" from the
  monitoring logic.
"""

from __future__ import annotations

import heapq
import itertools
import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Callable, Optional

from repro.errors import ScheduleError, SimulationError

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.obs.observer import Observer

__all__ = ["Event", "EventHandle", "Simulator"]


@dataclass(frozen=True)
class Event:
    """An immutable record of a fired event (useful for tracing/debugging)."""

    time: float
    seq: int
    name: str


# Heap entries are plain lists ``[time, seq, callback, args, name]``.
# Heap ordering compares ``time`` then ``seq``; ``seq`` is unique per
# entry so the comparison never reaches the callback.  Lists beat a
# ``@dataclass(order=True)`` here because list comparison runs in C and
# ``__lt__`` is the single hottest call of a large run's sift loop.
_TIME, _SEQ, _CALLBACK, _ARGS, _NAME = range(5)


class EventHandle:
    """Handle to a scheduled event allowing cancellation.

    Cancellation is lazy: the underlying heap entry stays in the queue but
    its callback is cleared, and the engine skips it when popped.
    """

    __slots__ = ("_entry",)

    def __init__(self, entry: list):
        self._entry = entry

    @property
    def time(self) -> float:
        """Scheduled firing time of the event."""
        return self._entry[_TIME]

    @property
    def cancelled(self) -> bool:
        """Whether :meth:`cancel` has been called."""
        return self._entry[_CALLBACK] is None

    def cancel(self) -> None:
        """Prevent the event from firing.  Idempotent."""
        self._entry[_CALLBACK] = None
        self._entry[_ARGS] = ()


class Simulator:
    """Priority-queue discrete-event simulator.

    Parameters
    ----------
    start:
        Initial simulation time in seconds.  The convention throughout
        :mod:`repro` is that ``t = 0`` is 00:00 on the first (Monday) day of
        the monitoring experiment.
    observer:
        Optional :class:`repro.obs.Observer`.  When attached, the engine
        counts fired events and discarded tombstones, tracks the heap's
        high-water mark, and feeds each fired :class:`Event` record to
        the observer's sampler.  A ``None`` or disabled observer is
        dropped here, keeping the step loop hook-free.

    Examples
    --------
    >>> sim = Simulator()
    >>> fired = []
    >>> _ = sim.schedule(10.0, fired.append, "a")
    >>> _ = sim.schedule(5.0, fired.append, "b")
    >>> sim.run_until(20.0)
    >>> fired
    ['b', 'a']
    >>> sim.now
    20.0
    """

    def __init__(self, start: float = 0.0,
                 observer: Optional["Observer"] = None):
        if not math.isfinite(start):
            raise ScheduleError(f"start time must be finite, got {start!r}")
        self._now = float(start)
        self._heap: list[list] = []
        self._seq = itertools.count()
        self._events_fired = 0
        self._running = False
        self._stop_requested = False
        self._obs = observer if observer is not None and observer.enabled else None
        if self._obs is not None:
            metrics = self._obs.metrics
            self._c_fired = metrics.counter("sim.events_fired")
            self._c_tombstones = metrics.counter("sim.tombstones_discarded")
            self._g_heap = metrics.gauge("sim.heap_depth_max")

    def __getstate__(self) -> dict:
        # Checkpoints are taken from inside a firing event, i.e. while
        # run_until holds the re-entrancy latch; a restored simulator
        # must accept a fresh run_until call.
        state = self.__dict__.copy()
        state["_running"] = False
        state["_stop_requested"] = False
        return state

    # ------------------------------------------------------------------
    # clock
    # ------------------------------------------------------------------
    @property
    def now(self) -> float:
        """Current simulation time in seconds."""
        return self._now

    @property
    def events_fired(self) -> int:
        """Number of (non-cancelled) events executed so far."""
        return self._events_fired

    def __len__(self) -> int:
        """Number of pending (possibly cancelled) entries in the queue."""
        return len(self._heap)

    # ------------------------------------------------------------------
    # scheduling
    # ------------------------------------------------------------------
    def schedule(
        self,
        time: float,
        callback: Callable[..., None],
        *args: Any,
        name: str = "",
    ) -> EventHandle:
        """Schedule ``callback(*args)`` to run at absolute time ``time``.

        Raises
        ------
        ScheduleError
            If ``time`` precedes the current clock or is not finite.
        """
        if not math.isfinite(time):
            raise ScheduleError(f"event time must be finite, got {time!r}")
        if time < self._now:
            raise ScheduleError(
                f"cannot schedule event at t={time} before current time t={self._now}"
            )
        entry = [float(time), next(self._seq), callback, args, name]
        heapq.heappush(self._heap, entry)
        if self._obs is not None:
            self._g_heap.max(len(self._heap))
        return EventHandle(entry)

    def schedule_after(
        self,
        delay: float,
        callback: Callable[..., None],
        *args: Any,
        name: str = "",
    ) -> EventHandle:
        """Schedule ``callback(*args)`` to run ``delay`` seconds from now."""
        if delay < 0:
            raise ScheduleError(f"delay must be non-negative, got {delay!r}")
        return self.schedule(self._now + delay, callback, *args, name=name)

    # ------------------------------------------------------------------
    # execution
    # ------------------------------------------------------------------
    def request_stop(self) -> None:
        """Ask a running :meth:`run_until` / :meth:`run` to return early.

        Safe to call from another thread (the flag is a single attribute
        store).  The running loop honours the request at the next event
        boundary: no callback is interrupted mid-flight, the clock stays
        at the last fired event instead of jumping to ``end``, and the
        flag is cleared before the loop returns, so the simulation can be
        resumed with another ``run_until`` call.  The live driver uses
        this to interrupt long chunks promptly on shutdown.
        """
        self._stop_requested = True

    @property
    def stop_requested(self) -> bool:
        """Whether a stop request is pending (unconsumed)."""
        return self._stop_requested

    def step(self) -> Optional[Event]:
        """Execute the next pending event, advancing the clock to it.

        Returns the fired :class:`Event`, or ``None`` if the queue is empty
        (the clock does not move in that case).  Cancelled entries are
        silently discarded.
        """
        obs = self._obs
        heap = self._heap
        while heap:
            entry = heapq.heappop(heap)
            callback = entry[_CALLBACK]
            if callback is None:
                if obs is not None:
                    self._c_tombstones.inc()
                continue
            time = entry[_TIME]
            if time < self._now:  # pragma: no cover - defensive
                raise SimulationError("heap yielded an event from the past")
            self._now = time
            args = entry[_ARGS]
            # Clear before invoking so re-entrant cancels are harmless.
            entry[_CALLBACK] = None
            entry[_ARGS] = ()
            callback(*args)
            self._events_fired += 1
            event = Event(time, entry[_SEQ], entry[_NAME])
            if obs is not None:
                self._c_fired.inc()
                obs.record_event(event)
            return event
        return None

    def peek(self) -> Optional[float]:
        """Time of the next pending live event, or ``None`` if none remain."""
        heap = self._heap
        while heap and heap[0][_CALLBACK] is None:
            heapq.heappop(heap)
            if self._obs is not None:
                self._c_tombstones.inc()
        return heap[0][_TIME] if heap else None

    def run_until(self, end: float) -> int:
        """Run all events with ``time <= end`` and set the clock to ``end``.

        Returns the number of events fired.  ``end`` may not precede the
        current clock.  If :meth:`request_stop` fires mid-run the loop
        returns at the next event boundary with the clock left at the
        last fired event (not ``end``).
        """
        if end < self._now:
            raise ScheduleError(
                f"run_until({end}) precedes current time t={self._now}"
            )
        if self._running:
            raise SimulationError("Simulator.run_until is not re-entrant")
        self._running = True
        stopped = False
        fired = 0
        if self._obs is None:
            # Uninstrumented fast loop: no Event records, no per-step
            # bookkeeping beyond the fired counter.  Identical semantics
            # to the observed loop below, minus the hooks.
            heap = self._heap
            heappop = heapq.heappop
            try:
                while heap and heap[0][_TIME] <= end:
                    if self._stop_requested:
                        stopped = True
                        break
                    entry = heappop(heap)
                    callback = entry[_CALLBACK]
                    if callback is None:
                        continue
                    self._now = entry[_TIME]
                    args = entry[_ARGS]
                    entry[_CALLBACK] = None
                    entry[_ARGS] = ()
                    callback(*args)
                    fired += 1
            finally:
                self._events_fired += fired
                self._running = False
                self._stop_requested = False
            if not stopped:
                self._now = float(end)
            return fired
        try:
            while True:
                if self._stop_requested:
                    stopped = True
                    break
                nxt = self.peek()
                if nxt is None or nxt > end:
                    break
                self.step()
                fired += 1
        finally:
            self._running = False
            self._stop_requested = False
        if not stopped:
            self._now = float(end)
        return fired

    def run_before(self, end: float) -> int:
        """Run all events with ``time < end`` and set the clock to ``end``.

        The half-open companion to :meth:`run_until`: entries scheduled
        at exactly ``end`` stay queued (a later ``run_until(end)`` fires
        them), while the clock still lands on ``end`` so callers observe
        the target instant.  The tick backend uses this so that a
        closing-staff sweep acts before any behavioural event sharing
        its timestamp (rule 2 of :mod:`repro.sim.backend`).
        """
        if end < self._now:
            raise ScheduleError(
                f"run_before({end}) precedes current time t={self._now}"
            )
        if self._running:
            raise SimulationError("Simulator.run_before is not re-entrant")
        self._running = True
        stopped = False
        fired = 0
        try:
            while True:
                if self._stop_requested:
                    stopped = True
                    break
                nxt = self.peek()
                if nxt is None or nxt >= end:
                    break
                self.step()
                fired += 1
        finally:
            self._running = False
            self._stop_requested = False
        if not stopped:
            self._now = float(end)
        return fired

    def run(self) -> int:
        """Run until the event queue is exhausted.  Returns events fired."""
        if self._running:
            raise SimulationError("Simulator.run is not re-entrant")
        self._running = True
        fired = 0
        try:
            while not self._stop_requested and self.step() is not None:
                fired += 1
        finally:
            self._running = False
            self._stop_requested = False
        return fired
