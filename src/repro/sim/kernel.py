"""Event queue and simulation clock.

The kernel implements a classic calendar-queue discrete-event simulator:
callbacks are scheduled at absolute simulated times (seconds, floats) and
executed in non-decreasing time order.  Ties are broken by scheduling
order, which keeps runs deterministic without relying on callback identity.

Example
-------
>>> sim = Simulator()
>>> fired = []
>>> _ = sim.schedule(2.0, lambda: fired.append("late"))
>>> _ = sim.schedule(1.0, lambda: fired.append("early"))
>>> sim.run()
>>> fired
['early', 'late']
>>> sim.now
2.0
"""

from __future__ import annotations

import heapq
from typing import Any, Callable, List, Optional


class SimulationError(RuntimeError):
    """Raised on kernel misuse (scheduling in the past, reentrant run...)."""


class Event:
    """A scheduled callback.

    Events are created through :meth:`Simulator.schedule` /
    :meth:`Simulator.schedule_at`; user code holds on to them only to
    :meth:`cancel` them.  A cancelled event stays in the heap but is
    skipped when popped (lazy deletion), which keeps cancellation O(1).
    """

    __slots__ = ("time", "seq", "callback", "args", "cancelled",
                 "category", "_sim")

    def __init__(self, time: float, seq: int,
                 callback: Callable[..., Any], args: tuple,
                 sim: Optional["Simulator"] = None):
        self.time = time
        self.seq = seq
        self.callback = callback
        self.args = args
        self.cancelled = False
        #: Optional creator-assigned class tag (e.g. ``"slice"`` for
        #: scheduler quantum events), queryable through
        #: :meth:`Simulator.peek_time_excluding`.
        self.category: Optional[str] = None
        # Back-reference while queued, so the simulator's live-event
        # counter stays exact; cleared when popped or cancelled.
        self._sim = sim

    def cancel(self) -> None:
        """Prevent the callback from firing.  Idempotent."""
        if self.cancelled:
            return
        self.cancelled = True
        if self._sim is not None:
            self._sim._live -= 1
            self._sim = None

    def __lt__(self, other: "Event") -> bool:
        if self.time != other.time:
            return self.time < other.time
        return self.seq < other.seq

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "cancelled" if self.cancelled else "pending"
        name = getattr(self.callback, "__name__", repr(self.callback))
        return f"<Event t={self.time:.6f} {name} [{state}]>"


class Simulator:
    """Discrete-event simulator with a float clock in seconds.

    Parameters
    ----------
    start_time:
        Initial value of the simulated clock.
    """

    def __init__(self, start_time: float = 0.0):
        self.now: float = float(start_time)
        self._queue: List[Event] = []
        self._seq = 0
        self._live = 0
        self._running = False
        self._stopped = False
        self._events_executed = 0
        self._current_event: Optional[Event] = None

    # ------------------------------------------------------------------
    # scheduling
    # ------------------------------------------------------------------
    def schedule(self, delay: float, callback: Callable[..., Any],
                 *args: Any) -> Event:
        """Schedule ``callback(*args)`` to run ``delay`` seconds from now.

        ``delay`` must be non-negative; a zero delay fires after all
        events already scheduled for the current instant.
        """
        if delay < 0:
            raise SimulationError(f"cannot schedule in the past (delay={delay})")
        return self.schedule_at(self.now + delay, callback, *args)

    def schedule_at(self, time: float, callback: Callable[..., Any],
                    *args: Any) -> Event:
        """Schedule ``callback(*args)`` at absolute simulated ``time``."""
        if time < self.now:
            raise SimulationError(
                f"cannot schedule at t={time} < now={self.now}")
        event = Event(float(time), self._seq, callback, args, sim=self)
        self._seq += 1
        self._live += 1
        heapq.heappush(self._queue, event)
        return event

    def cancel(self, event: Optional[Event]) -> None:
        """Cancel an event if it is not ``None``.  Idempotent."""
        if event is not None:
            event.cancel()

    # ------------------------------------------------------------------
    # execution
    # ------------------------------------------------------------------
    @property
    def pending_events(self) -> int:
        """Number of live (non-cancelled) events still queued.

        O(1): a counter maintained on schedule/cancel/pop, instead of
        scanning the heap.
        """
        return self._live

    def clock(self) -> float:
        """The simulated time: a picklable stand-in for ``lambda: sim.now``.

        Components that only read the time (the chip) take this bound
        method, so a built system stays picklable.
        """
        return self.now

    @property
    def events_executed(self) -> int:
        """Total callbacks executed since construction."""
        return self._events_executed

    @property
    def current_event(self) -> Optional[Event]:
        """The event whose callback is executing right now (else ``None``).

        Uniform across :meth:`run`, :meth:`run_until` and externally
        driven :meth:`step` loops, so callees can tell an in-simulation
        caller (and its :attr:`Event.category`) from an external one.
        """
        return self._current_event

    def peek_time(self) -> Optional[float]:
        """Timestamp of the next live event, or ``None`` if queue is empty."""
        self._drop_cancelled()
        if not self._queue:
            return None
        return self._queue[0].time

    def peek_event(self) -> Optional[Event]:
        """The next live event itself, or ``None`` if the queue is empty.

        Lets external drivers (the lockstep campaign backend) execute
        events one at a time *up to* a known event — e.g. a thermal
        sensor tick — without firing it, so work common to many
        simulators can be batched at that point.
        """
        self._drop_cancelled()
        return self._queue[0] if self._queue else None

    def peek_time_excluding(self, event: Optional[Event] = None,
                            category: Optional[Any] = None,
                            ) -> Optional[float]:
        """Timestamp of the next live event, skipping some events.

        The query hook behind slice coalescing: a scheduler planning a
        long uninterruptible stretch asks "when is the next event that
        is *not* slice machinery?" to bound its horizon.  ``event``
        skips one specific event (it may be ``None`` or no longer
        queued); ``category`` — a tag string or a collection of them —
        skips every event carrying a matching :attr:`Event.category`
        tag.  That form scans the queue (O(n)), which the caller
        amortizes over the window it opens.
        """
        self._drop_cancelled()
        if not self._queue:
            return None
        if category is None:
            head = self._queue[0]
            if head is not event:
                return head.time
            # The excluded event is the head: look one live event past.
            heapq.heappop(self._queue)
            self._drop_cancelled()
            time = self._queue[0].time if self._queue else None
            heapq.heappush(self._queue, head)
            return time
        excluded = (category,) if isinstance(category, str) else category
        best: Optional[float] = None
        for queued in self._queue:
            if queued.cancelled or queued is event \
                    or queued.category in excluded:
                continue
            if best is None or queued.time < best:
                best = queued.time
        return best

    def step(self) -> bool:
        """Execute the single next event.  Returns False when none remain."""
        self._drop_cancelled()
        if not self._queue:
            return False
        self._execute(heapq.heappop(self._queue))
        return True

    def run(self, max_events: Optional[int] = None) -> None:
        """Run until the queue is exhausted (or ``max_events`` executed)."""
        self._guard_reentrancy()
        try:
            executed = 0
            while not self._stopped:
                if max_events is not None and executed >= max_events:
                    break
                if not self.step():
                    break
                executed += 1
        finally:
            self._running = False
            self._stopped = False

    def run_until(self, time: float) -> None:
        """Run all events with timestamp <= ``time``; set clock to ``time``.

        The clock always ends at exactly ``time`` even if the queue ran
        dry earlier, so periodic observers outside the kernel can rely on
        a full interval having elapsed.
        """
        if time < self.now:
            raise SimulationError(
                f"cannot run backwards to t={time} from now={self.now}")
        self._guard_reentrancy()
        queue = self._queue
        previous = self._current_event
        try:
            while not self._stopped:
                # One heap touch per iteration: the head inspected here
                # is the event executed, instead of peek_time()/step()
                # each independently dropping cancelled heads.
                self._drop_cancelled()
                if not queue or queue[0].time > time:
                    break
                # :meth:`_execute`, inline: nothing runs between two
                # events, so restoring ``_current_event`` once on the
                # way out is the same as after every callback.
                event = heapq.heappop(queue)
                self._live -= 1
                event._sim = None
                self.now = event.time
                self._events_executed += 1
                self._current_event = event
                event.callback(*event.args)
            self.now = max(self.now, float(time))
        finally:
            self._current_event = previous
            self._running = False
            self._stopped = False

    def stop(self) -> None:
        """Request the current :meth:`run` / :meth:`run_until` to return."""
        self._stopped = True

    # ------------------------------------------------------------------
    # internals
    # ------------------------------------------------------------------
    def _guard_reentrancy(self) -> None:
        if self._running:
            raise SimulationError("simulator is already running (reentrant run)")
        self._running = True

    def _drop_cancelled(self) -> None:
        while self._queue and self._queue[0].cancelled:
            heapq.heappop(self._queue)

    def _execute(self, event: Event) -> None:
        """Run an event already popped off the heap (known live head)."""
        self._live -= 1
        event._sim = None          # no longer queued; a late cancel()
        self.now = event.time      # must not touch the counter
        self._events_executed += 1
        previous = self._current_event
        self._current_event = event
        try:
            event.callback(*event.args)
        finally:
            self._current_event = previous

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"<Simulator now={self.now:.6f} pending={self.pending_events} "
                f"executed={self._events_executed}>")
