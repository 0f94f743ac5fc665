"""A minimal discrete-event simulation engine.

The slotted simulator covers everything the paper evaluates, but the physics
layer (attempt-level generation, swapping, decoherence) is naturally
event-driven; this engine lets the event-driven backend
(:mod:`repro.simulation.eventsim`), examples and tests compose those pieces
into protocol-level simulations without pulling in an external framework.
It is a standard priority-queue design: events carry a timestamp, a
deterministic tie-breaking sequence number and a callback, and support lazy
cancellation, repeating timers and incremental stepping via
:meth:`EventLoop.run_until`.
"""

from __future__ import annotations

import heapq
import itertools
from dataclasses import dataclass, field
from typing import Any, Callable, List, Optional

from repro.utils.validation import check_non_negative, check_positive

EventCallback = Callable[["EventLoop", "Event"], None]


@dataclass(frozen=True, order=True)
class Event:
    """A scheduled event: a timestamp, a tie-breaker and a callback.

    Ordering compares ``(time, sequence)`` only — ``name``, ``callback`` and
    ``payload`` are explicitly excluded (``compare=False``) so two events at
    the same time never fall through to comparing callbacks (which would
    raise for ``None`` or arbitrary callables); ties always break FIFO on
    the queue-assigned sequence number.

    ``cancelled``/``done`` are bookkeeping flags owned by :class:`EventQueue`
    (lazy deletion): a cancelled event stays in the heap but is skipped when
    it surfaces, and a popped event is marked done so a late ``cancel`` call
    cannot corrupt the queue's length accounting.
    """

    time: float
    sequence: int
    name: str = field(compare=False, default="event")
    callback: Optional[EventCallback] = field(compare=False, default=None)
    payload: Any = field(compare=False, default=None)
    cancelled: bool = field(compare=False, default=False)
    done: bool = field(compare=False, default=False)

    @property
    def active(self) -> bool:
        """Whether the event is still pending (not cancelled, not processed)."""
        return not self.cancelled and not self.done

    def _mark_cancelled(self) -> None:
        object.__setattr__(self, "cancelled", True)

    def _mark_done(self) -> None:
        object.__setattr__(self, "done", True)


class EventQueue:
    """A time-ordered event queue with stable FIFO tie-breaking.

    Cancellation uses lazy deletion: :meth:`cancel` only flags the event, and
    cancelled entries are discarded when they reach the top of the heap, so
    cancelling is O(1) and ``len(queue)`` always counts live events.
    """

    def __init__(self) -> None:
        self._heap: List[Event] = []
        self._counter = itertools.count()
        self._active = 0

    def __len__(self) -> int:
        return self._active

    def push(
        self,
        time: float,
        name: str = "event",
        callback: Optional[EventCallback] = None,
        payload: Any = None,
    ) -> Event:
        """Schedule an event at ``time`` and return it."""
        check_non_negative(time, "time")
        event = Event(
            time=float(time),
            sequence=next(self._counter),
            name=name,
            callback=callback,
            payload=payload,
        )
        heapq.heappush(self._heap, event)
        self._active += 1
        return event

    def cancel(self, event: Event) -> bool:
        """Cancel a pending event; returns whether it was still pending."""
        if not event.active:
            return False
        event._mark_cancelled()
        self._active -= 1
        return True

    def pop(self) -> Event:
        """Remove and return the earliest live event (``IndexError`` if empty)."""
        while self._heap:
            event = heapq.heappop(self._heap)
            if event.cancelled:
                continue
            event._mark_done()
            self._active -= 1
            return event
        raise IndexError("pop from an empty event queue")

    def peek(self) -> Optional[Event]:
        """The earliest live event without removing it (``None`` if empty)."""
        while self._heap and self._heap[0].cancelled:
            heapq.heappop(self._heap)
        return self._heap[0] if self._heap else None


class Timer:
    """A repeating timer: fires ``callback`` every ``interval`` seconds.

    Created via :meth:`EventLoop.schedule_repeating`.  The timer re-arms
    itself *before* invoking the callback, so a callback may cancel its own
    timer to stop the repetition.
    """

    def __init__(
        self,
        loop: "EventLoop",
        interval: float,
        name: str,
        callback: Optional[EventCallback],
        first: float,
    ) -> None:
        check_positive(interval, "interval")
        self._loop = loop
        self.interval = float(interval)
        self.name = name
        self.callback = callback
        self.fires = 0
        self.cancelled = False
        self.event: Optional[Event] = loop.schedule_at(first, name=name, callback=self._fire)

    def cancel(self) -> bool:
        """Stop the timer; returns whether it was still armed."""
        if self.cancelled:
            return False
        self.cancelled = True
        if self.event is not None:
            self._loop.cancel(self.event)
            self.event = None
        return True

    def _fire(self, loop: "EventLoop", event: Event) -> None:
        self.fires += 1
        # Re-arm first so the callback can observe (and cancel) the next firing.
        self.event = loop.schedule(self.interval, name=self.name, callback=self._fire)
        if self.callback is not None:
            self.callback(loop, event)


class EventLoop:
    """Runs callbacks in event-time order.

    Callbacks receive the loop (so they can schedule follow-up events) and
    the event itself.  The simulation stops when the queue empties, when
    ``until`` is reached, or when ``max_events`` events have been processed.
    :meth:`run_until` additionally advances the clock to the target time even
    when future events remain pending, which is what slot-stepping callers
    (the :class:`~repro.simulation.eventsim.SlotBridge`) need.
    """

    def __init__(self) -> None:
        self.queue = EventQueue()
        self._now = 0.0
        self._processed = 0

    @property
    def now(self) -> float:
        """The current simulation time."""
        return self._now

    @property
    def events_processed(self) -> int:
        """Number of events processed so far."""
        return self._processed

    def schedule(
        self,
        delay: float,
        name: str = "event",
        callback: Optional[EventCallback] = None,
        payload: Any = None,
    ) -> Event:
        """Schedule an event ``delay`` seconds after the current time."""
        check_non_negative(delay, "delay")
        return self.queue.push(self._now + delay, name=name, callback=callback, payload=payload)

    def schedule_at(
        self,
        time: float,
        name: str = "event",
        callback: Optional[EventCallback] = None,
        payload: Any = None,
    ) -> Event:
        """Schedule an event at absolute ``time`` (must not be in the past)."""
        if time < self._now:
            raise ValueError(f"cannot schedule in the past ({time} < {self._now})")
        return self.queue.push(time, name=name, callback=callback, payload=payload)

    def schedule_repeating(
        self,
        interval: float,
        name: str = "timer",
        callback: Optional[EventCallback] = None,
        first: Optional[float] = None,
    ) -> Timer:
        """Create a repeating timer firing every ``interval`` seconds.

        The first firing defaults to ``now + interval``; pass ``first`` (an
        absolute time) to align the timer with an external schedule, e.g.
        slot boundaries.
        """
        start = self._now + interval if first is None else float(first)
        return Timer(self, interval, name=name, callback=callback, first=start)

    def cancel(self, event: Event) -> bool:
        """Cancel a pending event; returns whether it was still pending."""
        return self.queue.cancel(event)

    def run(self, until: Optional[float] = None, max_events: Optional[int] = None) -> int:
        """Process events in order; returns the number of events processed.

        Events stamped exactly at ``until`` are processed; the clock only
        advances to ``until`` itself when the queue drains first (use
        :meth:`run_until` to advance unconditionally).
        """
        processed_before = self._processed
        while len(self.queue) > 0:
            if max_events is not None and self._processed - processed_before >= max_events:
                break
            next_event = self.queue.peek()
            assert next_event is not None
            if until is not None and next_event.time > until:
                break
            event = self.queue.pop()
            self._now = event.time
            self._processed += 1
            if event.callback is not None:
                event.callback(self, event)
        if until is not None and self._now < until and len(self.queue) == 0:
            self._now = until
        return self._processed - processed_before

    def run_until(self, time: float) -> int:
        """Process every event stamped ``<= time`` and advance the clock to it.

        Unlike ``run(until=...)``, the clock always ends at ``time`` (never
        before), even when later events remain pending — this is the stepping
        primitive used to walk the simulation slot by slot.
        """
        processed = self.run(until=time)
        if self._now < time:
            self._now = time
        return processed

