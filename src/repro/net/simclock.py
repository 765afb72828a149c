"""Deterministic discrete-event clock.

A tiny event-driven scheduler: callbacks are executed in timestamp order
(FIFO among equal timestamps, by insertion sequence), and the clock jumps
from event to event.  Everything in :mod:`repro.net` - message
deliveries, failure-detector timeouts, membership rounds, fault
injections - runs on one of these, which makes simulated runs exactly
reproducible.
"""

from __future__ import annotations

import heapq
import itertools
import sys
from typing import Callable, List, Optional, Tuple


class ScheduledEvent:
    """Handle returned by :meth:`EventScheduler.schedule`; cancellable.

    The heap holds ``(time, seq, event)`` tuples, so ordering is decided
    by C tuple comparison (``seq`` is unique: the event itself is never
    compared) instead of a generated ``__lt__`` per sift step.
    """

    __slots__ = ("time", "callback", "cancelled", "_scheduler")

    def __init__(self, time: float, callback: Callable[[], None], scheduler: "EventScheduler") -> None:
        self.time = time
        self.callback = callback
        self.cancelled = False
        self._scheduler = scheduler

    def cancel(self) -> None:
        if not self.cancelled:
            self.cancelled = True
            self._scheduler.note_cancelled()


class EventScheduler:
    """A timestamp-ordered callback queue with a virtual clock."""

    def __init__(self) -> None:
        self.now = 0.0
        self._heap: List[Tuple[float, int, ScheduledEvent]] = []
        self._seq = itertools.count()
        self.executed = 0
        self._cancelled = 0  # cancelled entries still parked in the heap

    def schedule(self, delay: float, callback: Callable[[], None]) -> ScheduledEvent:
        """Run ``callback`` at ``now + delay`` (delay must be >= 0)."""
        if delay < 0:
            raise ValueError(f"negative delay {delay}")
        return self._push(self.now + delay, callback)

    def schedule_at(self, time: float, callback: Callable[[], None]) -> ScheduledEvent:
        """Run ``callback`` at exactly ``time`` (or now, if that is past).

        The entry carries the absolute time: ``now + (time - now)`` is
        not ``time`` in floating point, and an arrival the link core
        clamped to an earlier carrier's must not land one ulp before it.
        """
        return self._push(max(time, self.now), callback)

    def _push(self, time: float, callback: Callable[[], None]) -> ScheduledEvent:
        event = ScheduledEvent(time, callback, self)
        heapq.heappush(self._heap, (time, next(self._seq), event))
        return event

    def note_cancelled(self) -> None:
        """Account one cancelled-in-place entry; compact when they dominate.

        Cancelled entries normally die lazily at pop time, which is fine
        until a workload cancels faster than it pops (per-client timers
        across a thousand-member reconfiguration): the heap then carries
        a majority of dead weight and every push/pop pays log of it.
        """
        self._cancelled += 1
        if self._cancelled > 64 and self._cancelled * 2 > len(self._heap):
            self._heap = [item for item in self._heap if not item[2].cancelled]
            heapq.heapify(self._heap)
            self._cancelled = 0

    def pending(self) -> int:
        return sum(1 for _time, _seq, event in self._heap if not event.cancelled)

    def step(self) -> bool:
        """Execute the next event; return False when the queue is empty."""
        heap = self._heap
        while heap:
            time, _seq, event = heapq.heappop(heap)
            if event.cancelled:
                self._cancelled -= 1
                continue
            self.now = time
            event.callback()
            self.executed += 1
            return True
        return False

    def run(self, max_events: Optional[int] = None) -> int:
        """Run until the queue drains (or ``max_events``); return count.

        The pop loop is inlined: a settle drains up to millions of events
        and the per-event ``step()`` dispatch (call + bound-method
        rebinds) is measurable against the callback itself.  ``executed``
        counts every callback that returned, also when a later one raises.
        """
        limit = sys.maxsize if max_events is None else max_events
        count = 0
        pop = heapq.heappop
        try:
            while count < limit:
                heap = self._heap  # re-read: compaction may swap the list
                if not heap:
                    break
                time, _seq, event = pop(heap)
                if event.cancelled:
                    self._cancelled -= 1
                    continue
                self.now = time
                event.callback()
                count += 1
        finally:
            self.executed += count
        return count

    def run_until(self, time: float) -> int:
        """Run events with timestamps <= ``time``; advance the clock to it."""
        count = 0
        while self._heap:
            due, _seq, event = self._heap[0]
            if event.cancelled:
                heapq.heappop(self._heap)
                self._cancelled -= 1
                continue
            if due > time:
                break
            self.step()
            count += 1
        self.now = max(self.now, time)
        return count
