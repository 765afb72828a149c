"""Unit tests for the discrete-event clock."""

import pytest

from repro.net.simclock import EventScheduler


def test_events_run_in_time_order():
    clock = EventScheduler()
    order = []
    clock.schedule(3.0, lambda: order.append("c"))
    clock.schedule(1.0, lambda: order.append("a"))
    clock.schedule(2.0, lambda: order.append("b"))
    clock.run()
    assert order == ["a", "b", "c"]
    assert clock.now == 3.0


def test_fifo_among_equal_timestamps():
    clock = EventScheduler()
    order = []
    for name in "abc":
        clock.schedule(1.0, lambda n=name: order.append(n))
    clock.run()
    assert order == ["a", "b", "c"]


def test_negative_delay_rejected():
    with pytest.raises(ValueError):
        EventScheduler().schedule(-1.0, lambda: None)


def test_cancel_prevents_execution():
    clock = EventScheduler()
    fired = []
    event = clock.schedule(1.0, lambda: fired.append(1))
    event.cancel()
    clock.run()
    assert fired == []
    assert event.cancelled


def test_nested_scheduling_during_run():
    clock = EventScheduler()
    order = []

    def outer():
        order.append("outer")
        clock.schedule(1.0, lambda: order.append("inner"))

    clock.schedule(1.0, outer)
    clock.run()
    assert order == ["outer", "inner"]
    assert clock.now == 2.0


def test_run_until_stops_at_boundary():
    clock = EventScheduler()
    fired = []
    clock.schedule(1.0, lambda: fired.append(1))
    clock.schedule(5.0, lambda: fired.append(5))
    clock.run_until(2.0)
    assert fired == [1]
    assert clock.now == 2.0
    clock.run()
    assert fired == [1, 5]


def test_run_max_events():
    clock = EventScheduler()
    for _ in range(10):
        clock.schedule(1.0, lambda: None)
    assert clock.run(max_events=4) == 4
    assert clock.pending() == 6


def test_schedule_at_absolute_time():
    clock = EventScheduler()
    clock.schedule(2.0, lambda: None)
    clock.run()
    fired = []
    clock.schedule_at(1.0, lambda: fired.append("past"))  # clamped to now
    clock.run()
    assert fired == ["past"]
    assert clock.now == 2.0


def test_schedule_at_is_exact_whatever_now_is():
    """Two events for one absolute instant, scheduled from different
    ``now``s, fire at that instant in scheduling order.  Rebuilding the
    time as ``now + (t - now)`` puts the second one ulp *before* the
    first here (3.697943322009309 vs ...094), so it would overtake."""
    clock = EventScheduler()
    instant = 3.697943322009309
    fired = []

    def at(now, label):
        clock.schedule_at(now, lambda: clock.schedule_at(
            instant, lambda: fired.append((label, clock.now))
        ))

    at(1.3856305324007578, "first")
    at(2.4006471237002183, "second")
    clock.run()
    assert fired == [("first", instant), ("second", instant)]


def test_executed_counter():
    clock = EventScheduler()
    clock.schedule(1.0, lambda: None)
    clock.schedule(2.0, lambda: None)
    clock.run()
    assert clock.executed == 2


def test_equal_timestamps_stay_fifo_across_schedule_and_schedule_at():
    """The heap orders (time, seq, event) tuples: among equal times the
    insertion sequence decides, whichever call queued the event - and the
    events themselves (not comparable) are never compared."""
    clock = EventScheduler()
    order = []
    for index in range(200):  # a view install queues n(n-1) arrivals at one instant
        if index % 2:
            clock.schedule(5.0, lambda i=index: order.append(i))
        else:
            clock.schedule_at(5.0, lambda i=index: order.append(i))
    clock.schedule(1.0, lambda: order.append("early"))
    clock.run()
    assert order == ["early"] + list(range(200))
    assert clock.now == 5.0


def test_cancelled_events_are_compacted_and_never_fire():
    clock = EventScheduler()
    fired = []
    events = [clock.schedule(1.0 + i % 3, lambda i=i: fired.append(i)) for i in range(300)]
    for event in events[:200]:
        event.cancel()
        event.cancel()  # idempotent: counted once
    assert all(event.cancelled for event in events[:200])
    assert clock.pending() == 100
    assert len(clock._heap) < 300  # dead weight was compacted, not just skipped
    late = clock.schedule(9.0, lambda: fired.append("late"))
    assert late.time == 9.0
    clock.run()
    survivors = sorted(range(200, 300), key=lambda i: (1.0 + i % 3, i))
    assert fired == survivors + ["late"]
    assert clock.pending() == 0 and clock.executed == 101
