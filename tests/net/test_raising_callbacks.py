"""A raising callback leaves the simulator consistent.

The clock counts every callback that returned, also when a later one
raises; and when a destination's handler raises at an arrival instant,
the instant's later destinations still get their runs before the error
goes up, so settling again finds nothing stranded in flight.
"""

from __future__ import annotations

import pytest

from repro.core.messages import SyncMsg
from repro.net.latency import ConstantLatency
from repro.net.simclock import EventScheduler
from repro.net.world import SimWorld


@pytest.mark.parametrize("max_events", [None, 10])
def test_executed_counts_the_callbacks_before_a_raise(max_events):
    clock = EventScheduler()
    ran = []

    def fail():
        raise RuntimeError("callback")

    clock.schedule(1.0, lambda: ran.append(1))
    clock.schedule(2.0, fail)
    clock.schedule(3.0, lambda: ran.append(3))
    with pytest.raises(RuntimeError, match="callback"):
        clock.run(max_events)
    assert (ran, clock.executed, clock.now) == ([1], 1, 2.0)
    assert clock.run(max_events) == 1
    assert (ran, clock.executed) == ([1, 3], 2)


@pytest.mark.parametrize("victim", ["a", "b", "c"])
def test_a_raising_input_strands_no_later_destination(victim):
    """One g1 end-point raises on the first sync of a leave; the
    instant's later destinations get their copies before the error goes
    up, and settling again leaves nothing in flight."""
    pids = ["a", "b", "c", "d"]
    world = SimWorld(latency=ConstantLatency(1.0), servers=1)
    world.add_processes(pids)
    for group in ("g1", "g2"):
        world.set_group(group, pids)
    world.settle()
    node = world.node(victim, "g1")
    dispatch = node.dispatch
    raised = []

    def raising_dispatch(src, message):
        if isinstance(message, SyncMsg) and not raised:
            raised.append(src)
            raise RuntimeError("input hook")
        dispatch(src, message)

    node.dispatch = raising_dispatch
    world.leave("d", "g1")
    world.leave("d", "g2")
    with pytest.raises(RuntimeError, match="input hook"):
        world.settle()
    assert raised
    # every carrier still in flight has an event left to deliver it
    flights = world.network._in_flight.values()
    assert all(arrival.event is not None for flight in flights for arrival, _carrier in flight)
    world.settle()
    assert world.links.in_flight == 0
