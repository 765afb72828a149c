"""Unit tests for the simulated network fabric."""

import pytest

from repro.net.latency import ConstantLatency, UniformLatency
from repro.net.network import SimNetwork
from repro.net.simclock import EventScheduler


class Box:
    def __init__(self):
        self.received = []
        self.bounced = []

    def handler(self, src, message):
        self.received.append((src, message))

    def bounce(self, dst, message):
        self.bounced.append((dst, message))


def make_net(latency=None):
    clock = EventScheduler()
    net = SimNetwork(clock, latency or ConstantLatency(1.0))
    boxes = {}
    for pid in ("a", "b", "c"):
        box = Box()
        net.register(pid, box.handler, box.bounce)
        boxes[pid] = box
    return clock, net, boxes


def test_delivery_after_latency():
    clock, net, boxes = make_net(ConstantLatency(2.5))
    net.send("a", "b", "m")
    clock.run_until(2.0)
    assert boxes["b"].received == []
    clock.run()
    assert boxes["b"].received == [("a", "m")]
    assert clock.now == 2.5


def test_per_link_fifo_with_jitter():
    clock, net, boxes = make_net(UniformLatency(0.1, 5.0, seed=3))
    for i in range(20):
        net.send("a", "b", i)
    clock.run()
    assert [m for _s, m in boxes["b"].received] == list(range(20))


def test_partition_blocks_new_sends():
    clock, net, boxes = make_net()
    net.partition([["a"], ["b", "c"]])
    assert not net.send("a", "b", "m")
    clock.run()
    assert boxes["b"].received == []


def test_partition_bounces_in_flight_messages():
    clock, net, boxes = make_net()
    net.send("a", "b", "m1")
    net.send("a", "b", "m2")
    net.partition([["a"], ["b"]])
    assert boxes["a"].bounced == [("b", "m1"), ("b", "m2")]
    clock.run()
    assert boxes["b"].received == []


def test_heal_restores_connectivity():
    clock, net, boxes = make_net()
    net.partition([["a"], ["b"]])
    net.heal()
    assert net.send("a", "b", "m")
    clock.run()
    assert boxes["b"].received == [("a", "m")]


def test_connectivity_queries():
    _clock, net, _boxes = make_net()
    net.partition([["a", "b"], ["c"]])
    assert net.connected("a", "b")
    assert not net.connected("a", "c")
    assert net.reachable_from("a") == {"a", "b"}


def test_topology_listeners_notified():
    _clock, net, _boxes = make_net()
    calls = []
    net.on_topology_change(lambda: calls.append(1))
    net.partition([["a"], ["b", "c"]])
    net.heal()
    assert len(calls) == 2


def test_message_kind_counters():
    clock, net, _boxes = make_net()
    net.send("a", "b", "text")
    net.send("a", "c", 42)
    clock.run()
    assert net.core.stats.sent == {"str": 1, "int": 1}
    assert net.core.stats.delivered == {"str": 1, "int": 1}
    net.reset_counters()
    assert net.totals() == {}


def test_bounce_counter():
    _clock, net, _boxes = make_net()
    net.send("a", "b", "m")
    net.partition([["a"], ["b"]])
    assert net.core.stats.bounced == {"str": 1}


def test_unmentioned_processes_join_group_zero():
    _clock, net, _boxes = make_net()
    net.partition([["a"]])
    assert net.connected("b", "c")
    assert not net.connected("a", "b")


class _ScriptedLatency:
    """Returns a scripted sequence of latency samples."""

    def __init__(self, values):
        self._values = list(values)

    def sample(self, src, dst):
        return self._values.pop(0)


def test_inflight_entry_keyed_by_event_not_message_identity():
    """Regression: the same message object sent twice on one link.

    ``schedule_at`` converts an absolute arrival back to a delay, and the
    float round-trip ``now + (arrival - now)`` can land strictly below
    ``arrival`` - so the second copy's delivery event fires just before
    the first copy's.  When in-flight bookkeeping matched entries by
    message identity, that early delivery popped the *first* copy's
    entry; a partition struck next could then neither find nor cancel the
    first delivery event, letting the message cross the cut (and double
    count: one bounce plus two deliveries from two sends).
    """
    clock = EventScheduler()
    # Chosen so that 16.83604827991613 + (57.98945040232396 - 16.83604827991613)
    # == 57.98945040232395 < 57.98945040232396: the second send's event
    # fires before the first's despite the per-link FIFO arrival clamp.
    t_second = 16.83604827991613
    latency_first = 57.98945040232396
    net = SimNetwork(clock, _ScriptedLatency([latency_first, 1.0]))
    received, bounced = [], []
    net.register("a", lambda src, m: None, lambda dst, m: bounced.append(m))

    def on_b(src, m):
        received.append(m)
        if len(received) == 1:  # partition the instant the first copy lands
            net.partition([["a"], ["b"]])

    net.register("b", on_b)
    message = ("payload",)
    net.send("a", "b", message)
    clock.schedule(t_second, lambda: net.send("a", "b", message))
    clock.run()
    # Exactly one copy is delivered (before the cut) and exactly one is
    # bounced back by the partition; nothing crosses the cut afterwards.
    assert received == [message]
    assert bounced == [message]
    assert not any(net._in_flight.values())
