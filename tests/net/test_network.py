"""Unit tests for the simulated network fabric."""

from repro.net.latency import ConstantLatency, UniformLatency
from repro.net.network import SimNetwork
from repro.net.simclock import EventScheduler
from tests.conftest import each_message


class Box:
    def __init__(self):
        self.received = []

    def handler(self, src, message):
        self.received.append((src, message))


def make_net(latency=None):
    clock = EventScheduler()
    net = SimNetwork(clock, latency or ConstantLatency(1.0))
    boxes = {}
    for pid in ("a", "b", "c"):
        box = Box()
        net.register(pid, each_message(box.handler))
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
    net.core.partition([["a"], ["b", "c"]])
    net.send("a", "b", "m")
    assert net.core.in_flight == 0 and net.channel("a", "b") == []
    clock.run()
    assert boxes["b"].received == []


def test_partition_bounces_in_flight_messages():
    clock, net, boxes = make_net()
    net.set_reliable("a", {"a", "b"})
    net.send("a", "b", "m1")
    net.send("a", "b", "m2")
    net.core.partition([["a"], ["b"]])
    # Accounted as bounced and held for the heal, in channel order.
    assert net.core.stats.bounced == {"str": 2}
    assert net.channel("a", "b") == ["m1", "m2"]
    clock.run()
    assert boxes["b"].received == []


def test_heal_restores_connectivity():
    clock, net, boxes = make_net()
    net.core.partition([["a"], ["b"]])
    net.core.heal()
    net.send("a", "b", "m")
    clock.run()
    assert boxes["b"].received == [("a", "m")]


def test_connectivity_queries():
    _clock, net, _boxes = make_net()
    net.core.partition([["a", "b"], ["c"]])
    assert net.core.connected("a", "b")
    assert not net.core.connected("a", "c")
    assert net.core.reachable_from("a") == {"a", "b"}


def test_topology_listeners_notified():
    _clock, net, _boxes = make_net()
    calls = []
    net.core.on_topology_change(lambda: calls.append(1))
    net.core.partition([["a"], ["b", "c"]])
    net.core.heal()
    assert len(calls) == 2


def test_message_kind_counters():
    clock, net, _boxes = make_net()
    net.send("a", "b", "text")
    net.send("a", "c", 42)
    clock.run()
    assert net.core.stats.sent == {"str": 1, "int": 1}
    assert net.core.stats.delivered == {"str": 1, "int": 1}
    net.core.reset_counters()
    assert net.core.totals() == {}


def test_bounce_counter():
    _clock, net, _boxes = make_net()
    net.send("a", "b", "m")
    net.core.partition([["a"], ["b"]])
    assert net.core.stats.bounced == {"str": 1}


def test_unmentioned_processes_join_group_zero():
    _clock, net, _boxes = make_net()
    net.core.partition([["a"]])
    assert net.core.connected("b", "c")
    assert not net.core.connected("a", "b")


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
    count: one copy held plus two deliveries from two sends).
    """
    clock = EventScheduler()
    # Chosen so that 16.83604827991613 + (57.98945040232396 - 16.83604827991613)
    # == 57.98945040232395 < 57.98945040232396: the second send's event
    # fires before the first's despite the per-link FIFO arrival clamp.
    t_second = 16.83604827991613
    latency_first = 57.98945040232396
    net = SimNetwork(clock, _ScriptedLatency([latency_first, 1.0]))
    received = []
    net.register("a", lambda run: None)
    net.set_reliable("a", {"a", "b"})

    def on_b(src, m):
        received.append(m)
        if len(received) == 1:  # partition the instant the first copy lands
            net.core.partition([["a"], ["b"]])

    net.register("b", each_message(on_b))
    message = ("payload",)
    net.send("a", "b", message)
    clock.schedule(t_second, lambda: net.send("a", "b", message))
    clock.run()
    # The clamp puts the second carrier at the first's exact arrival, so
    # both land at one instant, as one run of two carriers (each popped
    # by its own in-flight entry): both copies are delivered before the
    # cut, none is held or counted twice.
    assert received == [message, message]
    assert net.channel("a", "b") == []
    assert not any(net._in_flight.values())
    # Nothing crosses the cut afterwards: the next copy is held.
    net.send("a", "b", message)
    clock.run()
    assert received == [message, message]
    assert net.channel("a", "b") == [message]
    assert not any(net._in_flight.values())
