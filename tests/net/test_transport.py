"""The simulator's CO_RFIFO transport service: ``SimNetwork``'s reliable
sets, crash state and held queues, and ``SimWorld``'s fan-out over them."""

from repro.chaos.faults import DuplicateCopy, FaultInjector, FaultModel
from repro.membership.protocol import ViewNotice
from repro.net.latency import ConstantLatency
from repro.net.network import SimNetwork
from repro.net.simclock import EventScheduler
from repro.net.world import SimWorld
from tests.conftest import each_message


def make_world(faults=None):
    clock = EventScheduler()
    net = SimNetwork(clock, ConstantLatency(1.0), faults)
    inboxes = {}
    for pid in ("a", "b"):
        inboxes[pid] = []
        net.register(pid, each_message(lambda src, m, box=inboxes[pid]: box.append((src, m))))
    return clock, net, inboxes


def test_multicast_excludes_self():
    world = SimWorld(latency=ConstantLatency(1.0))
    inboxes = {pid: [] for pid in ("a", "b")}
    for pid, box in inboxes.items():
        world.attach(pid, each_message(lambda src, m, box=box: box.append((src, m))))
    world.send("a", {"a", "b"}, "m")
    world.run()
    assert inboxes["b"] == [("a", "m")]
    assert inboxes["a"] == []


def test_fifo_across_partition_heal_for_reliable_peer():
    clock, net, inboxes = make_world()
    net.set_reliable("a", {"a", "b"})
    net.send("a", "b", "m1")
    net.core.partition([["a"], ["b"]])  # m1's carrier is cut: the original is held
    net.send("a", "b", "m2")  # held behind it
    clock.run()
    assert inboxes["b"] == []
    assert net.channel("a", "b") == ["m1", "m2"]
    net.core.heal()
    clock.run()
    assert [m for _s, m in inboxes["b"]] == ["m1", "m2"]


def test_unreliable_peer_suffix_lost_on_partition():
    clock, net, inboxes = make_world()
    # default reliable set is {a} only
    net.send("a", "b", "m1")
    net.core.partition([["a"], ["b"]])
    net.send("a", "b", "m2")
    net.core.heal()
    clock.run()
    assert inboxes["b"] == []  # both lost: CO_RFIFO.lose was allowed
    assert net.core.stats.bounced == {"str": 1}  # m1 died on the wire
    assert net.core.in_flight == 0


def test_set_reliable_drops_disconnected_backlog():
    clock, net, inboxes = make_world()
    net.set_reliable("a", {"a", "b"})
    net.core.partition([["a"], ["b"]])
    net.send("a", "b", "m1")
    assert net.channel("a", "b") == ["m1"]
    net.set_reliable("a", {"a"})
    assert net.channel("a", "b") == []
    net.core.heal()
    clock.run()
    assert inboxes["b"] == []


def test_backlog_kept_for_connected_peer_regardless_of_reliability():
    clock, net, inboxes = make_world()
    net.send("a", "b", "m1")
    clock.run()
    assert [m for _s, m in inboxes["b"]] == ["m1"]


def test_crash_drops_queues_and_mutes_delivery():
    clock, net, inboxes = make_world()
    net.set_reliable("a", {"a", "b"})
    net.core.partition([["a"], ["b"]])
    net.send("a", "b", "m1")
    net.crash("a")
    assert net.channel("a", "b") == []
    assert net.reliable_set("a") == frozenset()
    net.core.heal()
    net.send("a", "b", "from-crashed")  # a crashed process says nothing
    net.send("b", "a", "to-crashed")
    clock.run()
    assert inboxes["a"] == []  # crashed process swallows deliveries
    assert inboxes["b"] == []


def test_recover_restores_sending():
    clock, net, inboxes = make_world()
    net.crash("a")
    net.recover("a")
    assert net.reliable_set("a") == {"a"}
    net.send("a", "b", "m")
    clock.run()
    assert inboxes["b"] == [("a", "m")]


def test_send_while_disconnected_then_heal_preserves_order_with_live_traffic():
    clock, net, inboxes = make_world()
    net.set_reliable("a", {"a", "b"})
    net.send("a", "b", "m1")
    clock.run_until(0.5)  # m1 still in flight
    net.core.partition([["a"], ["b"]])  # m1 is held
    net.send("a", "b", "m2")
    net.core.heal()
    net.send("a", "b", "m3")
    clock.run()
    assert [m for _s, m in inboxes["b"]] == ["m1", "m2", "m3"]


def test_cut_carrier_with_a_duplicate_re_holds_only_the_original():
    clock, net, inboxes = make_world(FaultInjector(FaultModel(duplicate=1.0, seed=1)))
    net.set_reliable("a", {"a", "b"})
    net.send("a", "b", "m")
    assert [type(wire) for wire in net.channel("a", "b")] == [str, DuplicateCopy]
    net.core.partition([["a"], ["b"]])
    # Both copies died on the wire; only the original waits for the heal.
    assert net.core.stats.bounced == {"str": 1, "DuplicateCopy": 1}
    assert net.channel("a", "b") == ["m"]
    assert net.core.in_flight == 0
    net.core.heal()
    clock.run()
    assert inboxes["b"] == [("a", "m")]


def test_server_notice_to_a_cut_off_client_is_lost():
    """Membership servers keep no client reliable: a notice cut on the wire
    is lost, so is one sent across the cut, and the heal brings neither."""
    world = SimWorld(latency=ConstantLatency(1.0), servers=1)
    world.add_node("c")
    world.start()
    world.settle()
    (sid,) = world.tier.servers
    heard = []
    world.attach("x", each_message(lambda src, m: heard.append(m)))
    notice = ViewNotice("x", world.node("c").current_view)
    world.send(sid, ["x"], notice)
    world.links.partition([["x"]])
    assert world.links.stats.bounced == {"ViewNotice": 1}
    world.send(sid, ["x"], notice)
    assert world.network.channel(sid, "x") == []
    world.links.heal()
    world.settle()
    assert heard == []
