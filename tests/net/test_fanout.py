"""One scheduled event per fan-out instant on the simulator.

A multicast's carriers opened at one clamped arrival, one after another
in destination order, share one event; each keeps its own place on its
link, so a cut still kills exactly the cut links' carriers, and the
FIFO clamp still orders every link."""

from repro.chaos.faults import FaultDecision
from repro.net.latency import ConstantLatency
from repro.net.world import SimWorld
from tests.conftest import each_message


def world_of(pids, **options):
    world = SimWorld(latency=ConstantLatency(1.0), **options)
    log, inboxes = [], {pid: [] for pid in pids}
    for pid in pids:

        def handler(src, message, pid=pid):
            log.append(pid)
            inboxes[pid].append((src, message))

        world.attach(pid, each_message(handler))
    return world, log, inboxes


def test_plain_multicast_is_one_event_delivered_in_destination_order():
    pids = [f"p{i:02d}" for i in range(64)]
    world, log, inboxes = world_of(pids)
    world.send("p00", frozenset(pids), "m")
    assert world.clock.pending() == 1
    assert world.links.in_flight == 63
    world.settle()
    assert log == pids[1:]
    assert all(inboxes[pid] == [("p00", "m")] for pid in pids[1:])
    assert world.links.stats.per_link == {("p00", pid): 1 for pid in pids[1:]}


def test_a_cut_kills_only_the_cut_carrier_and_holds_it_for_a_reliable_peer():
    pids = ["a", "b", "c", "d"]
    world, log, inboxes = world_of(pids)
    world.network.set_reliable("a", pids)
    world.send("a", pids, "m1")
    world.links.partition([["a", "b", "d"], ["c"]])
    assert world.network.channel("a", "c") == ["m1"]  # held, not on the wire
    assert world.links.stats.bounced == {"str": 1}
    assert world.clock.pending() == 1  # b's and d's carriers still share it
    world.send("a", pids, "m2")  # queued behind m1 towards c
    world.run()
    assert [m for _src, m in inboxes["b"]] == [m for _src, m in inboxes["d"]] == ["m1", "m2"]
    assert inboxes["c"] == []
    world.links.heal()
    world.send("a", pids, "m3")
    world.settle()
    assert [m for _src, m in inboxes["c"]] == ["m1", "m2", "m3"]
    assert world.links.in_flight == 0


def test_an_event_whose_carriers_all_died_is_cancelled():
    world, log, _inboxes = world_of(["a", "b", "c"])
    world.send("a", ["b", "c"], "m")
    world.links.partition([["a"], ["b", "c"]])
    assert world.clock.pending() == 0
    world.run()
    assert log == [] and world.clock.now == 0.0
    assert world.links.in_flight == 0


class DelayOnce:
    """A fault injector that delays the first copy on one link only."""

    def __init__(self, link, extra):
        self.link, self.extra = link, extra

    def decide(self, src, dst):
        if (src, dst) == self.link:
            self.link = None
            return FaultDecision(extra_delay=self.extra)
        return FaultDecision()


def test_a_clamped_link_gets_its_own_event_and_keeps_fifo():
    pids = ["a", "b", "c", "d"]
    world, log, inboxes = world_of(pids, faults=DelayOnce(("a", "c"), 5.0))
    world.send("a", pids, "m1")  # a->c arrives at 6.0, the others at 1.0
    assert world.clock.pending() == 3  # b at 1.0, c at 6.0, d at 1.0: not consecutive
    world.clock.schedule(0.5, lambda: world.send("a", pids, "m2"))
    world.run_until(0.5)
    # m2 towards c is clamped behind the delayed m1: 6.0, its own event
    assert world.clock.pending() == 6
    world.settle()
    assert log == ["b", "d", "b", "d", "c", "c"]
    assert [m for _src, m in inboxes["c"]] == ["m1", "m2"]
