"""One scheduled event per arrival instant on the simulator.

Every carrier scheduled for one clamped arrival, on any link, shares one
event, and each destination gets its carriers of the instant as one run;
each carrier keeps its own place on its link, so a cut still kills
exactly the cut links' carriers - also a cut made by an earlier
destination's handler of the same instant - and the FIFO clamp still
orders every link."""

from repro.chaos.faults import FaultDecision
from repro.net.latency import ConstantLatency
from repro.net.world import SimWorld
from tests.conftest import each_message


def world_of(pids, runs=None, **options):
    """A world of bare processes recording each message (``log``,
    ``inboxes``) and, into ``runs`` if given, each run as it was handed
    over: one ``[(src, [payloads])]`` list per call."""
    world = SimWorld(latency=ConstantLatency(1.0), **options)
    log, inboxes = [], {pid: [] for pid in pids}
    for pid in pids:

        def handler(src, message, pid=pid):
            log.append(pid)
            inboxes[pid].append((src, message))

        def on_run(run, pid=pid, each=each_message(handler)):
            if runs is not None:
                runs.setdefault(pid, []).append([(src, list(p)) for src, p in run])
            each(run)

        world.attach(pid, on_run)
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
    """A FIFO-clamped carrier lands at its own later instant: behind the
    delayed carrier on its link, in that carrier's instant, not in the
    instant its latency alone would give it."""
    pids = ["a", "b", "c", "d"]
    runs = {}
    world, log, inboxes = world_of(pids, runs, faults=DelayOnce(("a", "c"), 5.0))
    world.send("a", pids, "m1")  # a->c arrives at 6.0, the others at 1.0
    assert world.clock.pending() == 2  # the instants 1.0 (b, d) and 6.0 (c)
    world.clock.schedule(0.5, lambda: world.send("a", pids, "m2"))
    world.run_until(0.5)
    # m2 opens the instant 1.5 towards b and d; towards c it is clamped
    # behind the delayed m1, into the instant 6.0
    assert world.clock.pending() == 3
    world.settle()
    assert log == ["b", "d", "b", "d", "c", "c"]
    assert [m for _src, m in inboxes["c"]] == ["m1", "m2"]
    assert runs["c"] == [[("a", ["m1"]), ("a", ["m2"])]]  # two carriers, one run
    assert runs["b"] == [[("a", ["m1"])], [("a", ["m2"])]]


def test_carriers_of_k_senders_at_one_instant_are_one_event_and_one_run_each():
    pids = ["a", "b", "c", "z"]
    runs = {}
    world, log, _inboxes = world_of(pids, runs)
    for src in ("c", "a", "b"):  # send order, not sorted order
        world.send(src, pids, f"from-{src}")
    assert world.clock.pending() == 1
    world.settle()
    assert runs["z"] == [[("c", ["from-c"]), ("a", ["from-a"]), ("b", ["from-b"])]]
    assert runs["a"] == [[("c", ["from-c"]), ("b", ["from-b"])]]
    # destinations in the order the instant first scheduled them
    assert log == ["a", "a", "b", "b", "z", "z", "z", "c", "c"]


def test_a_cut_from_one_destinations_handler_kills_a_later_destinations_carrier():
    """Each destination's flight check runs just before its own hand-over:
    a cut made by an earlier destination's handler of the same instant
    still kills a later destination's carrier, and holds it for a
    reliable peer."""
    pids = ["a", "b", "c"]
    world, log, inboxes = world_of(pids)
    world.network.set_reliable("a", pids)
    cut = []

    def cut_c(run, deliver=world.network._handlers["b"]):
        deliver(run)
        if not cut:
            cut.append(True)
            world.links.partition([["a", "b"], ["c"]])

    world.attach("b", cut_c)
    world.send("a", pids, "m")  # b before c in the instant
    world.run()
    assert inboxes["b"] == [("a", "m")]
    assert inboxes["c"] == []
    assert world.network.channel("a", "c") == ["m"]  # held, not lost
    assert world.links.in_flight == 0
    world.links.heal()
    world.settle()
    assert inboxes["c"] == [("a", "m")]
