"""The specification automata run forward, not only as acceptors.

Safety specs are abstract machines that *generate* all legal behaviours;
these tests execute them under the random scheduler via their candidate
generators and check that everything generated is self-consistent.
"""

from repro.ioa import Action, Composition, RandomScheduler
from repro.spec.co_rfifo import CoRfifoSpec
from repro.spec.wv_rfifo import WvRfifoSpec
from repro.types import make_view


class TestCoRfifoGenerates:
    def test_random_execution_preserves_fifo(self):
        net = CoRfifoSpec(["a", "b"])
        delivered = []
        for i in range(10):
            net.apply(Action("co_rfifo.send", ("a", frozenset({"b"}), i)))
        system = Composition([net])
        scheduler = RandomScheduler(system, seed=5)
        scheduler.run(max_steps=1000)
        for event in system.trace.events("co_rfifo.deliver"):
            delivered.append(event.action.params[2])
        # with b unreliable, an arbitrary *suffix* may be lost: whatever
        # was delivered must be a prefix of the sends
        assert delivered == list(range(len(delivered)))

    def test_reliable_destination_loses_nothing(self):
        net = CoRfifoSpec(["a", "b"])
        net.apply(Action("co_rfifo.reliable", ("a", frozenset({"a", "b"}))))
        for i in range(10):
            net.apply(Action("co_rfifo.send", ("a", frozenset({"b"}), i)))
        system = Composition([net])
        RandomScheduler(system, seed=7).run(max_steps=1000)
        delivered = [e.action.params[2] for e in system.trace.events("co_rfifo.deliver")]
        assert delivered == list(range(10))

    def test_lose_only_targets_unreliable(self):
        net = CoRfifoSpec(["a", "b", "c"])
        net.apply(Action("co_rfifo.reliable", ("a", frozenset({"a", "b"}))))
        net.apply(Action("co_rfifo.send", ("a", frozenset({"b", "c"}), "m")))
        system = Composition([net])
        RandomScheduler(system, seed=1).run(max_steps=100)
        for event in system.trace.events("co_rfifo.lose"):
            _p, q = event.action.params
            assert q == "c"


class TestWvRfifoGenerates:
    def test_spec_delivers_everything_eventually(self):
        spec = WvRfifoSpec(["a", "b"])
        v = make_view(1, ["a", "b"])
        spec.apply(Action("view", ("a", v, None)))
        spec.apply(Action("view", ("b", v, None)))
        for i in range(5):
            spec.apply(Action("send", ("a", i)))
        system = Composition([spec])
        RandomScheduler(system, seed=3).run(max_steps=1000)
        assert spec.last_dlvrd[("a", "b")] == 5
        assert spec.last_dlvrd[("a", "a")] == 5

    def test_generated_deliveries_are_fifo(self):
        spec = WvRfifoSpec(["a", "b"])
        v = make_view(1, ["a", "b"])
        spec.apply(Action("view", ("a", v, None)))
        spec.apply(Action("view", ("b", v, None)))
        for i in range(5):
            spec.apply(Action("send", ("a", i)))
        system = Composition([spec])
        RandomScheduler(system, seed=9).run(max_steps=1000)
        at_b = [
            e.action.params[2]
            for e in system.trace.events("deliver")
            if e.action.params[0] == "b"
        ]
        assert at_b == sorted(at_b)
