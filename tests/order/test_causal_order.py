"""Tests for the causal-order layer (vector clocks over the GCS)."""

from repro.checking import SAFETY_CODES, run_verdict
from repro.net import ConstantLatency, SimWorld, UniformLatency
from repro.order import CausalOrderNode


class Chatty:
    """An app that replies to specific payloads, creating causal chains."""

    def __init__(self, node):
        self.node = CausalOrderNode(node, on_deliver=self.on_deliver)
        self.pid = node.pid
        self.replies = {}

    def on_deliver(self, sender, payload):
        reply = self.replies.get(payload)
        if reply is not None:
            self.node.broadcast(reply)


def make_group(n=4, latency=None):
    world = SimWorld(
        latency=latency or ConstantLatency(1.0),
        round_duration=2.0,
    )
    nodes = world.add_nodes([f"p{i}" for i in range(n)])
    causal = [CausalOrderNode(node) for node in nodes]
    world.start()
    world.run()
    return world, causal


def position(node, payload):
    payloads = [p for _s, p in node.delivered]
    return payloads.index(payload)


class TestCausality:
    def test_reply_never_precedes_cause(self):
        # p1's reply is sent after delivering p0's question; every member
        # must deliver question before reply, even with big jitter.
        world = SimWorld(latency=UniformLatency(0.2, 4.0, seed=3),
                         round_duration=2.0)
        nodes = world.add_nodes(["p0", "p1", "p2"])
        apps = [Chatty(node) for node in nodes]
        apps[1].replies["question"] = "answer"
        world.start()
        world.run()
        apps[0].node.broadcast("question")
        world.run()
        for app in apps:
            assert position(app.node, "question") < position(app.node, "answer")
        run_verdict(world.trace, list(world.nodes), include=SAFETY_CODES).raise_for()

    def test_transitive_chain(self):
        world = SimWorld(latency=UniformLatency(0.2, 4.0, seed=9),
                         round_duration=2.0)
        nodes = world.add_nodes(["p0", "p1", "p2", "p3"])
        apps = [Chatty(node) for node in nodes]
        apps[1].replies["a"] = "b"
        apps[2].replies["b"] = "c"
        world.start()
        world.run()
        apps[0].node.broadcast("a")
        world.run()
        for app in apps:
            assert position(app.node, "a") < position(app.node, "b") < position(app.node, "c")

    def test_concurrent_messages_all_delivered(self):
        world, causal = make_group(latency=UniformLatency(0.3, 2.0, seed=4))
        for node in causal:
            node.broadcast("hi from " + node.pid)
        world.run()
        for node in causal:
            assert len(node.delivered) == len(causal)

    def test_fifo_preserved_per_sender(self):
        world, causal = make_group()
        for i in range(5):
            causal[1].broadcast(i)
        world.run()
        for node in causal:
            from_p1 = [p for s, p in node.delivered if s == "p1"]
            assert from_p1 == list(range(5))


class TestViewChanges:
    def test_vectors_reset_safely_across_views(self):
        world, causal = make_group()
        causal[0].broadcast("old view msg")
        world.run()
        world.crash("p3")
        world.run()
        causal[0].broadcast("new view msg")
        world.run()
        for node in causal[:3]:
            payloads = [p for _s, p in node.delivered]
            assert payloads.index("old view msg") < payloads.index("new view msg")

    def test_blocked_broadcast_parked_and_resent(self):
        world, causal = make_group(n=3)
        world.oracle.reconfigure([["p0", "p1", "p2"]])
        world.run_until(world.now() + 0.5)
        for node in causal:
            node.broadcast("mid-change " + node.pid)
        world.run()
        for node in causal:
            got = {p for _s, p in node.delivered}
            assert {"mid-change p0", "mid-change p1", "mid-change p2"} <= got
