"""Tests for the total-order layer (sequencer over the GCS)."""

from repro.checking import SAFETY_CODES, run_verdict
from repro.net import ConstantLatency, SimWorld, UniformLatency
from repro.order import TotalOrderNode


def make_group(n=4, latency=None, **world_kwargs):
    world = SimWorld(
        latency=latency or ConstantLatency(1.0),
        round_duration=2.0,
        **world_kwargs,
    )
    nodes = world.add_nodes([f"p{i}" for i in range(n)])
    ordered = [TotalOrderNode(node) for node in nodes]
    world.start()
    world.run()
    return world, ordered


def orders(ordered):
    return [node.total_order() for node in ordered]


class TestAgreement:
    def test_single_sender_order_matches_send_order(self):
        world, ordered = make_group()
        for i in range(5):
            ordered[1].broadcast(i)
        world.run()
        for node in ordered:
            assert node.total_order() == [("p1", i) for i in range(5)]

    def test_concurrent_senders_agree_on_one_order(self):
        world, ordered = make_group(latency=UniformLatency(0.2, 2.0, seed=5))
        for i in range(4):
            for node in ordered:
                node.broadcast(f"{node.pid}-{i}")
        world.run()
        sequences = orders(ordered)
        assert all(seq == sequences[0] for seq in sequences)
        assert len(sequences[0]) == 4 * len(ordered)

    def test_total_order_extends_fifo_order(self):
        world, ordered = make_group(latency=UniformLatency(0.2, 3.0, seed=8))
        for i in range(6):
            ordered[2].broadcast(i)
            ordered[3].broadcast(i * 10)
        world.run()
        sequence = ordered[0].total_order()
        per_sender = {}
        for sender, payload in sequence:
            per_sender.setdefault(sender, []).append(payload)
        assert per_sender["p2"] == list(range(6))
        assert per_sender["p3"] == [i * 10 for i in range(6)]


class TestViewChanges:
    def test_order_consistent_across_member_leave(self):
        world, ordered = make_group()
        for node in ordered:
            node.broadcast("pre-" + node.pid)
        world.run()
        world.crash("p3")
        world.run()
        survivors = ordered[:3]
        for node in survivors:
            node.broadcast("post-" + node.pid)
        world.run()
        sequences = [node.total_order() for node in survivors]
        assert all(seq == sequences[0] for seq in sequences)
        run_verdict(world.trace, list(world.nodes), include=SAFETY_CODES).raise_for()

    def test_sequencer_handover_on_sequencer_crash(self):
        world, ordered = make_group()
        assert ordered[1].sequencer == "p0"
        world.crash("p0")
        world.run()
        survivors = ordered[1:]
        assert all(node.sequencer == "p1" for node in survivors)
        for node in survivors:
            node.broadcast("new era " + node.pid)
        world.run()
        sequences = [node.total_order() for node in survivors]
        assert all(seq == sequences[0] for seq in sequences)
        assert len(sequences[0]) >= 3

    def test_leftover_data_reordered_after_view_change(self):
        # data that raced with the view change must still come out in one
        # agreed order at the survivors
        world, ordered = make_group(latency=UniformLatency(0.3, 2.5, seed=13))
        for i in range(3):
            ordered[2].broadcast(f"race-{i}")
        world.run_until(world.now() + 0.5)
        world.crash("p3")
        world.run()
        sequences = [node.total_order() for node in ordered[:3]]
        assert all(seq == sequences[0] for seq in sequences)
        assert [p for _s, p in sequences[0] if str(p).startswith("race")] == [
            "race-0", "race-1", "race-2",
        ]

    def test_partition_sides_order_independently_then_merge(self):
        world, ordered = make_group()
        world.partition([["p0", "p1"], ["p2", "p3"]])
        world.run()
        ordered[0].broadcast("left")
        ordered[2].broadcast("right")
        world.run()
        assert [p for _s, p in ordered[0].total_order()][-1] == "left"
        assert [p for _s, p in ordered[2].total_order()][-1] == "right"
        world.heal()
        world.run()
        for node in ordered:
            node.broadcast("merged-" + node.pid)
        world.run()
        tails = [node.total_order()[-4:] for node in ordered]
        assert all(tail == tails[0] for tail in tails)


class TestBlockedSends:
    def test_broadcast_during_view_change_is_parked_and_resent(self):
        world, ordered = make_group(n=3)
        # trigger a change; mid-round the app is blocked at some point
        world.oracle.reconfigure([["p0", "p1", "p2"]])
        world.run_until(world.now() + 0.5)
        for node in ordered:
            node.broadcast("parked-" + node.pid)
        world.run()
        sequences = [node.total_order() for node in ordered]
        assert all(seq == sequences[0] for seq in sequences)
        delivered_payloads = {p for _s, p in sequences[0]}
        assert {"parked-p0", "parked-p1", "parked-p2"} <= delivered_payloads
