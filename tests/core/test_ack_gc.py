"""Acknowledgement-based garbage collection (Section 5.1's remark).

Real implementations must discard messages proven delivered everywhere;
the ``ack_gc_interval`` option broadcasts cumulative acknowledgements and
truncates buffers at the all-members floor.
"""

import pytest

from repro._collections import MessageLog
from repro.checking import SAFETY_CODES, run_verdict
from repro.core.gcs_endpoint import GcsEndpoint
from repro.net import ConstantLatency, SimWorld


class TestMessageLogTruncation:
    def test_truncate_keeps_logical_indices(self):
        log = MessageLog()
        for i in range(1, 6):
            log.append(f"m{i}")
        assert log.truncate_through(3) == 3
        assert log.truncated_through == 3
        assert log.get(3) is None
        assert log.get(4) == "m4"
        assert log.last_index() == 5
        assert log.longest_prefix() == 5  # logical, unchanged

    def test_truncate_only_within_prefix(self):
        log = MessageLog()
        log.append("m1")
        log.put(3, "m3")  # hole at 2
        assert log.truncate_through(3) == 1  # capped at the prefix (1)
        assert log.get(3) == "m3"

    def test_truncate_idempotent(self):
        log = MessageLog()
        log.append("m1")
        log.append("m2")
        log.truncate_through(2)
        assert log.truncate_through(2) == 0

    def test_put_below_floor_is_dropped(self):
        log = MessageLog()
        log.append("m1")
        log.truncate_through(1)
        log.put(1, "late duplicate")
        assert log.get(1) is None

    def test_append_after_truncation_continues_indices(self):
        log = MessageLog()
        log.append("m1")
        log.truncate_through(1)
        assert log.append("m2") == 2
        assert log.get(2) == "m2"

    def test_retained_counts_physical_entries(self):
        log = MessageLog()
        for i in range(4):
            log.append(i)
        log.truncate_through(2)
        assert log.retained() == 2

    def test_equality_includes_base(self):
        a, b = MessageLog(), MessageLog()
        a.append("x")
        b.append("x")
        a.truncate_through(1)
        assert a != b


class TestEndpointOption:
    def test_strict_mode_rejects_gc_options(self):
        with pytest.raises(ValueError):
            GcsEndpoint("a", strict=True, ack_gc_interval=5)
        with pytest.raises(ValueError):
            GcsEndpoint("a", strict=True, gc_views=True)

    def test_disabled_by_default(self):
        endpoint = GcsEndpoint("a")
        assert endpoint.ack_gc_interval is None
        assert not endpoint._ack_ready()


class TestEndToEnd:
    def run_world(self, ack_interval, waves=12):
        world = SimWorld(
            latency=ConstantLatency(1.0),
            round_duration=1.0,
            ack_gc_interval=ack_interval,
        )
        nodes = world.add_nodes([f"p{i}" for i in range(4)])
        world.start()
        world.run()
        for wave in range(waves):
            for node in nodes:
                node.send(f"{node.pid}-{wave}")
            world.run()
        return world, nodes

    def test_memory_bounded_with_gc(self):
        world, nodes = self.run_world(ack_interval=4)
        assert max(n.endpoint.buffered_messages() for n in nodes) <= 16

    def test_memory_grows_without_gc(self):
        world, nodes = self.run_world(ack_interval=None)
        assert min(n.endpoint.buffered_messages() for n in nodes) >= 4 * 12

    def test_all_messages_still_delivered(self):
        world, nodes = self.run_world(ack_interval=4)
        assert all(len(n.delivered) == 4 * 12 for n in nodes)
        run_verdict(world.trace, list(world.nodes), include=SAFETY_CODES).raise_for()

    def test_view_change_after_gc_is_safe(self):
        world, nodes = self.run_world(ack_interval=4)
        world.crash("p3")
        world.run()
        for node in nodes[:3]:
            node.send("after change")
        world.run()
        run_verdict(world.trace, list(world.nodes), include=SAFETY_CODES).raise_for()

    def test_ack_messages_on_the_wire(self):
        world, _nodes = self.run_world(ack_interval=4)
        assert world.links.totals().get("AckMsg", 0) > 0

    def test_no_acks_when_disabled(self):
        world, _nodes = self.run_world(ack_interval=None)
        assert world.links.totals().get("AckMsg", 0) == 0

    def test_stale_view_acks_ignored(self):
        world, nodes = self.run_world(ack_interval=4, waves=2)
        from repro._collections import frozendict
        from repro.core.messages import AckMsg
        from repro.types import ViewId

        ep = nodes[0].endpoint
        before = dict(ep.acked)
        stale = AckMsg(ViewId(999), frozendict({"p1": 50}))
        nodes[0].receive("p1", stale)
        assert dict(ep.acked) == before
