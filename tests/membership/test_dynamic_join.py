"""Dynamic joins: processes arriving while the system is running.

The paper highlights that its interface lets the membership add new
processes *while reconfiguring* (a fresh start_change suffices) - no
completed-then-redone view. These tests exercise joins at awkward times
in both membership modes.
"""

from repro.checking import SAFETY_CODES, run_verdict
from repro.net import ConstantLatency, SimWorld


class TestOracleModeJoins:
    def test_join_after_start(self):
        world = SimWorld(latency=ConstantLatency(1.0), round_duration=2.0)
        world.add_nodes(["a", "b"])
        world.start()
        world.run()
        late = world.add_node("late")
        world.oracle.reconfigure([list(world.nodes)])
        world.run()
        final = world.oracle.views_formed[-1]
        assert "late" in final.members
        assert world.all_in_view(final)
        run_verdict(world.trace, list(world.nodes), include=SAFETY_CODES).raise_for()

    def test_join_mid_reconfiguration_supersedes_cleanly(self):
        world = SimWorld(latency=ConstantLatency(1.0), round_duration=4.0)
        nodes = world.add_nodes(["a", "b", "c"])
        world.start()
        world.run()
        # a change is in progress...
        world.oracle.reconfigure([["a", "b", "c"]])
        world.run_until(world.now() + 1.5)
        # ...when a newcomer arrives: revise the attempt to include it
        world.add_node("d")
        world.oracle.reconfigure([["a", "b", "c", "d"]])
        world.run()
        final = world.oracle.views_formed[-1]
        assert final.members == {"a", "b", "c", "d"}
        assert world.all_in_view(final)
        # the superseded 3-member attempt never reached any application
        delivered = [v for node in nodes for v, _t in node.views]
        assert world.oracle.views_formed[-2] not in delivered
        run_verdict(world.trace, list(world.nodes), include=SAFETY_CODES).raise_for()

    def test_joiner_receives_traffic_immediately(self):
        world = SimWorld(latency=ConstantLatency(1.0), round_duration=1.0)
        nodes = world.add_nodes(["a", "b"])
        world.start()
        world.run()
        late = world.add_node("late")
        world.oracle.reconfigure([list(world.nodes)])
        world.run()
        nodes[0].send("welcome")
        world.run()
        assert ("a", "welcome") in late.delivered


class TestServerModeJoins:
    def test_join_through_server(self):
        world = SimWorld(latency=ConstantLatency(1.0), servers=2)
        world.add_nodes(["a", "b", "c"])
        world.start()
        world.run(max_events=300_000)
        world.add_node("late")
        world.set_members(list(world.nodes))
        world.run(max_events=300_000)
        views = {node.current_view for node in world.nodes.values()}
        assert len(views) == 1
        assert next(iter(views)).members == {"a", "b", "c", "late"}
        run_verdict(world.trace, list(world.nodes), include=SAFETY_CODES).raise_for()

    def test_multiple_staggered_joins(self):
        world = SimWorld(latency=ConstantLatency(1.0), servers=2)
        world.add_nodes(["a"])
        world.start()
        world.run(max_events=300_000)
        for name in ("b", "c", "d"):
            world.add_node(name)
            world.set_members(list(world.nodes))
            world.run_until(world.now() + 1.0)
        world.run(max_events=500_000)
        views = {node.current_view for node in world.nodes.values()}
        assert len(views) == 1
        assert next(iter(views)).members == {"a", "b", "c", "d"}
        run_verdict(world.trace, list(world.nodes), include=SAFETY_CODES).raise_for()
