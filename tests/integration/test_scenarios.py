"""End-to-end scenarios, on the simulator and across all substrates.

The classic scenarios run the full stack (membership, transports,
end-points) on the simulated deployment and check the complete safety
battery on the resulting trace.  ``TestSubstrateMatrix`` then takes the
substrate-free scenario scripts from :mod:`repro.deploy.scenarios` and
runs each one unchanged on all three backends - simulator, asyncio,
TCP sockets - holding every trace to the same checkers.
"""

import pytest

from repro.checking import SAFETY_CODES, run_verdict
from repro.checking.events import MbrshpViewEvent, ViewEvent
from repro.core import MinCopiesStrategy, SimpleStrategy
from repro.deploy import (
    SUBSTRATES,
    run_scenario,
    scenario_churn,
    scenario_crash_mid_sync,
    scenario_reconfiguration,
    scenario_self_delivery,
    scenario_virtual_synchrony,
)
from repro.net import ConstantLatency, LognormalLatency, SimWorld, UniformLatency


def settled_world(n=5, **kwargs):
    defaults = dict(latency=ConstantLatency(1.0), round_duration=2.0)
    defaults.update(kwargs)
    world = SimWorld(**defaults)
    nodes = world.add_nodes([f"p{i}" for i in range(n)])
    world.start()
    world.run()
    return world, nodes


class TestSteadyState:
    def test_heavy_traffic_all_delivered(self):
        world, nodes = settled_world()
        for round_no in range(10):
            for node in nodes:
                node.send(f"{node.pid}-{round_no}")
        world.run()
        for node in nodes:
            assert len(node.delivered) == 50
        run_verdict(world.trace, list(world.nodes), include=SAFETY_CODES).raise_for()

    def test_fifo_per_sender_under_jitter(self):
        world, nodes = settled_world(latency=UniformLatency(0.1, 3.0, seed=7))
        for i in range(15):
            nodes[0].send(i)
        world.run()
        for node in nodes:
            from_p0 = [m for s, m in node.delivered if s == "p0"]
            assert from_p0 == list(range(15))
        run_verdict(world.trace, list(world.nodes), include=SAFETY_CODES).raise_for()

    def test_wan_latency_profile(self):
        world, nodes = settled_world(latency=LognormalLatency(1.0, 0.6, seed=9))
        for node in nodes:
            node.send("wan-" + node.pid)
        world.run()
        run_verdict(world.trace, list(world.nodes), include=SAFETY_CODES).raise_for()
        assert all(len(node.delivered) == 5 for node in nodes)


class TestPartitionsAndMerges:
    @pytest.mark.parametrize("forwarding", [SimpleStrategy(), MinCopiesStrategy()])
    def test_partition_heal_with_message_recovery(self, forwarding):
        world, nodes = settled_world(forwarding=forwarding)
        for node in nodes:
            node.send("pre-" + node.pid)
        world.run()
        world.partition([["p0", "p1", "p2"], ["p3", "p4"]])
        world.run()
        nodes[0].send("majority")
        nodes[3].send("minority")
        world.run()
        world.heal()
        world.run()
        final = world.oracle.views_formed[-1]
        assert world.all_in_view(final)
        run_verdict(
            world.trace, list(world.nodes), final_view=final, include=SAFETY_CODES
        ).raise_for()

    def test_nested_partitions(self):
        world, nodes = settled_world()
        world.partition([["p0", "p1"], ["p2", "p3"], ["p4"]])
        world.run()
        views = {node.pid: node.current_view.members for node in nodes}
        assert views["p0"] == {"p0", "p1"}
        assert views["p2"] == {"p2", "p3"}
        assert views["p4"] == {"p4"}
        world.heal()
        world.run()
        run_verdict(world.trace, list(world.nodes), include=SAFETY_CODES).raise_for()

    def test_transitional_sets_across_merge(self):
        world, nodes = settled_world(n=4)
        world.partition([["p0", "p1"], ["p2", "p3"]])
        world.run()
        world.heal()
        world.run()
        merged = world.oracle.views_formed[-1]
        t = {node.pid: dict(node.views)[merged] for node in nodes}
        assert t["p0"] == {"p0", "p1"}
        assert t["p2"] == {"p2", "p3"}

    def test_messages_not_leaked_across_partition(self):
        world, nodes = settled_world(n=4)
        world.partition([["p0", "p1"], ["p2", "p3"]])
        world.run()
        nodes[0].send("secret")
        world.run()
        assert all("secret" not in [m for _s, m in node.delivered] for node in nodes[2:])
        run_verdict(world.trace, list(world.nodes), include=SAFETY_CODES).raise_for()


class TestCascadingChanges:
    def test_obsolete_views_never_delivered(self):
        # Two reconfigurations in quick succession: the superseded view
        # must not reach the application (the paper's Section 1 claim).
        world, nodes = settled_world(round_duration=4.0)
        world.partition([["p0", "p1", "p2", "p3"], ["p4"]])
        world.run_until(world.now() + 1.0)  # mid-membership-round
        world.heal()
        world.run()
        delivered_views = [e.view for e in world.trace.of_type(ViewEvent)]
        mb_views = {e.view for e in world.trace.of_type(MbrshpViewEvent)}
        final = world.oracle.views_formed[-1]
        # No endpoint delivered a GCS view for the cancelled change beyond
        # what the membership actually delivered:
        assert set(delivered_views) <= mb_views
        assert world.all_in_view(final)
        run_verdict(world.trace, list(world.nodes), include=SAFETY_CODES).raise_for()

    def test_repeated_start_changes_before_view(self):
        world, nodes = settled_world(round_duration=3.0)
        world.oracle.reconfigure([[n.pid for n in nodes]], extra_changes=3)
        world.run()
        final = world.oracle.views_formed[-1]
        assert world.all_in_view(final)
        run_verdict(world.trace, list(world.nodes), include=SAFETY_CODES).raise_for()

    def test_churn_sequence(self):
        world, nodes = settled_world()
        for victim in ("p0", "p1"):
            world.crash(victim)
            world.run()
        for victim in ("p0", "p1"):
            world.recover(victim)
            world.run()
        final = world.oracle.views_formed[-1]
        assert final.members == set(world.nodes)
        assert world.all_in_view(final)
        run_verdict(world.trace, list(world.nodes), include=SAFETY_CODES).raise_for()


class TestServerMode:
    def test_two_tier_deployment_end_to_end(self):
        world = SimWorld(latency=ConstantLatency(1.0), servers=2)
        nodes = world.add_nodes([f"p{i}" for i in range(6)])
        world.start()
        world.run(max_events=200_000)
        for node in nodes:
            node.send("tier-" + node.pid)
        world.run(max_events=200_000)
        assert all(len(node.delivered) == 6 for node in nodes)
        run_verdict(world.trace, list(world.nodes), include=SAFETY_CODES).raise_for()

    def test_server_partition_and_heal(self):
        world = SimWorld(latency=ConstantLatency(1.0), servers=2)
        nodes = world.add_nodes([f"p{i}" for i in range(4)])
        world.start()
        world.run(max_events=200_000)
        world.tier.partition_servers([[sid] for sid in world.tier.alive_servers()])
        world.run(max_events=200_000)
        world.heal()
        world.run(max_events=200_000)
        vids = {str(n.current_view.vid) for n in nodes}
        assert len(vids) == 1
        run_verdict(world.trace, list(world.nodes), include=SAFETY_CODES).raise_for()


class TestCrashRecovery:
    def test_recovered_process_rejoins_under_original_identity(self):
        world, nodes = settled_world(n=3)
        nodes[0].send("pre")
        world.run()
        world.crash("p2")
        world.run()
        world.recover("p2")
        world.run()
        final = world.oracle.views_formed[-1]
        assert "p2" in final.members
        assert world.nodes["p2"].current_view == final
        run_verdict(world.trace, list(world.nodes), include=SAFETY_CODES).raise_for()

    def test_messages_resume_after_recovery(self):
        world, nodes = settled_world(n=3)
        world.crash("p2")
        world.run()
        world.recover("p2")
        world.run()
        nodes[0].send("welcome back")
        world.run()
        assert ("p0", "welcome back") in world.nodes["p2"].delivered

    def test_crash_during_view_change(self):
        world, nodes = settled_world(n=4, round_duration=4.0)
        world.partition([["p0", "p1", "p2", "p3"]])
        world.run_until(world.now() + 1.0)
        world.crash("p3")
        world.run()
        final = world.oracle.views_formed[-1]
        assert "p3" not in final.members
        assert all(world.nodes[p].current_view == final for p in final.members)
        run_verdict(world.trace, list(world.nodes), include=SAFETY_CODES).raise_for()


@pytest.mark.parametrize("substrate", SUBSTRATES)
class TestSubstrateMatrix:
    """The same scenario coroutine, three execution substrates.

    Every test runs a substrate-free script from
    :mod:`repro.deploy.scenarios` and audits the trace with
    ``deployment.check()`` - the full safety battery plus MBRSHP
    (Figure 2) conformance - so a view formed by the asyncio or TCP
    membership tier is held to exactly the standard of a sim-formed one.
    """

    def payloads(self, deployment, pid):
        return [m for _s, m in deployment.delivered(pid)]

    def test_self_delivery(self, substrate):
        deployment = run_scenario(substrate, scenario_self_delivery)
        deployment.check()
        expected = {f"{pid}-{r}" for pid in "abc" for r in range(2)}
        for pid in "abc":
            assert set(self.payloads(deployment, pid)) == expected
            # Self Delivery, concretely: own messages came back.
            assert f"{pid}-0" in self.payloads(deployment, pid)

    def test_reconfiguration(self, substrate):
        deployment = run_scenario(substrate, scenario_reconfiguration)
        deployment.check()
        assert self.payloads(deployment, "a") == ["pre", "mid", "post"]
        # c was out of the group while "mid" was sent:
        assert self.payloads(deployment, "c") == ["pre", "post"]
        assert deployment.current_view("a").members == {"a", "b", "c"}

    def test_virtual_synchrony(self, substrate):
        deployment = run_scenario(substrate, scenario_virtual_synchrony)
        deployment.check()
        for pid in "ab":
            got = self.payloads(deployment, pid)
            assert "left" in got and "right" not in got
        for pid in "cd":
            got = self.payloads(deployment, pid)
            assert "right" in got and "left" not in got
        for pid in "abcd":
            assert "merged" in self.payloads(deployment, pid)
            assert deployment.current_view(pid).members == {"a", "b", "c", "d"}

    def test_churn(self, substrate):
        deployment = run_scenario(substrate, scenario_churn)
        deployment.check()
        assert self.payloads(deployment, "a") == ["hello", "while-down", "back"]
        got_c = self.payloads(deployment, "c")
        assert "while-down" not in got_c
        assert "back" in got_c

    def test_crash_mid_sync(self, substrate):
        # Section 8 crash semantics with traffic still in flight: the
        # survivors keep every message (Self Delivery and Virtual
        # Synchrony hold across the crash view change), and the
        # recovered process rejoins with a fresh state - it sees the
        # post-recovery traffic but none of what it missed while down.
        deployment = run_scenario(substrate, scenario_crash_mid_sync)
        deployment.check()
        for pid in "ab":
            per_sender = {}
            for sender, payload in deployment.delivered(pid):
                per_sender.setdefault(sender, []).append(payload)
            # Per-sender FIFO is guaranteed; cross-sender order is not.
            assert per_sender["a"] == ["pre", "inflight-1", "after"]
            assert per_sender["b"] == ["inflight-2"]
            assert per_sender["c"] == ["back"]
        got_c = self.payloads(deployment, "c")
        assert "after" not in got_c
        assert got_c[-1] == "back"
        for pid in "abc":
            assert deployment.current_view(pid).members == {"a", "b", "c"}
