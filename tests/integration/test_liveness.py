"""Liveness (Property 4.2) under fair executions.

The property is conditional: once the membership stabilises on a view,
every member must deliver it and all messages subsequently sent in it.
These tests arrange the stability assumption in both execution substrates
and assert the conclusion.
"""

import pytest

from repro.checking import run_verdict
from repro.harness import ModelHarness
from repro.net import ConstantLatency, SimWorld


class TestModelLiveness:
    @pytest.mark.parametrize("seed", range(5))
    def test_stable_view_and_messages_delivered(self, seed):
        harness = ModelHarness(
            "abcd", seed=seed, scripts={p: [f"{p}{i}" for i in range(3)] for p in "abcd"}
        )
        scheduler = harness.scheduler("fair")
        view = harness.form_view("abcd")
        scheduler.run(max_steps=60_000)
        assert harness.system.quiescent()
        run_verdict(harness.gcs_trace(), final_view=view, include=["VS-LIVE"]).raise_for()

    def test_liveness_after_turbulence(self):
        # Chaotic prefix, then stabilisation: the final view must land.
        harness = ModelHarness("abc", seed=9, scripts={p: [f"{p}0"] for p in "abc"})
        scheduler = harness.scheduler("fair")
        for action in harness.driver.random_behaviour(3):
            if harness.mbrshp.is_enabled(action):
                harness.system.execute(harness.mbrshp, action)
            scheduler.run(max_steps=40)
        final = harness.form_view("abc")
        for p in "abc":
            harness.clients[p].queue(f"{p}-final")
        scheduler.run(max_steps=80_000)
        assert harness.system.quiescent()
        run_verdict(harness.gcs_trace(), final_view=final, include=["VS-LIVE"]).raise_for()

    def test_blocked_clients_do_not_deadlock(self):
        harness = ModelHarness("ab", seed=4, scripts={"a": ["m"] * 5, "b": []})
        scheduler = harness.scheduler("fair")
        view = harness.form_view("ab")
        scheduler.run(max_steps=40_000)
        run_verdict(harness.gcs_trace(), final_view=view, include=["VS-LIVE"]).raise_for()


class TestSimLiveness:
    def test_liveness_with_message_recovery_through_forwarding(self):
        # p3 partitions away after sending; survivors must still converge
        # and agree, recovering committed messages via forwarding.
        world = SimWorld(latency=ConstantLatency(1.0), round_duration=2.0)
        nodes = world.add_nodes([f"p{i}" for i in range(4)])
        world.start()
        world.run()
        nodes[3].send("from p3")
        world.run_until(world.now() + 1.0)  # in flight to some, not all
        world.partition([["p0", "p1", "p2"], ["p3"]])
        world.run()
        final = next(v for v in reversed(world.oracle.views_formed) if len(v.members) == 3)
        assert world.all_in_view(final)
        counts = {p: [m for s, m in world.nodes[p].delivered if s == "p3"] for p in ("p0", "p1", "p2")}
        assert len(set(map(tuple, counts.values()))) == 1  # agreement on p3's prefix

    def test_every_member_delivers_stable_view_and_traffic(self):
        world = SimWorld(latency=ConstantLatency(1.0), round_duration=1.0)
        nodes = world.add_nodes([f"p{i}" for i in range(6)])
        world.start()
        world.run()
        view = world.oracle.views_formed[-1]
        for node in nodes:
            node.send("stable-" + node.pid)
        world.run()
        run_verdict(world.trace, final_view=view, include=["VS-LIVE"]).raise_for()
