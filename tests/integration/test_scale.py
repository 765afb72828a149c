"""Larger-scale smoke tests (the DESIGN.md E1 envelope up to n=48)."""

import pytest

from repro.checking import SAFETY_CODES, run_verdict
from repro.core import GcsEndpoint
from repro.experiments import measure_reconfiguration
from repro.net import ConstantLatency, SimWorld


def test_one_round_claim_holds_at_48_members():
    result = measure_reconfiguration(GcsEndpoint, group_size=48)
    assert result.extra_rounds == pytest.approx(0.0)
    survivors = 47
    assert result.sync_messages == survivors * (survivors - 1)


def test_large_group_traffic_and_merge():
    world = SimWorld(latency=ConstantLatency(1.0), round_duration=2.0, ack_gc_interval=10)
    pids = [f"p{i:02d}" for i in range(24)]
    nodes = world.add_nodes(pids)
    world.start()
    world.run()
    for node in nodes[:6]:
        node.send("burst-" + node.pid)
    world.run()
    world.partition([pids[:12], pids[12:]])
    world.run()
    world.heal()
    world.run()
    final = world.oracle.views_formed[-1]
    assert world.all_in_view(final)
    run_verdict(
        world.trace, list(world.nodes), final_view=final, include=SAFETY_CODES
    ).raise_for()


def test_many_small_views_churn():
    world = SimWorld(latency=ConstantLatency(1.0), round_duration=1.0)
    pids = [f"p{i}" for i in range(8)]
    world.add_nodes(pids)
    world.start()
    world.run()
    # rotate a leaver through the group
    for victim in pids[:5]:
        world.crash(victim)
        world.run()
        world.recover(victim)
        world.run()
    final = world.oracle.views_formed[-1]
    assert final.members == set(pids)
    assert world.all_in_view(final)
    run_verdict(world.trace, list(world.nodes), include=SAFETY_CODES).raise_for()
