"""Integration-level unit tests for the SimWorld assembly."""

import pytest

from repro.checking import SAFETY_CODES, run_verdict
from repro.checking.events import MbrshpViewEvent, ViewEvent
from repro.errors import SettleTimeoutError
from repro.net import ConstantLatency, SimWorld


def make_world(**kwargs):
    defaults = dict(latency=ConstantLatency(1.0), round_duration=2.0)
    defaults.update(kwargs)
    world = SimWorld(**defaults)
    nodes = world.add_nodes([f"p{i}" for i in range(4)])
    world.start()
    world.run()
    return world, nodes


def test_initial_view_installed_everywhere():
    world, nodes = make_world()
    view = world.oracle.views_formed[0]
    assert world.all_in_view(view)
    assert all(node.views[0][0] == view for node in nodes)


def test_multicast_reaches_all_members():
    world, nodes = make_world()
    nodes[0].send("hello")
    world.run()
    for node in nodes:
        assert ("p0", "hello") in node.delivered


def test_sender_self_delivers():
    world, nodes = make_world()
    nodes[1].send("mine")
    world.run()
    assert ("p1", "mine") in nodes[1].delivered


def test_duplicate_process_rejected():
    world, _nodes = make_world()
    with pytest.raises(ValueError):
        world.add_node("p0")


def test_gcs_view_time_equals_membership_view_time():
    # The paper's one-round claim: with the sync round overlapped, the GCS
    # view lands at the same simulated instant as the membership view.
    world, nodes = make_world()
    nodes[0].send("traffic")
    world.run()
    world.partition([["p0", "p1"], ["p2", "p3"]])
    world.run()
    view = world.oracle.views_formed[-1]
    mb = max(e.time for e in world.trace.of_type(MbrshpViewEvent) if e.view == view)
    gcs = max(e.time for e in world.trace.of_type(ViewEvent) if e.view == view)
    assert gcs == pytest.approx(mb)


def test_partition_then_heal_safety():
    world, nodes = make_world()
    nodes[0].send("before")
    world.run()
    world.partition([["p0", "p1"], ["p2", "p3"]])
    world.run()
    nodes[0].send("island")
    nodes[2].send("other island")
    world.run()
    world.heal()
    world.run()
    final = world.oracle.views_formed[-1]
    assert world.all_in_view(final)
    run_verdict(world.trace, list(world.nodes), include=SAFETY_CODES).raise_for()


def test_message_counts_by_kind():
    world, nodes = make_world()
    nodes[0].send("x")
    world.run()
    counts = world.message_counts()
    assert counts.get("SyncMsg", 0) > 0
    assert counts.get("AppMsg", 0) == 3  # to the 3 peers
    assert counts.get("ViewMsg", 0) > 0


def test_strict_mode_runs_clean():
    world = SimWorld(latency=ConstantLatency(1.0), round_duration=1.0, strict=True, gc_views=False)
    nodes = world.add_nodes(["a", "b"])
    world.start()
    world.run()
    nodes[0].send("strict ok")
    world.run()
    assert ("a", "strict ok") in nodes[1].delivered


def test_current_views_snapshot():
    world, _nodes = make_world()
    views = world.current_views()
    assert set(views) == set(world.nodes)
    assert len({v.vid for v in views.values()}) == 1


def test_settle_raises_on_a_leaked_in_flight_count():
    """An empty event queue with copies still counted in flight is a
    ledger leak: the settle raises a ``SettleTimeoutError`` naming it (not
    a bare ``assert``, which ``python -O`` strips)."""
    world, _nodes = make_world()
    world.links.admit("p0", ["p1"], "forged")  # admitted, never scheduled
    assert world.clock.pending() == 0
    with pytest.raises(SettleTimeoutError, match="1 cop\\(ies\\) still in flight"):
        world.settle()
