"""Configuration wiring of the SimWorld assembly."""

import pytest

from repro.baselines import SequentialVsEndpoint
from repro.core import MinCopiesStrategy
from repro.net import ConstantLatency, SimWorld


def test_endpoint_options_forwarded():
    world = SimWorld(
        latency=ConstantLatency(1.0),
        forwarding=MinCopiesStrategy(),
        compact_syncs=True,
        ack_gc_interval=7,
        gc_views=False,
    )
    node = world.add_node("a")
    assert isinstance(node.endpoint.forwarding, MinCopiesStrategy)
    assert node.endpoint.compact_syncs
    assert node.endpoint.ack_gc_interval == 7
    assert not node.endpoint.gc_views


def test_endpoint_cls_override():
    world = SimWorld(latency=ConstantLatency(1.0), endpoint_cls=SequentialVsEndpoint)
    node = world.add_node("a")
    assert isinstance(node.endpoint, SequentialVsEndpoint)


def test_partition_without_reconfigure_just_cuts_links():
    world = SimWorld(latency=ConstantLatency(1.0), round_duration=1.0)
    nodes = world.add_nodes(["a", "b"])
    world.start()
    world.run()
    world.links.partition([["a"], ["b"]])
    nodes[0].send("into the void")
    world.run()
    assert nodes[1].delivered == []  # cut, and no new view was formed


def test_set_app_hooks_fire_after_bookkeeping():
    world = SimWorld(latency=ConstantLatency(1.0), round_duration=1.0)
    node = world.add_node("a")
    world.add_node("b")
    seen = []
    node.set_app(
        on_deliver=lambda sender, payload: seen.append(("dlv", sender, payload)),
        on_view=lambda view, T: seen.append(("view", view.vid.counter)),
    )
    world.start()
    world.run()
    world.nodes["b"].send("ping")
    world.run()
    assert ("view", 1) in seen
    assert ("dlv", "b", "ping") in seen
    assert node.delivered == [("b", "ping")]  # bookkeeping still happened


def test_server_mode_requires_servers():
    with pytest.raises(ValueError, match="at least one server"):
        SimWorld(latency=ConstantLatency(1.0), servers=0)


def test_explicit_home_server_assignment():
    world = SimWorld(latency=ConstantLatency(1.0), servers=2)
    world.add_nodes(["a", "b", "c"])
    world.start()
    world.run()
    # The tier homes clients itself: round-robin over the sorted pids.
    assert world.tier.clients_of(["srv:0"]) == {"a", "c"}
    assert world.tier.clients_of(["srv:1"]) == {"b"}
    assert {"a", "c"} <= world.tier.servers["srv:0"].local_clients


def test_servers_alone_selects_the_tier():
    world = SimWorld(latency=ConstantLatency(1.0), servers=2)
    world.add_nodes(["a", "b", "c"])
    world.start()
    world.run()
    assert world.oracle is None
    assert sorted(world.tier.servers) == ["srv:0", "srv:1"]
    assert world.all_in_view(world.views_formed[-1])
    assert SimWorld().tier is None  # no servers asked for: the scripted oracle


def test_sim_deployment_servers_are_crashable():
    import asyncio

    from repro.deploy import make_deployment

    async def scenario():
        deployment = make_deployment("sim", servers=3)
        await deployment.setup(["a", "b", "c"])
        return deployment.server_ids()

    assert asyncio.run(scenario()) == ["srv:0", "srv:1", "srv:2"]
