"""Invariant checking against the *simulated* deployment.

The invariants of Sections 6-7 are usually asserted on the IOA model;
``WorldView.from_sim_world`` reconstructs the CO_RFIFO channel contents
from the simulator's transports and in-flight queues, so the same
predicates apply to simulated runs.  (Garbage collection must be off:
the formal invariants reference messages a GC-ing implementation has
legitimately discarded.)
"""

import pytest

from repro.checking.invariants import WorldView, check_invariants
from repro.errors import CrashedError
from repro.net import ConstantLatency, SimWorld, UniformLatency


def make_world(**kwargs):
    defaults = dict(
        latency=ConstantLatency(1.0),
        round_duration=2.0,
        gc_views=False,
    )
    defaults.update(kwargs)
    world = SimWorld(**defaults)
    nodes = world.add_nodes([f"p{i}" for i in range(4)])
    world.start()
    world.run()
    return world, nodes


def test_invariants_hold_at_quiescence():
    world, nodes = make_world()
    for node in nodes:
        node.send("x-" + node.pid)
    world.run()
    check_invariants(WorldView.from_sim_world(world))


def test_invariants_hold_mid_flight():
    world, nodes = make_world(latency=UniformLatency(0.5, 3.0, seed=2))
    for node in nodes:
        for i in range(3):
            node.send((node.pid, i))
    # check at several instants while messages are still on the wire
    for _ in range(6):
        world.run_until(world.now() + 0.7)
        check_invariants(WorldView.from_sim_world(world))
    world.run()
    check_invariants(WorldView.from_sim_world(world))


def test_invariants_hold_during_view_change():
    world, nodes = make_world(round_duration=4.0)
    for node in nodes:
        node.send("pre-" + node.pid)
    world.run()
    world.crash("p3")
    for _ in range(5):
        world.run_until(world.now() + 1.0)
        check_invariants(WorldView.from_sim_world(world))
    world.run()
    check_invariants(WorldView.from_sim_world(world))


def test_invariants_hold_across_partition_backlogs():
    world, nodes = make_world()
    world.partition([["p0", "p1"], ["p2", "p3"]])
    world.run()
    nodes[0].send("island message")
    world.run()
    check_invariants(WorldView.from_sim_world(world))
    world.heal()
    world.run()
    check_invariants(WorldView.from_sim_world(world))


def test_channel_reconstruction_sees_in_flight_messages():
    world, nodes = make_world()
    nodes[0].send("in flight")
    view = WorldView.from_sim_world(world)
    channel = view.channel_of("p0", "p1")
    assert any(getattr(m, "payload", None) == "in flight" for m in channel)
    world.run()
    assert WorldView.from_sim_world(world).channel_of("p0", "p1") == []


def test_send_on_crashed_node_raises():
    world, nodes = make_world()
    world.crash("p2")
    with pytest.raises(CrashedError):
        nodes[2].send("ghost message")
