"""Both membership implementations must satisfy the MBRSHP spec (Figure 2).

Each client's notice stream is replayed through the ``MbrshpSpec``
acceptor: any disabled step is a violation of the Figure 2 contract.
The tier is one MBRSHP service per group, so each named group's
``(group, pid)`` streams are replayed through an acceptor of their own.
"""


import pytest

from repro.chaos.faults import FaultInjector, FaultModel
from repro.checking.events import MbrshpStartChangeEvent, MbrshpViewEvent
from repro.ioa import Action
from repro.net import ConstantLatency, SimWorld
from repro.spec.mbrshp import MbrshpSpec


def replay_membership_events(trace, processes):
    spec = MbrshpSpec(processes)
    for event in trace:
        if isinstance(event, MbrshpStartChangeEvent):
            action = Action("mbrshp.start_change", (event.proc, event.cid, event.members))
        elif isinstance(event, MbrshpViewEvent):
            action = Action("mbrshp.view", (event.proc, event.view))
        else:
            continue
        assert spec.is_enabled(action), f"MBRSHP spec violated by {action!r}"
        spec.apply(action)
    return spec


@pytest.mark.parametrize("servers", [1, 2, 3])
def test_server_membership_satisfies_spec(servers):
    world = SimWorld(latency=ConstantLatency(1.0), servers=servers)
    world.add_nodes([f"p{i}" for i in range(5)])
    world.start()
    world.run(max_events=100_000)
    replay_membership_events(world.trace, list(world.nodes))


def test_server_membership_spec_through_churn():
    world = SimWorld(latency=ConstantLatency(1.0), servers=2)
    nodes = world.add_nodes([f"p{i}" for i in range(4)])
    world.start()
    world.run(max_events=100_000)
    world.crash(nodes[0].pid)
    world.run(max_events=100_000)
    world.recover(nodes[0].pid)
    world.run(max_events=100_000)
    replay_membership_events(world.trace, list(world.nodes))


def test_oracle_membership_satisfies_spec():
    world = SimWorld(latency=ConstantLatency(1.0), round_duration=2.0)
    world.add_nodes([f"p{i}" for i in range(5)])
    world.start()
    world.run()
    world.partition([["p0", "p1"], ["p2", "p3", "p4"]])
    world.run()
    world.heal()
    world.run()
    replay_membership_events(world.trace, list(world.nodes))


def test_oracle_with_repeated_changes_satisfies_spec():
    world = SimWorld(latency=ConstantLatency(1.0), round_duration=2.0)
    world.add_nodes(["a", "b", "c"])
    world.start()
    world.run_until(0.5)
    world.oracle.reconfigure([["a", "b", "c"]], extra_changes=2)
    world.run()
    replay_membership_events(world.trace, list(world.nodes))


PIDS = ["a", "b", "c", "d"]


def test_sharded_tier_satisfies_spec_across_resize_and_rebuild():
    """Twelve overlapping groups on three servers, the network delaying,
    duplicating and reordering, through every way a group's stream can
    be disturbed: join, leave, client crash + recovery, an owner crash
    (the move), the owner's recovery (no move back) and tier growth."""
    faults = FaultInjector(FaultModel(delay=0.2, duplicate=0.2, reorder=0.2, seed=11))
    world = SimWorld(latency=ConstantLatency(1.0), servers=3, faults=faults)
    world.add_processes(PIDS)
    names = [f"g{i:02d}" for i in range(12)]
    for group in names:
        world.set_group(group, PIDS[:3])
    world.settle()
    owners = {group: world.tier.owner_of(group) for group in names}
    assert set(owners.values()) == {"srv:0", "srv:1", "srv:2"}
    for group in names:
        world.join("d", group)
    world.run_until(world.now() + 0.5)  # a round is in flight at every owner...
    world.tier.crash_server("srv:2")  # ...when a crash kills some of them,
    for group in names:
        world.leave("a", group)
    world.settle()
    world.crash("b")
    world.run_until(world.now() + 0.5)
    world.tier.recover_server("srv:2")  # comes back empty: nothing moves back
    world.recover("b")
    world.tier.crash_server("srv:0")  # and a second move compounds the first
    world.settle()
    world.tier.recover_server("srv:0")
    world.tier.plan_partition([[]] * 5)  # growth (planning five components) moves nothing either
    moved = {group: world.tier.owner_of(group) for group in names}
    late = [f"late{i:02d}" for i in range(12)]
    for group in names + late:
        world.set_group(group, PIDS)
    world.settle()
    for group in names:
        if owners[group] == "srv:1":
            assert moved[group] == "srv:1"  # its owner never crashed: it never moved
        assert moved[group] != "srv:0"  # a recovered server gets nothing back
        assert world.tier.owner_of(group) == moved[group]  # sticky through growth
    assert {world.tier.owner_of(g) for g in late} & {"srv:3", "srv:4"}
    snapshot = faults.snapshot()
    assert min(snapshot[k] for k in ("delayed", "duplicated", "reordered")) > 0
    for group in names + late:
        spec = replay_membership_events(world.trace_of(group), PIDS)
        assert spec.current_view("a") == world.group_view(group)
        assert len({spec.current_view(pid) for pid in PIDS}) == 1


def test_client_attached_before_resize_to_memberless_group_hears_its_view():
    world = SimWorld(latency=ConstantLatency(1.0), servers=3)
    world.add_process("a")
    world.set_group("g", ["a"])
    world.settle()
    world.leave("a", "g")  # "a" keeps its end-point; the group has no members
    world.settle()
    heard = len(world.trace_of("g"))
    world.tier.crash_server(world.tier.owner_of("g"))  # it still moves
    world.settle()
    assert len(world.trace_of("g")) == heard  # silently: nobody to tell
    world.join("a", "g")
    world.settle()
    events = [
        e for e in world.trace_of("g").events[heard:]
        if isinstance(e, (MbrshpStartChangeEvent, MbrshpViewEvent))
    ]
    assert [type(e) for e in events] == [MbrshpStartChangeEvent, MbrshpViewEvent]
    assert events[-1].view == world.group_view("g")
    replay_membership_events(world.trace_of("g"), ["a"])
