"""Both membership implementations must satisfy the MBRSHP spec (Figure 2).

Each client's notice stream is replayed through the ``MbrshpSpec``
acceptor: any disabled step is a violation of the Figure 2 contract.
The sharded tier is one MBRSHP service per group, so each group's
``(group, pid)`` streams are replayed through an acceptor of their own.
"""

import pytest

from repro.checking.events import MbrshpStartChangeEvent, MbrshpViewEvent
from repro.ioa import Action
from repro.membership.oracle import OracleMembership
from repro.net import ConstantLatency, SimWorld
from repro.net.simclock import EventScheduler
from repro.scale.sharding import GroupShardMap, ShardedMembershipTier
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


def recording_sinks(events, clock, pid):
    """Membership sinks logging ``pid``'s notices as replayable events."""
    return (
        lambda cid, members: events.append(
            MbrshpStartChangeEvent(clock.now, pid, cid, members)
        ),
        lambda view: events.append(MbrshpViewEvent(clock.now, pid, view)),
    )


@pytest.mark.parametrize("servers", [1, 2, 3])
def test_server_membership_satisfies_spec(servers):
    world = SimWorld(latency=ConstantLatency(1.0), membership="tier", servers=servers)
    world.add_nodes([f"p{i}" for i in range(5)])
    world.start()
    world.run(max_events=100_000)
    replay_membership_events(world.trace, list(world.nodes))


def test_server_membership_spec_through_churn():
    world = SimWorld(latency=ConstantLatency(1.0), membership="tier", servers=2)
    nodes = world.add_nodes([f"p{i}" for i in range(4)])
    world.start()
    world.run(max_events=100_000)
    world.crash(nodes[0].pid)
    world.run(max_events=100_000)
    world.recover(nodes[0].pid)
    world.run(max_events=100_000)
    replay_membership_events(world.trace, list(world.nodes))


def test_oracle_membership_satisfies_spec():
    world = SimWorld(latency=ConstantLatency(1.0), membership="oracle", round_duration=2.0)
    world.add_nodes([f"p{i}" for i in range(5)])
    world.start()
    world.run()
    world.partition([["p0", "p1"], ["p2", "p3", "p4"]])
    world.run()
    world.heal()
    world.run()
    replay_membership_events(world.trace, list(world.nodes))


def test_oracle_with_repeated_changes_satisfies_spec():
    world = SimWorld(latency=ConstantLatency(1.0), membership="oracle", round_duration=2.0)
    world.add_nodes(["a", "b", "c"])
    world.start()
    world.run_until(0.5)
    world.oracle.reconfigure([["a", "b", "c"]], extra_changes=2)
    world.run()
    replay_membership_events(world.trace, list(world.nodes))


PIDS = ["a", "b", "c", "d"]


def test_sharded_tier_satisfies_spec_across_resize_and_rebuild():
    clock = EventScheduler()
    tier = ShardedMembershipTier(clock, shards=2, round_duration=2.0)
    small, large = GroupShardMap(2), GroupShardMap(5)
    names = [f"g{i:02d}" for i in range(12)]
    assert any(small.shard_of(g) != large.shard_of(g) for g in names)
    streams = {group: [] for group in names}
    for group in names:
        for pid in PIDS:
            tier.attach_client(group, pid, *recording_sinks(streams[group], clock, pid))
        tier.set_group(group, PIDS[:3])
    clock.run()
    for group in names:
        tier.join(group, "d")
    clock.run_until(clock.now + 1.0)  # a round is in flight at every shard...
    tier.resize(5)  # ...when a move cancels some of them,
    for group in names:
        tier.leave(group, "a")
    clock.run()
    tier.client_crashed("b")
    clock.run_until(clock.now + 1.0)
    for index in range(len(tier.shards)):
        tier.rebuild_shard(index)  # and total amnesia the rest
    tier.client_recovered("b")
    tier.resize(3)
    for group in names:
        tier.set_group(group, PIDS)
    clock.run()
    for group in names:
        spec = replay_membership_events(streams[group], PIDS)
        assert spec.current_view("a") == tier.group_view(group)
        assert len({spec.current_view(pid) for pid in PIDS}) == 1


def test_client_attached_before_resize_to_memberless_group_hears_its_view():
    clock = EventScheduler()
    tier = ShardedMembershipTier(clock, shards=2)
    small, large = GroupShardMap(2), GroupShardMap(4)
    group = next(
        g for g in (f"g{i}" for i in range(100))
        if small.shard_of(g) != large.shard_of(g)
    )
    events = []
    tier.attach_client(group, "a", *recording_sinks(events, clock, "a"))
    tier.resize(4)  # the group has sinks but no members yet; it still moves
    view = tier.join(group, "a")
    clock.run()
    assert [type(e) for e in events] == [MbrshpStartChangeEvent, MbrshpViewEvent]
    assert events[-1].view == view


def test_one_shard_tier_issues_what_a_bare_oracle_issues():
    """The same script through both: identical cids, counters, startIds."""

    def script(attach, reconfigure, clock):
        events = []
        for pid in PIDS:
            attach(pid, *recording_sinks(events, clock, pid))
        reconfigure(PIDS[:3], 0)
        clock.run()
        reconfigure(PIDS, 2)  # the service changes its mind twice
        clock.run_until(clock.now + 0.5)
        reconfigure(PIDS[1:], 0)  # supersedes the round in flight
        clock.run()
        reconfigure(PIDS, 1)
        clock.run()
        replay_membership_events(events, PIDS)
        return [
            (e.time, e.proc, e.cid, e.members)
            if isinstance(e, MbrshpStartChangeEvent)
            else (e.time, e.proc, e.view.vid.counter, e.view.members, dict(e.view.start_ids))
            for e in events
        ]

    clock = EventScheduler()
    oracle = OracleMembership(clock, round_duration=2.0)
    bare = script(
        oracle.attach_client,
        lambda members, extra: oracle.reconfigure([members], extra_changes=extra),
        clock,
    )

    clock = EventScheduler()
    tier = ShardedMembershipTier(clock, shards=1, round_duration=2.0)
    issuer = tier.shard_of("g").issuer
    sharded = script(
        lambda pid, *sinks: tier.attach_client("g", pid, *sinks),
        lambda members, extra: issuer.reconfigure([members], extra_changes=extra, scope="g"),
        clock,
    )
    assert sharded == bare
    heard = {(entry[1], entry[2]) for entry in bare if len(entry) == 5}
    # view 2 was superseded at b, c and d but not at a, whom round 3 left out
    assert ("a", 2) in heard and ("b", 2) not in heard
