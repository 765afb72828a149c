"""Many groups on the membership-server tier (ISSUE 7 S3, ISSUE 22).

Covers the consistent group->server map (determinism, balance, minimal
movement), the per-group Figure-2 notice discipline of a group's round
machine at its owning server, the durable floors that keep Local
Monotonicity alive when an owner crash moves a group (where a test name
says *resize* or *rebuild*, the move it exercises is an owner crash),
the crash fan-out locality claim, the tier's self-growing
``plan_partition``, and named groups of :class:`~repro.net.world.SimWorld`
end-to-end.
"""

import os
import socket
import subprocess
import sys

import pytest

import repro

from repro.checking import run_verdict
from repro.checking.events import MbrshpStartChangeEvent, MbrshpViewEvent
from repro.links import LinkCore
from repro.membership.protocol import GroupEnvelope, StartChangeNotice, ViewNotice
from repro.membership.tier import MembershipTier
from repro.net import ConstantLatency, SimWorld
from repro.scale.sharding import GroupShardMap, auto_shards
from tests.conftest import each_message

GROUPS = [f"g{i:04d}" for i in range(1000)]


class TestGroupShardMap:
    def test_deterministic(self):
        one, two = GroupShardMap(8), GroupShardMap(8)
        assert [one.shard_of(g) for g in GROUPS] == [two.shard_of(g) for g in GROUPS]

    def test_balanced(self):
        placement = GroupShardMap(8).placement(GROUPS)
        per_shard = [sum(1 for s in placement.values() if s == i) for i in range(8)]
        # Expected 125 per shard; CRC alone (without the finalizer mix)
        # fails this badly because same-length names get correlated
        # weights.
        assert all(70 <= count <= 190 for count in per_shard), per_shard

    def test_minimal_movement_on_grow(self):
        before = GroupShardMap(8).placement(GROUPS)
        after = GroupShardMap(9).placement(GROUPS)
        moved = sum(1 for g in GROUPS if before[g] != after[g])
        # HRW moves only groups won by the new shard: ~1/9 of them.
        assert 0 < moved < 2 * len(GROUPS) // 9
        # ...and every moved group moved *to* the new shard.
        assert all(after[g] == 8 for g in GROUPS if before[g] != after[g])

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            GroupShardMap(0)


def _world(pids, servers=3, **options):
    world = SimWorld(latency=ConstantLatency(1.0), servers=servers, **options)
    world.add_processes(pids)
    return world


def _notices(world, group, pid=None):
    """The membership notices delivered in ``group`` (at ``pid``), in order."""
    notices = []
    for event in world.trace_of(group):
        if pid is not None and event.proc != pid:
            continue
        if isinstance(event, MbrshpStartChangeEvent):
            notices.append(("sc", event.proc, event.cid, event.members))
        elif isinstance(event, MbrshpViewEvent):
            notices.append(("view", event.proc, event.view))
    return notices


def _tap(world):
    """Record ``(src, dst, group, notice)`` for every named-group notice
    the network *delivers* from here on."""
    heard = []
    for pid, deliver in list(world.network._handlers.items()):
        def note(src, message, pid=pid):
            if isinstance(message, GroupEnvelope) and isinstance(
                message.message, (StartChangeNotice, ViewNotice)
            ):
                heard.append((src, pid, message.group, message.message))

        def handle(run, note=each_message(note), deliver=deliver):
            note(run)
            deliver(run)

        world.network.register(pid, handle)
    return heard


class TestMembershipShard:
    """One group's round machine at its owning server (what a
    ``MembershipShard`` was, on the real protocol)."""

    def test_notice_discipline(self):
        world = _world(["a", "b"], servers=1)
        view = world.set_group("g", ["a", "b"])
        world.settle()
        # start_change precedes the view at every client, and the view
        # carries the cids the clients were handed.
        for pid in ("a", "b"):
            assert [kind for kind, *_ in _notices(world, "g", pid)] == ["sc", "view"]
        cids = {pid: cid for kind, pid, cid, *_ in _notices(world, "g") if kind == "sc"}
        assert cids == dict(view.start_ids)
        assert world.group_view("g") == view and world.settled("g")

    def test_superseded_notices_cancelled(self):
        world = _world(["a", "b", "c"])
        world.set_group("g", ["a", "b", "c"])
        world.settle()
        superseded = world.set_group("g", ["a", "b"])  # on the wire...
        world.tier.crash_server(world.tier.owner_of("g"))  # ...when its sender dies
        world.settle()
        final = world.group_view("g")
        # A network has no cancel: the one way a notice is superseded is
        # that it dies on the wire with its sender.  Only the successor
        # speaks for a and b.
        assert final.vid > superseded.vid and final.members == {"a", "b"}
        for pid in ("a", "b"):
            views = [n[2] for n in _notices(world, "g", pid) if n[0] == "view"]
            assert superseded not in views and views[-1] == final

    def test_crashed_clients_get_nothing(self):
        world = _world(["a", "b"], servers=1)
        world.crash("b")
        view = world.set_group("g", ["a", "b"])
        world.settle()
        assert view.members == frozenset({"a"})
        assert all(pid == "a" for _, pid, *rest in _notices(world, "g"))

    def test_reconfigure_requires_ownership(self):
        """Only a group's owner ever speaks for it."""
        pids = [f"p{i}" for i in range(4)]
        world = _world(pids)
        heard = _tap(world)
        names = [f"g{i}" for i in range(9)]

        def owners_speak():
            world.settle()
            assert heard
            for src, _dst, group, _notice in heard:
                assert src == world.tier.owner_of(group)
            heard.clear()

        for name in names:
            world.set_group(name, pids[:3])
        owners_speak()
        for name in names:
            world.join(pids[3], name)
        owners_speak()
        world.tier.crash_server("srv:1")
        owners_speak()
        world.tier.recover_server("srv:1")
        world.crash(pids[0])
        owners_speak()
        assert "srv:1" not in {world.tier.owner_of(name) for name in names}


class TestShardedTier:
    def _ring(self, servers=3):
        """Group gN = {pN, pN+1, pN+2} on a ring of nine processes."""
        pids = [f"p{i}" for i in range(9)]
        world = _world(pids, servers=servers)
        for i in range(9):
            world.set_group(f"g{i}", [pids[(i + k) % 9] for k in range(3)])
        world.settle()
        return world

    def test_crash_fans_out_to_own_groups_only(self):
        world = self._ring()
        before = {f"g{i}": len(world.trace_of(f"g{i}")) for i in range(9)}
        views = world.crash("p4")
        world.settle()
        # p4 is in g2, g3, g4 and nothing else.
        assert len(views) == 3
        assert all("p4" not in view.members for view in views)
        for i in range(9):
            touched = len(world.trace_of(f"g{i}")) > before[f"g{i}"]
            assert touched == (i in (2, 3, 4)), i

    def test_server_crash_reforms_exactly_the_groups_it_owned(self):
        world = self._ring()
        world.add_nodes(["q0", "q1"])
        world.start()
        world.settle()
        owners = {f"g{i}": world.tier.owner_of(f"g{i}") for i in range(9)}
        assert set(owners.values()) == {"srv:0", "srv:1", "srv:2"}
        formed = {g: len(world.tier.group_views(g)) for g in owners}
        default_views = len(world.views_formed)
        heard = _tap(world)
        world.tier.crash_server("srv:2")
        world.settle()
        for group, owner in owners.items():
            moved = owner == "srv:2"
            assert len(world.tier.group_views(group)) == formed[group] + moved
            assert (world.tier.owner_of(group) != owner) == moved
        # a group on a surviving server sees no notice at all
        assert {g for _s, _d, g, _n in heard} == {g for g, o in owners.items() if o == "srv:2"}
        # ...and the default group re-forms, as it always did
        assert len(world.views_formed) == default_views + 1
        assert all(world.settled(g) for g in owners)

    def test_resize_preserves_local_monotonicity(self):
        world = _world(["a", "b", "c"])
        world.set_group("g", ["a", "b", "c"])
        world.settle()
        old = world.group_view("g")
        world.tier.crash_server(world.tier.owner_of("g"))
        world.settle()
        world.set_group("g", ["a", "b"])
        world.settle()
        new = world.group_view("g")
        # The successor re-created the machine from the group's durable
        # counter floor and the tier's cid registry: the vid and every
        # cid issued after the move are strictly greater than anything
        # issued before it.
        assert new.vid > old.vid
        assert min(new.start_ids.values()) > max(old.start_ids.values())
        assert new.vid.origin != old.vid.origin  # it really moved

    def test_resize_reattaches_sinks(self):
        world = _world(["a"])
        world.set_group("g", ["a"])
        world.settle()
        first = world.group_view("g")
        world.tier.crash_server(world.tier.owner_of("g"))
        world.settle()
        views = [n[2] for n in _notices(world, "g", "a") if n[0] == "view"]
        # one view from each side of the move: the successor reaches the
        # group's clients over its own link
        assert views == [first, world.group_view("g")] and len(set(views)) == 2


class _GrowableLink:
    """A TierLink that records what attached (like the asyncio hub)."""

    def __init__(self):
        self.handlers = {}

    def attach(self, sid, handler):
        self.handlers[sid] = handler

    def send(self, src, targets, message):
        pass


class _SocketLink(_GrowableLink):
    """A TierLink whose ``attach`` opens a real listening socket, the way
    ``TcpFabric.attach`` does: bound at once, no loop, nothing awaited."""

    def __init__(self):
        super().__init__()
        self.sockets = []

    def attach(self, sid, handler):
        super().attach(sid, handler)
        self.sockets.append(socket.create_server(("127.0.0.1", 0)))

    def close(self):
        for sock in self.sockets:
            sock.close()


class TestPlanPartitionSelfGrow:
    def test_grows_over_sync_attachable_link(self):
        link = _GrowableLink()
        tier = MembershipTier(link, servers=1, links=LinkCore())
        tier.start()
        assert len(tier.servers) == 1
        plan = tier.plan_partition([["a"], ["b"], ["c"]])
        assert len(tier.servers) == 3
        assert len(plan.assignment) == 3
        assert set(plan.assignment) <= set(link.handlers)

    def test_grows_over_a_socket_link(self):
        link = _SocketLink()
        tier = MembershipTier(link, servers=1, links=LinkCore())
        tier.start()
        try:
            plan = tier.plan_partition([["a"], ["b"], ["c"]])
            assert sorted(plan.assignment) == sorted(link.handlers) == sorted(tier.servers)
            assert len(link.sockets) == 3
            assert all(sock.getsockname()[1] for sock in link.sockets)  # bound
        finally:
            link.close()


class TestScaleWorld:
    def test_many_groups_end_to_end(self):
        world = SimWorld(servers=auto_shards(6))
        pids = [f"p{i:02d}" for i in range(12)]
        world.add_processes(pids)
        names = [f"g{i}" for i in range(6)]
        for index, name in enumerate(names):
            world.set_group(name, [pids[(index + k) % 12] for k in range(3)])
        world.run()
        assert all(world.settled(name) for name in names)
        touched = world.crash("p01")  # member of g0 and g1 only
        assert len(touched) == 2
        world.run()
        assert all(world.settled(name) for name in names)
        for name in ("g0", "g1"):
            assert "p01" not in world.group_view(name).members


@pytest.mark.parametrize(
    "first",
    [
        "repro.membership.tier",
        "repro.membership.oracle",
        "repro.chaos.runner",
        "repro.runtime.tcp",
        "repro.net.world",
        "repro.scale.sharding",
        "repro.deploy",
        "repro.scale",
        "repro.runtime",
        "repro.runtime.cluster",
        "repro.deploy.base",
    ],
)
def test_no_package_import_cycle(first):
    """``membership.tier`` and ``net.world`` need ``scale.sharding``,
    ``net.world`` needs ``membership.protocol``, ``deploy`` needs
    ``net.world`` and ``runtime.cluster``, which needs ``deploy.base``
    back: each must import first in a fresh interpreter."""
    src = os.path.dirname(os.path.dirname(repro.__file__))
    completed = subprocess.run(
        [sys.executable, "-c", f"import {first}, repro.deploy, repro.scale, repro.chaos"],
        env={**os.environ, "PYTHONPATH": src},
        capture_output=True,
        text=True,
    )
    assert completed.returncode == 0, completed.stderr


class TestShardMapSkew:
    """HRW distribution skew, bounded across shard counts (not just 8)."""

    @pytest.mark.parametrize("shards", [2, 3, 5, 8, 13])
    def test_skew_bound(self, shards):
        placement = GroupShardMap(shards).placement(GROUPS)
        loads = [sum(1 for s in placement.values() if s == i) for i in range(shards)]
        mean = len(GROUPS) / shards
        assert min(loads) > 0.55 * mean, (shards, loads)
        assert max(loads) < 1.55 * mean, (shards, loads)

    def test_every_shard_wins_something(self):
        placement = GroupShardMap(16).placement(GROUPS)
        assert set(placement.values()) == set(range(16))


class TestConsecutiveResizes:
    """Floors must compound across *consecutive* owner crashes, not just
    survive one (the single-move test above)."""

    def _watermark_history(self, crashes):
        """40 groups on three servers; crash the listed servers in turn
        (recovering each before the next goes, so two always survive)."""
        pids = ["a", "b", "c"]
        world = _world(pids)
        for group in GROUPS[:40]:
            world.set_group(group, pids)
        world.settle()
        owners = {g: [world.tier.owner_of(g)] for g in GROUPS[:40]}
        for sid in crashes:
            world.tier.crash_server(sid)
            world.settle()
            world.tier.recover_server(sid)
            world.settle()
            for group in GROUPS[:40]:
                owners[group].append(world.tier.owner_of(group))
        for group in GROUPS[:40]:
            run_verdict(
                world.trace_of(group), pids, final_view=world.group_view(group)
            ).raise_for()
        return world, owners

    def test_counters_rise_through_grow_shrink_grow(self):
        world, owners = self._watermark_history(["srv:2", "srv:1", "srv:0", "srv:2"])
        moved_twice = 0
        for group, path in owners.items():
            views = world.tier.group_views(group)
            moves = sum(1 for before, after in zip(path, path[1:]) if before != after)
            assert len(views) == 1 + moves  # re-formed by each move and nothing else
            counters = [v.vid.counter for v in views]
            assert counters == sorted(set(counters)), (group, counters)
            for pid in ("a", "b", "c"):
                # per (group, pid): the successor's first cid strictly
                # exceeds the predecessor's last
                cids = [v.start_ids[pid] for v in views]
                assert cids == sorted(set(cids)), (group, pid, cids)
            assert [v.vid.origin for v in views] == [
                owner for i, owner in enumerate(path) if i == 0 or owner != path[i - 1]
            ]
            moved_twice += moves >= 2
        # The sequence must actually have moved some group on two
        # *successive* owner crashes, or the test proves nothing.
        assert moved_twice, "no group relocated on consecutive owner crashes"

    def test_moved_floors_are_recorded_durably(self):
        world, owners = self._watermark_history(["srv:2", "srv:0"])
        store = world.tier.store
        assert any(len(set(path)) > 1 for path in owners.values())
        for group in owners:
            view = world.group_view(group)
            assert store.counter_floor(group) == view.vid.counter
        assert store.counter_floor("never-formed") == 0
        # named groups count on their own: the default group's floor is
        # what the default group formed (nothing, here)
        assert store.counter_floor() == world.tier.watermark() == 0


class TestShardRebuild:
    def test_rebuild_seeds_from_durable_floors(self):
        pids = ["a", "b"]
        world = _world(pids, servers=2)
        for group in GROUPS[:10]:
            world.set_group(group, pids)
        world.settle()
        dead = world.tier.owner_of(GROUPS[0])
        owned = [g for g in GROUPS[:10] if world.tier.owner_of(g) == dead]
        before = {g: world.group_view(g) for g in owned}
        machines = {g: world.tier._groups[g].machine for g in owned}
        world.tier.crash_server(dead)
        world.settle()
        for group in owned:
            # Total amnesia: the successor's machine is a fresh one...
            machine = world.tier._groups[group].machine
            assert machine is not machines[group] and machines[group].crashed
            assert machine.rounds_started == 1
            after = world.group_view(group)
            # ...yet every new view is strictly above the pre-crash one,
            # because it was seeded from the tier's durable floors.
            assert after.vid.counter > before[group].vid.counter
            assert min(after.start_ids.values()) > max(before[group].start_ids.values())
            assert world.node("a", group).current_view == after  # and it was heard

    def test_dead_shard_pending_notices_are_cancelled(self):
        world = _world(["a", "b"])
        world.set_group("g", ["a"])
        world.settle()
        dead = world.tier.owner_of("g")
        machine = world.tier._groups["g"].machine
        heard = _tap(world)
        in_flight = world.set_group("g", ["a", "b"])  # its notices are on the wire
        world.tier.crash_server(dead)  # crash while they are in flight
        machine.begin_round(machine.round + 1)  # a dead machine starts nothing
        machine.client_crashed("a")
        world.settle()
        # a dead owner never speaks: its in-flight round died with it and
        # the successor's notices are the only ones delivered
        assert heard and all(src != dead for src, *_ in heard)
        assert in_flight not in [n.view for *_, n in heard if isinstance(n, ViewNotice)]
        assert world.group_view("g").members == {"a", "b"} and world.settled("g")


class TestGroupsBeforeStart:
    """E19's group-axis world has no default-group node and never calls
    ``start()``: the first named group grows the tier itself."""

    def test_named_groups_grow_the_tier_through_attach_sync(self):
        world = _world(["a", "b"], servers=3)
        assert not world.tier.servers and not world.tier.started
        world.set_group("g", ["a", "b"])
        assert sorted(world.tier.servers) == ["srv:0", "srv:1", "srv:2"]
        world.settle()
        assert world.settled("g") and not world.tier.started
        assert world.views_formed == [] and len(world.trace) == 0

    def test_named_groups_grow_over_a_socket_link(self):
        link = _SocketLink()
        tier = MembershipTier(link, servers=2, links=LinkCore())
        try:
            assert tier.set_group("g", ["a"]).members == {"a"}  # _place before start
            assert tier.owner_of("g") in tier.servers and not tier.started
            assert len(link.sockets) == 2
        finally:
            link.close()
