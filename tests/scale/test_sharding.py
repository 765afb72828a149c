"""Group-sharded membership tier (ISSUE 7, S3).

Covers the consistent group->shard map (determinism, balance, minimal
movement), the per-shard Figure-2 notice discipline, the watermark-seeded
counters that keep Local Monotonicity alive across a resize, the crash
fan-out locality claim, the tier's self-growing ``plan_partition``, and
named groups of the sharded :class:`~repro.net.world.SimWorld` end-to-end.
"""

import asyncio
import os
import subprocess
import sys

import pytest

import repro

from repro.membership.tier import MembershipTier
from repro.net import SimWorld
from repro.net.simclock import EventScheduler
from repro.scale.sharding import (
    GroupShardMap,
    MembershipShard,
    ShardedMembershipTier,
    auto_shards,
)

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


def _recording_shard(**kwargs):
    clock = EventScheduler()
    shard = MembershipShard(0, clock, set(), **kwargs)
    notices = []

    def attach(group, pid):
        shard.attach_client(
            group,
            pid,
            lambda cid, members, p=pid: notices.append(("sc", p, cid, members)),
            lambda view, p=pid: notices.append(("view", p, view)),
        )

    return clock, shard, notices, attach


class TestMembershipShard:
    def test_notice_discipline(self):
        clock, shard, notices, attach = _recording_shard()
        shard.adopt("g")
        for pid in ("a", "b"):
            attach("g", pid)
        view = shard.reconfigure("g", ["a", "b"])
        clock.run()
        # start_change precedes the view at every client, cids are
        # distinct, and the view carries them.
        assert [kind for kind, *_ in notices] == ["sc", "sc", "view", "view"]
        cids = {pid: cid for kind, pid, cid, _ in notices[:2]}
        assert cids == dict(view.start_ids)
        assert len(set(cids.values())) == 2

    def test_superseded_notices_cancelled(self):
        clock, shard, notices, attach = _recording_shard()
        shard.adopt("g")
        for pid in ("a", "b", "c"):
            attach("g", pid)
        shard.reconfigure("g", ["a", "b", "c"])
        final = shard.reconfigure("g", ["a", "b"])  # before anything fired
        clock.run()
        # Only the latest reconfiguration speaks for a and b; c (dropped)
        # still sees the first round's notices - it was never superseded
        # *at c*.
        views = [n[2] for n in notices if n[0] == "view" and n[1] != "c"]
        assert views == [final, final]

    def test_crashed_clients_get_nothing(self):
        clock, shard, notices, attach = _recording_shard()
        shard.issuer.client_crashed("b")
        shard.adopt("g")
        for pid in ("a", "b"):
            attach("g", pid)
        view = shard.reconfigure("g", ["a", "b"])
        clock.run()
        assert view.members == frozenset({"a"})
        assert all(pid == "a" for _, pid, *rest in notices)

    def test_reconfigure_requires_ownership(self):
        clock, shard, _notices, _attach = _recording_shard()
        with pytest.raises(ValueError):
            shard.reconfigure("nobody", ["a"])


class TestShardedTier:
    def _tier(self, shards=3):
        clock = EventScheduler()
        return clock, ShardedMembershipTier(clock, shards=shards)

    def test_crash_fans_out_to_own_groups_only(self):
        clock, tier = self._tier()
        pids = [f"p{i}" for i in range(9)]
        for i in range(9):  # group gN = {pN, pN+1, pN+2} on a ring
            tier.set_group(f"g{i}", [pids[(i + k) % 9] for k in range(3)])
        clock.run()
        views = tier.client_crashed("p4")
        # p4 is in g2, g3, g4 and nothing else.
        assert len(views) == 3
        assert all("p4" not in view.members for view in views)

    def test_resize_preserves_local_monotonicity(self):
        clock, tier = self._tier(shards=2)
        small, large = GroupShardMap(2), GroupShardMap(3)
        group = next(g for g in GROUPS if small.shard_of(g) != large.shard_of(g))
        tier.set_group(group, ["a", "b", "c"])
        clock.run()
        old = tier.group_view(group)
        moved = tier.resize(3)
        assert group in moved
        tier.set_group(group, ["a", "b"])
        clock.run()
        new = tier.group_view(group)
        # The successor shard seeded its counters with the predecessor's
        # watermarks: the vid and every cid issued after the move are
        # strictly greater than anything issued before it.
        assert new.vid > old.vid
        assert min(new.start_ids.values()) > max(old.start_ids.values())
        assert new.vid.origin != old.vid.origin  # it really moved

    def test_resize_reattaches_sinks(self):
        clock, tier = self._tier(shards=2)
        small, large = GroupShardMap(2), GroupShardMap(3)
        group = next(g for g in GROUPS if small.shard_of(g) != large.shard_of(g))
        views = []
        tier.attach_client(group, "a", lambda cid, m: None, views.append)
        tier.set_group(group, ["a"])
        clock.run()  # first view lands before the move (release cancels
        # anything still pending - a shard never speaks for a group it
        # no longer owns)
        tier.resize(3)
        tier.reconfigure_group(group)
        clock.run()
        assert len(views) == 2  # one view from each side of the move


class _GrowableLink:
    """A TierLink whose attach needs no awaiting (like the asyncio hub)."""

    def __init__(self):
        self.handlers = {}

    async def attach(self, sid, handler):
        self.attach_sync(sid, handler)

    def attach_sync(self, sid, handler):
        self.handlers[sid] = handler

    def send(self, src, targets, message):
        pass


class _SocketishLink:
    """A TierLink that must await attachment (like TCP): no attach_sync."""

    def __init__(self):
        self.handlers = {}

    async def attach(self, sid, handler):
        self.handlers[sid] = handler

    def send(self, src, targets, message):
        pass


class TestPlanPartitionSelfGrow:
    def test_grows_over_sync_attachable_link(self):
        link = _GrowableLink()
        tier = MembershipTier(link, servers=1)
        asyncio.run(tier.start())
        assert len(tier.servers) == 1
        plan = tier.plan_partition([["a"], ["b"], ["c"]])
        assert len(tier.servers) == 3
        assert len(plan.assignment) == 3
        assert set(plan.assignment) <= set(link.handlers)

    def test_explicit_ensure_capacity_still_works(self):
        link = _GrowableLink()
        tier = MembershipTier(link, servers=1)

        async def grow():
            await tier.start()
            await tier.ensure_capacity(3)

        asyncio.run(grow())
        assert len(tier.plan_partition([["a"], ["b"], ["c"]]).assignment) == 3

    def test_await_only_link_still_demands_capacity(self):
        tier = MembershipTier(_SocketishLink(), servers=1)
        asyncio.run(tier.start())
        with pytest.raises(ValueError, match="ensure_capacity"):
            tier.plan_partition([["a"], ["b"]])


class TestScaleWorld:
    def test_many_groups_end_to_end(self):
        world = SimWorld(shards=auto_shards(6))
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
    "first", ["repro.net.world", "repro.scale.sharding", "repro.deploy", "repro.scale"]
)
def test_no_package_import_cycle(first):
    """``net.world`` needs ``scale.sharding`` and ``deploy`` needs
    ``net.world``: each must import first in a fresh interpreter."""
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
    """Watermark carry-over must compound across *consecutive* resizes,
    not just survive one (the single-resize test above)."""

    def _watermark_history(self, sizes):
        clock = EventScheduler()
        tier = ShardedMembershipTier(clock, shards=sizes[0])
        for group in GROUPS[:40]:
            tier.set_group(group, ["a", "b", "c"])
        clock.run()
        history = {g: [tier.group_view(g)] for g in GROUPS[:40]}
        for size in sizes[1:]:
            tier.resize(size)
            for group in GROUPS[:40]:
                tier.reconfigure_group(group)
            clock.run()
            for group in GROUPS[:40]:
                history[group].append(tier.group_view(group))
        return tier, history

    def test_counters_rise_through_grow_shrink_grow(self):
        tier, history = self._watermark_history([2, 3, 2, 5])
        bounced = 0
        for group, views in history.items():
            counters = [v.vid.counter for v in views]
            assert counters == sorted(set(counters)), (group, counters)
            cids = [max(v.start_ids.values()) for v in views]
            assert cids == sorted(set(cids)), (group, cids)
            if len({v.vid.origin for v in views}) > 1:
                bounced += 1
        # The sequence must actually have exercised relocation (and for
        # some group more than once), or the test proves nothing.
        assert bounced > 0
        moved_twice = [
            g for g, views in history.items()
            if len({v.vid.origin for v in views}) >= 3
        ]
        assert moved_twice, "no group relocated on consecutive resizes"

    def test_moved_floors_are_recorded_durably(self):
        tier, history = self._watermark_history([2, 4])
        for group, views in history.items():
            cid_floor, counter_floor = tier.floors[group]
            assert counter_floor >= views[-1].vid.counter
            assert cid_floor >= max(views[-1].start_ids.values())


class TestShardRebuild:
    def test_rebuild_seeds_from_durable_floors(self):
        clock = EventScheduler()
        tier = ShardedMembershipTier(clock, shards=2)
        views = {}
        for group in GROUPS[:10]:
            tier.attach_client(
                group, "a", lambda cid, m: None,
                lambda view, g=group: views.setdefault(g, []).append(view),
            )
            tier.set_group(group, ["a", "b"])
        clock.run()
        index = next(
            i for i, shard in enumerate(tier.shards) if shard.groups
        )
        owned = sorted(tier.shards[index].groups)
        before = {g: tier.group_view(g) for g in owned}
        fresh = tier.rebuild_shard(index)
        # Total amnesia: the fresh shard never saw the old counters...
        assert fresh.group_view(owned[0]) is None
        for group in owned:
            tier.reconfigure_group(group)
        clock.run()
        for group in owned:
            after = tier.group_view(group)
            # ...yet every new view is strictly above the pre-crash one,
            # because adoption was seeded from the tier's durable floors.
            assert after.vid.counter > before[group].vid.counter
            assert min(after.start_ids.values()) > max(before[group].start_ids.values())
            assert views[group][-1] == after  # sinks were reattached

    def test_dead_shard_pending_notices_are_cancelled(self):
        clock = EventScheduler()
        tier = ShardedMembershipTier(clock, shards=2, round_duration=5.0)
        delivered = []
        group = GROUPS[0]
        tier.attach_client(group, "a", lambda cid, m: None, delivered.append)
        tier.set_group(group, ["a"])
        index = tier.map.shard_of(group)
        tier.rebuild_shard(index)  # crash while the view notice is in flight
        clock.run()
        assert delivered == []  # a dead shard never speaks
