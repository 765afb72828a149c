"""Group-sharded membership for the many-groups regime (§1, §9).

The paper motivates the client-server architecture with scalability "in
the number of groups": a small tier of membership servers tracks many
multicast groups.  :class:`~repro.net.world.SimWorld` realises the client
side (one end-point per joined group over a shared transport); this
module supplies the server side:

* :class:`GroupShardMap` - a consistent group -> shard mapping
  (highest-random-weight over ``crc32``, so it is a pure deterministic
  function of the group name and the shard count, stable under resizes);
* :class:`MembershipShard` - one membership server serving many groups:
  group ownership over an
  :class:`~repro.membership.oracle.OracleMembership` issuer, which keeps
  the Figure 2 discipline per ``(group, pid)`` end-point;
* :class:`ShardedMembershipTier` - the tier: routes every group
  operation to the owning shard only, fans a process crash out to
  exactly the shards owning one of its groups, and - when the tier is
  resized - moves each relocated group with its counter *watermarks*, so
  the successor shard issues cids and view counters strictly above
  anything the predecessor did and Local Monotonicity (Property 3.1)
  survives the move.
"""

from __future__ import annotations

import math
import zlib
from typing import Dict, FrozenSet, Iterable, List, Optional, Set, Tuple

from repro.membership.oracle import OracleMembership, StartChangeSink, ViewSink
from repro.types import ProcessId, View

GroupName = str


class GroupShardMap:
    """Consistent group -> shard mapping by highest random weight.

    Every (group, shard) pair gets a deterministic weight; a group lives
    on its highest-weight shard.  Growing the tier from k to k+1 shards
    therefore relocates only the groups whose new shard outweighs all
    old ones - about 1/(k+1) of them - and the mapping needs no stored
    state at all.  Weights are ``crc32`` of the group name (stable
    across interpreter runs, unlike salted ``hash()``) mixed with the
    shard index through a murmur-style finalizer: CRC alone is linear,
    so ``crc32(g|i)`` and ``crc32(g|j)`` differ by a *constant* for all
    same-length names and the resulting placement is badly skewed.
    """

    def __init__(self, shards: int) -> None:
        if shards < 1:
            raise ValueError("need at least one shard")
        self.shards = shards

    @staticmethod
    def _weight(group_hash: int, index: int) -> int:
        x = (group_hash ^ (index * 0x9E3779B9)) & 0xFFFFFFFF
        x = (x * 0x85EBCA6B) & 0xFFFFFFFF
        x ^= x >> 13
        x = (x * 0xC2B2AE35) & 0xFFFFFFFF
        x ^= x >> 16
        return x

    def shard_of(self, group: GroupName) -> int:
        group_hash = zlib.crc32(group.encode("utf-8"))
        return max(
            range(self.shards),
            key=lambda index: (self._weight(group_hash, index), -index),
        )

    def placement(self, groups: Iterable[GroupName]) -> Dict[GroupName, int]:
        return {group: self.shard_of(group) for group in groups}


def auto_shards(groups: int) -> int:
    """Default shard count for ``groups`` groups: ~sqrt(g), capped at 32."""
    return max(1, min(32, round(math.sqrt(max(groups, 1)))))


class MembershipShard:
    """One membership server of a sharded tier: which groups it owns.

    Everything Figure 2 - cids, view counters, the cancellable
    start_change / view notices - is the shard's
    :class:`~repro.membership.oracle.OracleMembership` ``issuer``, scoped
    by group name; the shard adds only ownership: a group arriving from
    another shard raises the issuer's floors above its old watermarks,
    and a departing group takes its sinks and pending notices with it.
    """

    def __init__(
        self,
        index: int,
        clock,
        crashed: Set[ProcessId],
        *,
        round_duration: float = 1.0,
    ) -> None:
        self.index = index
        self.issuer = OracleMembership(
            clock,
            round_duration=round_duration,
            crashed=crashed,
            origin=f"s{index}",
        )
        # The groups this shard owns, each with the latest view it formed.
        self.groups: Dict[GroupName, Optional[View]] = {}

    @property
    def views_formed(self) -> List[View]:
        return self.issuer.views_formed

    def watermarks(self) -> Tuple[int, int]:
        return self.issuer.watermarks()

    def adopt(self, group: GroupName, *, cid_floor: int = 0, counter_floor: int = 0) -> None:
        """Take ownership of ``group``, with its predecessor's watermarks."""
        self.groups.setdefault(group, None)
        self.issuer.seed(cid_floor, counter_floor)

    def release(self, group: GroupName) -> Tuple[int, int]:
        """Drop ``group``; return the ``(cid, counter)`` watermarks.

        Pending notices for the group are cancelled - a shard must never
        speak for a group it no longer owns.
        """
        self.groups.pop(group, None)
        self.issuer.forget(group)
        return self.issuer.watermarks()

    def attach_client(
        self,
        group: GroupName,
        pid: ProcessId,
        on_start_change: StartChangeSink,
        on_view: ViewSink,
    ) -> None:
        self.issuer.attach_client(pid, on_start_change, on_view, scope=group)

    def group_view(self, group: GroupName) -> Optional[View]:
        return self.groups.get(group)

    def reconfigure(self, group: GroupName, members: Iterable[ProcessId]) -> Optional[View]:
        """Form the next view of ``group``; notices are scheduled."""
        if group not in self.groups:
            raise ValueError(f"shard {self.index} does not own group {group!r}")
        views = self.issuer.reconfigure([members], scope=group)
        if not views:
            return None
        self.groups[group] = views[0]
        return views[0]

    def __repr__(self) -> str:
        return (
            f"<MembershipShard {self.index} groups={len(self.groups)} "
            f"watermarks={self.watermarks()}>"
        )


class ShardedMembershipTier:
    """Many groups, few membership servers: state sharded by group.

    Every group operation touches exactly one shard (the owner); a
    process-level event (crash, recovery) fans out to exactly the shards
    owning one of the process's groups - never the whole tier.
    """

    def __init__(
        self,
        clock,
        *,
        shards: int = 1,
        round_duration: float = 1.0,
    ) -> None:
        self.clock = clock
        self.round_duration = round_duration
        self._crashed: Set[ProcessId] = set()
        self.map = GroupShardMap(shards)
        self.shards: List[MembershipShard] = [
            self._make_shard(index) for index in range(shards)
        ]
        self._members: Dict[GroupName, Set[ProcessId]] = {}
        self._groups_of: Dict[ProcessId, Set[GroupName]] = {}
        # Master sink registry by group, so a group's clients can be
        # re-attached wherever the group is adopted next.
        self._sinks: Dict[GroupName, Dict[ProcessId, Tuple[StartChangeSink, ViewSink]]] = {}
        # The durable half of the sharded service: per-group (cid,
        # counter) floors recorded at every view formation and every
        # relocation.  A shard rebuilt after losing its volatile state
        # (:meth:`rebuild_shard`) is seeded from here, so the first cid
        # and view counter it issues are strictly above anything the
        # group's members have seen - the sharded analogue of
        # :class:`repro.membership.state.WatermarkStore`.
        self.floors: Dict[GroupName, Tuple[int, int]] = {}

    def _make_shard(self, index: int) -> MembershipShard:
        return MembershipShard(
            index,
            self.clock,
            self._crashed,
            round_duration=self.round_duration,
        )

    # ------------------------------------------------------------------
    # routing
    # ------------------------------------------------------------------

    def _adopt(self, shard: MembershipShard, group: GroupName) -> None:
        """Make ``shard`` the owner of ``group``: counters seeded from
        the durable floors, every attached client's sinks re-attached."""
        cid_floor, counter_floor = self.floors.get(group, (0, 0))
        shard.adopt(group, cid_floor=cid_floor, counter_floor=counter_floor)
        for pid, sinks in self._sinks.get(group, {}).items():
            shard.attach_client(group, pid, *sinks)

    def _raise_floors(self, group: GroupName, watermarks: Tuple[int, int]) -> Tuple[int, int]:
        old = self.floors.get(group, (0, 0))
        floors = (max(old[0], watermarks[0]), max(old[1], watermarks[1]))
        self.floors[group] = floors
        return floors

    def shard_of(self, group: GroupName) -> MembershipShard:
        shard = self.shards[self.map.shard_of(group)]
        if group not in shard.groups:
            self._adopt(shard, group)
        return shard

    def _reconfigure(self, group: GroupName, members: Iterable[ProcessId]) -> Optional[View]:
        """Reconfigure at the owner and record the new durable floor."""
        shard = self.shard_of(group)
        view = shard.reconfigure(group, members)
        if view is not None:
            self._raise_floors(group, shard.watermarks())
        return view

    def members(self, group: GroupName) -> FrozenSet[ProcessId]:
        return frozenset(self._members.get(group, set()))

    def group_view(self, group: GroupName) -> Optional[View]:
        return self.shard_of(group).group_view(group)

    def views_formed(self) -> int:
        """Total views formed across all shards."""
        return sum(len(shard.views_formed) for shard in self.shards)

    # ------------------------------------------------------------------
    # group membership
    # ------------------------------------------------------------------

    def attach_client(
        self,
        group: GroupName,
        pid: ProcessId,
        on_start_change: StartChangeSink,
        on_view: ViewSink,
    ) -> None:
        self._sinks.setdefault(group, {})[pid] = (on_start_change, on_view)
        self.shard_of(group).attach_client(group, pid, on_start_change, on_view)

    def join(self, group: GroupName, pid: ProcessId) -> Optional[View]:
        """Add ``pid`` to ``group``; reconfigure that group (one shard)."""
        self._members.setdefault(group, set()).add(pid)
        self._groups_of.setdefault(pid, set()).add(group)
        return self._reconfigure(group, self._members[group])

    def set_group(self, group: GroupName, members: Iterable[ProcessId]) -> Optional[View]:
        """Drive ``group`` to exactly ``members`` with a single round.

        The bulk counterpart of :meth:`join`/:meth:`leave`: one
        reconfiguration however many members change - what E19 uses to
        populate a thousand groups without a thousand rounds each.
        """
        member_set = set(members)
        old = self._members.get(group, set())
        for pid in old - member_set:
            self._groups_of.get(pid, set()).discard(group)
        for pid in member_set - old:
            self._groups_of.setdefault(pid, set()).add(group)
        self._members[group] = member_set
        if not member_set:
            return None
        return self._reconfigure(group, member_set)

    def leave(self, group: GroupName, pid: ProcessId) -> Optional[View]:
        members = self._members.get(group, set())
        members.discard(pid)
        self._groups_of.get(pid, set()).discard(group)
        if not members:
            return None
        return self._reconfigure(group, members)

    def reconfigure_group(self, group: GroupName) -> Optional[View]:
        """Re-form ``group``'s view from its current (non-crashed) members."""
        members = self._members.get(group)
        if not members:
            return None
        return self._reconfigure(group, members)

    # ------------------------------------------------------------------
    # process-level events (fan out to owning shards only)
    # ------------------------------------------------------------------

    def _reconfigure_groups_of(self, pid: ProcessId) -> List[View]:
        views = (self.reconfigure_group(g) for g in sorted(self._groups_of.get(pid, ())))
        return [view for view in views if view is not None]

    def client_crashed(self, pid: ProcessId, *, reconfigure: bool = True) -> List[View]:
        """Mark ``pid`` crashed; reconfigure exactly its groups' shards."""
        self._crashed.add(pid)
        return self._reconfigure_groups_of(pid) if reconfigure else []

    def client_recovered(self, pid: ProcessId, *, reconfigure: bool = True) -> List[View]:
        self._crashed.discard(pid)
        return self._reconfigure_groups_of(pid) if reconfigure else []

    # ------------------------------------------------------------------
    # resizing (watermark-seeded moves)
    # ------------------------------------------------------------------

    def resize(self, shards: int) -> Dict[GroupName, Tuple[int, int]]:
        """Grow (or shrink) the tier; relocate only the groups that move.

        Each relocated group leaves its old shard with that shard's
        counter watermarks and seeds them into its new owner, so the
        first cid and view counter issued after the move are strictly
        greater than anything the group's members have seen - Local
        Monotonicity holds across the move.  Returns the moved groups
        with the watermarks they carried.
        """
        owners = {group: shard for shard in self.shards for group in shard.groups}
        self.map = GroupShardMap(shards)
        while len(self.shards) < shards:
            self.shards.append(self._make_shard(len(self.shards)))
        moved: Dict[GroupName, Tuple[int, int]] = {}
        for group in sorted(owners):
            successor = self.shards[self.map.shard_of(group)]
            if successor is not owners[group]:
                moved[group] = self._raise_floors(group, owners[group].release(group))
                self._adopt(successor, group)
        return moved

    def rebuild_shard(self, index: int) -> MembershipShard:
        """Replace shard ``index`` with a fresh one that lost all
        volatile state - a shard crash, in the Section 8 sense.

        Pending notices of the dead shard are cancelled (it must never
        speak again) and its groups are re-adopted at the tier's durable
        floors with their client sinks reattached, so the first view the
        rebuilt shard forms is strictly above anything its predecessor
        issued.
        """
        old = self.shards[index]
        owned = sorted(old.groups)
        for group in owned:
            old.release(group)  # cancellation only; floors are the memory
        fresh = self._make_shard(index)
        self.shards[index] = fresh
        for group in owned:
            self._adopt(fresh, group)
        return fresh

    def __repr__(self) -> str:
        return (
            f"<ShardedMembershipTier shards={len(self.shards)} "
            f"groups={len(self._members)} views={self.views_formed()}>"
        )
