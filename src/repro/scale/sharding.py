"""Group placement for the many-groups regime (§1, §9).

The paper motivates the client-server architecture with scalability "in
the number of groups": a small tier of membership servers tracks many
multicast groups.  :class:`~repro.net.world.SimWorld` realises the client
side (one end-point per joined group over a shared transport) and
:class:`~repro.membership.tier.MembershipTier` the server side (one round
machine per group at the group's owning server); this module is the
placement policy between them:

* :class:`GroupShardMap` - a consistent group -> server mapping
  (highest-random-weight over ``crc32``, so it is a pure deterministic
  function of the group name and the candidate servers, needing no
  stored state);
* :func:`auto_shards` - the default server count for ``g`` groups.
"""

from __future__ import annotations

import math
import zlib
from typing import Dict, Iterable, Optional

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

    def shard_of(self, group: GroupName, among: Optional[Iterable[int]] = None) -> int:
        """The heaviest shard for ``group`` - of all, or of the ``among``
        indices only (the alive servers, when the tier places a group)."""
        group_hash = zlib.crc32(group.encode("utf-8"))
        return max(
            range(self.shards) if among is None else among,
            key=lambda index: (self._weight(group_hash, index), -index),
        )

    def placement(self, groups: Iterable[GroupName]) -> Dict[GroupName, int]:
        return {group: self.shard_of(group) for group in groups}


def auto_shards(groups: int) -> int:
    """Default shard count for ``groups`` groups: ~sqrt(g), capped at 32."""
    return max(1, min(32, round(math.sqrt(max(groups, 1)))))
