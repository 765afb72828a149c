"""The membership tier's durable memory.

The paper's client-server architecture (Section 8) assumes the
membership service "never crashes and never forgets" its per-client cid
and view-counter watermarks.  The tier relaxes that assumption by
keeping, itself, the two things every correct server recovery depends
on: the round and view-counter floors of a :class:`WatermarkStore`, and
the cid registry all of its servers share
(:class:`~repro.membership.tier.MembershipTier`).  A recovering server
reads those and nothing else; everything else it held (proposals in
flight, announced estimates, its clients) is volatile and genuinely
lost.
"""

from __future__ import annotations

from typing import Dict, Optional


class WatermarkStore:
    """The tier's durable memory: what must survive a server crash.

    Two tier-wide floors - the highest round and the highest view
    counter ever *observed* on any server.  A recovering server starts
    on both, so its first new round exceeds every pre-crash round (peers
    adopt it - a rejoin, not a fork) and every counter it issues exceeds
    every counter a client may have seen (Local Monotonicity survives
    the crash).  A named group counts views on its own, so it has a
    counter floor of its own: bumped at each of its formations, read
    when its round machine is re-created at a new owner.
    """

    def __init__(self) -> None:
        self._round = 0
        self._counter = 0
        self._groups: Dict[str, int] = {}

    def observe(self, round_no: int, counter: int) -> None:
        """Raise the floors to ``round_no`` and ``counter``."""
        if round_no > self._round:
            self._round = round_no
        if counter > self._counter:
            self._counter = counter

    def round_floor(self) -> int:
        return self._round

    def counter_floor(self, group: Optional[str] = None) -> int:
        """The default group's counter floor, or a named ``group``'s."""
        return self._counter if group is None else self._groups.get(group, 0)

    def observe_group(self, group: str, counter: int) -> None:
        if counter > self._groups.get(group, 0):
            self._groups[group] = counter

    def __repr__(self) -> str:
        return f"<WatermarkStore round>={self._round} counter>={self._counter}>"


__all__ = ["WatermarkStore"]
