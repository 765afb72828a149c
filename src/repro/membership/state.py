"""Explicit, serialisable membership-server state.

The paper's client-server architecture (Section 8) assumes the
membership service "never crashes and never forgets" its per-client cid
and view-counter watermarks.  This module is what makes that assumption
*explicit* instead of implicit, so it can then be relaxed: a
:class:`MembershipServer`'s mutable protocol state is captured in one
frozen :class:`ServerState` value (``snapshot()``) and re-applied on
recovery (``restore()``), while the watermarks every correct recovery
depends on live in a :class:`WatermarkStore` owned by the *tier* - the
durable half of the service that survives individual server crashes.

Counters may be **bounded** (``counter_bound``): the externally visible
view counter is then the epoch-composed value ``epoch * bound + local``,
so the server-local counter can wrap without the external counter ever
regressing - the convergence idea of "Practically-Self-Stabilizing
Virtual Synchrony" (PAPERS.md) applied to the one watermark Local
Monotonicity depends on.  A recovery that restored only the bounded
local counter would wedge (or fork) once the pre-crash epoch is lost;
composing it with the durably stored epoch converges instead.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, Optional, Tuple

from repro.types import ProcessId, StartChangeId


def compose_counter(epoch: int, local: int, bound: Optional[int]) -> int:
    """The externally visible (monotone) counter for a bounded local one."""
    if bound is None:
        return local
    return epoch * bound + local


def decompose_counter(value: int, bound: Optional[int]) -> Tuple[int, int]:
    """Split an external counter into ``(epoch, local)`` under ``bound``."""
    if bound is None:
        return 0, value
    return divmod(value, bound)


@dataclass(frozen=True)
class ServerState:
    """One server's protocol state, as a frozen serialisable value.

    ``counter`` is the *bounded local* counter and ``epoch`` its wrap
    count; :attr:`max_counter` recomposes the external watermark.  With
    ``counter_bound`` unset the two coincide (``epoch == 0``).
    """

    sid: ProcessId
    local_clients: Tuple[ProcessId, ...]
    crashed_clients: Tuple[ProcessId, ...]
    round: int
    epoch: int
    counter: int
    counter_bound: Optional[int]
    cids: Tuple[Tuple[ProcessId, StartChangeId], ...]
    modes: Tuple[Tuple[ProcessId, str], ...]

    @property
    def max_counter(self) -> int:
        return compose_counter(self.epoch, self.counter, self.counter_bound)

    def to_dict(self) -> Dict[str, Any]:
        return {
            "sid": self.sid,
            "local_clients": list(self.local_clients),
            "crashed_clients": list(self.crashed_clients),
            "round": self.round,
            "epoch": self.epoch,
            "counter": self.counter,
            "counter_bound": self.counter_bound,
            "cids": [[pid, cid] for pid, cid in self.cids],
            "modes": [[pid, mode] for pid, mode in self.modes],
        }

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "ServerState":
        return cls(
            sid=data["sid"],
            local_clients=tuple(data["local_clients"]),
            crashed_clients=tuple(data["crashed_clients"]),
            round=int(data["round"]),
            epoch=int(data.get("epoch", 0)),
            counter=int(data["counter"]),
            counter_bound=data.get("counter_bound"),
            cids=tuple((pid, cid) for pid, cid in data["cids"]),
            modes=tuple((pid, mode) for pid, mode in data["modes"]),
        )


class WatermarkStore:
    """The tier's durable memory: what must survive a server crash.

    Holds the last persisted :class:`ServerState` per server plus two
    tier-wide floors - the highest round and the highest external view
    counter ever *observed* on any server.  A recovering server restores
    its snapshot and is floored by both, so its first new round exceeds
    every pre-crash round (peers adopt it - a rejoin, not a fork) and
    every counter it issues exceeds every counter a client may have seen
    (Local Monotonicity survives the crash).  A named group counts views
    on its own, so it has a counter floor of its own: bumped at each of
    its formations, read when its round machine is re-created at a new
    owner.
    """

    def __init__(self) -> None:
        self._states: Dict[ProcessId, ServerState] = {}
        self._round = 0
        self._counter = 0
        self._groups: Dict[str, int] = {}

    def observe(self, round_no: int, counter: int) -> None:
        """Cheap floor bump: called on every tier send."""
        if round_no > self._round:
            self._round = round_no
        if counter > self._counter:
            self._counter = counter

    def persist(self, state: ServerState) -> None:
        """Durably record a full server snapshot (and bump the floors)."""
        self._states[state.sid] = state
        self.observe(state.round, state.max_counter)

    def load(self, sid: ProcessId) -> Optional[ServerState]:
        return self._states.get(sid)

    def round_floor(self) -> int:
        return self._round

    def counter_floor(self, group: Optional[str] = None) -> int:
        """The default group's counter floor, or a named ``group``'s."""
        return self._counter if group is None else self._groups.get(group, 0)

    def observe_group(self, group: str, counter: int) -> None:
        if counter > self._groups.get(group, 0):
            self._groups[group] = counter

    def to_dict(self) -> Dict[str, Any]:
        return {
            "round": self._round,
            "counter": self._counter,
            "groups": dict(sorted(self._groups.items())),
            "states": {str(sid): s.to_dict() for sid, s in sorted(self._states.items())},
        }

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "WatermarkStore":
        store = cls()
        store._round = int(data.get("round", 0))
        store._counter = int(data.get("counter", 0))
        store._groups = {g: int(c) for g, c in data.get("groups", {}).items()}
        for state in data.get("states", {}).values():
            restored = ServerState.from_dict(state)
            store._states[restored.sid] = restored
        return store

    def __repr__(self) -> str:
        return (
            f"<WatermarkStore servers={sorted(self._states)} "
            f"round>={self._round} counter>={self._counter}>"
        )


__all__ = [
    "ServerState",
    "WatermarkStore",
    "compose_counter",
    "decompose_counter",
]
