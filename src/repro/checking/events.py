"""Canonical records of externally observable GCS events.

Every execution substrate in this package - the IOA schedulers, the
discrete-event simulator, the asyncio runtime - emits its externally
observable behaviour as a :class:`GcsTrace` of the event types below, so
a single set of trace rules (:mod:`repro.checking.verdict`) applies to
all of them.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, FrozenSet, Iterable, Iterator, List

from repro.types import ProcessId, StartChangeId, View


@dataclass(frozen=True)
class GcsEvent:
    """Base event: something observable happened at process ``proc``."""

    time: float
    proc: ProcessId


@dataclass(frozen=True)
class SendEvent(GcsEvent):
    """The application at ``proc`` sent ``payload`` (GCS.send_p(m))."""

    payload: Any


@dataclass(frozen=True)
class DeliverEvent(GcsEvent):
    """``payload`` from ``sender`` was delivered to the application."""

    sender: ProcessId
    payload: Any


@dataclass(frozen=True)
class ViewEvent(GcsEvent):
    """The GCS delivered ``view`` with transitional set ``transitional``."""

    view: View
    transitional: FrozenSet[ProcessId]


@dataclass(frozen=True)
class BlockEvent(GcsEvent):
    """The GCS asked the application to stop sending."""


@dataclass(frozen=True)
class BlockOkEvent(GcsEvent):
    """The application acknowledged the block request."""


@dataclass(frozen=True)
class MbrshpStartChangeEvent(GcsEvent):
    """The membership service sent start_change(cid, members) to ``proc``."""

    cid: StartChangeId
    members: FrozenSet[ProcessId]


@dataclass(frozen=True)
class MbrshpViewEvent(GcsEvent):
    """The membership service delivered ``view`` to ``proc``."""

    view: View


@dataclass(frozen=True)
class MbrshpFormEvent(GcsEvent):
    """Membership server ``proc`` *formed* ``view`` (its durability point).

    Unlike the client-side notices, formation is recorded at the server
    the moment its agreement round completes - before any notice is in
    flight - so the event order of one server's formations follows that
    server's causal order even when notice deliveries interleave across
    clients.  This is what makes the server fault-domain rules sound:
    ``MBRSHP-SRV-MONO`` reads only the *origin* server's own formations
    (a single server forms views sequentially), where delivery-order
    would be racy."""

    view: View


@dataclass(frozen=True)
class CrashEvent(GcsEvent):
    """Process ``proc`` crashed (Section 8)."""


@dataclass(frozen=True)
class RecoverEvent(GcsEvent):
    """Process ``proc`` recovered with its state reset (Section 8)."""


class GcsTrace:
    """An append-only sequence of :class:`GcsEvent` with query helpers."""

    def __init__(self, events: Iterable[GcsEvent] = ()) -> None:
        self.events: List[GcsEvent] = list(events)

    def append(self, event: GcsEvent) -> None:
        self.events.append(event)

    def __len__(self) -> int:
        return len(self.events)

    def __iter__(self) -> Iterator[GcsEvent]:
        return iter(self.events)

    def of_type(self, *types: type) -> List[GcsEvent]:
        return [e for e in self.events if isinstance(e, types)]

    def processes(self) -> FrozenSet[ProcessId]:
        return frozenset(e.proc for e in self.events)

    def views_at(self, proc: ProcessId) -> List[ViewEvent]:
        return [e for e in self.events if isinstance(e, ViewEvent) and e.proc == proc]

    def merged(self, *others: "GcsTrace") -> "GcsTrace":
        """A time-ordered union of this trace and ``others``."""
        events = list(self.events)
        for other in others:
            events.extend(other.events)
        events.sort(key=lambda e: e.time)
        return GcsTrace(events)
